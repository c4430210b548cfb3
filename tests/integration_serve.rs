//! Snapshot-isolation property test for the serving layer (DESIGN.md §12).
//!
//! While an ensemble advances concurrently on rank pools, every query
//! answered by the server must be attributable to **exactly one** published
//! epoch: the response's `(member, epoch)` appears exactly once in the
//! store's publish log and the response's `state_hash` equals that
//! publish's hash. A torn read — a query observing a member mid-`advance`,
//! or a half-invalidated cache — would either hash to a value never
//! published or mix two epochs' data. Exercised across `{Serial, CpeTeams}`
//! execution targets and `{f32, f64}` working precisions.
//!
//! Also here: the nearest-cell sweep that holds `Select::Point` to the
//! brute-force great-circle scan, and the derived cache across an epoch.

use grist_core::{GristModel, RunConfig};
use grist_dycore::Real;
use grist_serve::{
    default_suite, spawn_ensemble, EnsembleConfig, EpochView, ForecastServer, PoolTarget, Product,
    Query, QueryEngine, Response, Select, ServeConfig, SnapshotStore,
};
use std::collections::HashMap;
use std::sync::Arc;
use sunway_sim::Substrate;

const MEMBERS: usize = 3;
const POOLS: usize = 2;
const EPOCHS: usize = 4;

fn engine_substrate(target: PoolTarget) -> Substrate {
    match target {
        PoolTarget::Serial => Substrate::serial(),
        PoolTarget::CpeTeams(n) => Substrate::cpe_teams(n),
    }
}

fn no_torn_reads_under_concurrent_advance<R: Real>(target: PoolTarget) {
    let run = RunConfig::for_level(2, 6);
    let store = Arc::new(SnapshotStore::new(MEMBERS, 2 * EPOCHS));
    let ensemble = spawn_ensemble::<R>(
        EnsembleConfig {
            members: MEMBERS,
            rank_pools: POOLS,
            epochs: EPOCHS,
            dyn_steps_per_epoch: 2,
            run: run.clone(),
            perturb_scale: 1e-6,
            target,
        },
        Arc::clone(&store),
    );
    let engine = Arc::new(QueryEngine::<R>::new(
        Arc::clone(&store),
        run.clone(),
        engine_substrate(target),
        default_suite(run.nlev),
    ));
    // Wait until every member has an epoch-0 view (published before any
    // advance), then hammer the server while the ensemble keeps advancing.
    while (0..MEMBERS).any(|m| store.latest(m).is_none()) {
        std::thread::yield_now();
    }
    let server = Arc::new(ForecastServer::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 3,
            max_batch: 8,
        },
    ));
    let ncells = engine.n_cells();
    let clients: Vec<std::thread::JoinHandle<Vec<Response>>> = (0..4)
        .map(|client: usize| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                (0..30)
                    .map(|i| {
                        let product = match (client + i) % 3 {
                            0 => Product::Precip,
                            1 => Product::T2m,
                            _ => Product::ColumnState,
                        };
                        let q = Query::cell(
                            (client + i) % MEMBERS,
                            (client * 31 + i * 7) % ncells,
                            product,
                        );
                        server.query_blocking(q).expect("serving must not fail")
                    })
                    .collect()
            })
        })
        .collect();
    let responses: Vec<Response> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client panicked"))
        .collect();
    ensemble.join();
    assert_eq!(
        store.published_count(),
        MEMBERS * (EPOCHS + 1),
        "every member publishes every epoch"
    );

    // The property: each response matches exactly one published epoch.
    let log = store.published_log();
    let mut published: HashMap<(usize, u64), (u64, usize)> = HashMap::new();
    for &(member, epoch, hash) in &log {
        let entry = published.entry((member, epoch)).or_insert((hash, 0));
        entry.1 += 1;
    }
    assert_eq!(responses.len(), 4 * 30);
    for r in &responses {
        let (hash, count) = published
            .get(&(r.member, r.epoch))
            .unwrap_or_else(|| panic!("member {} epoch {} was never published", r.member, r.epoch));
        assert_eq!(
            *count, 1,
            "member {} epoch {} published once",
            r.member, r.epoch
        );
        assert_eq!(
            *hash, r.state_hash,
            "member {} epoch {}: response hash must be the published hash",
            r.member, r.epoch
        );
    }
    // The run was genuinely concurrent enough to be meaningful: responses
    // are pinned to real epochs, and the engine answered from at least the
    // initial epoch of every queried member.
    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }
}

#[test]
fn no_torn_reads_serial_f64() {
    no_torn_reads_under_concurrent_advance::<f64>(PoolTarget::Serial);
}

#[test]
fn no_torn_reads_serial_f32() {
    no_torn_reads_under_concurrent_advance::<f32>(PoolTarget::Serial);
}

#[test]
fn no_torn_reads_cpe_teams_f64() {
    no_torn_reads_under_concurrent_advance::<f64>(PoolTarget::CpeTeams(4));
}

#[test]
fn no_torn_reads_cpe_teams_f32() {
    no_torn_reads_under_concurrent_advance::<f32>(PoolTarget::CpeTeams(4));
}

/// The oracle: the great-circle scan over every cell, first index among
/// equal cosines, cell 0 when no cosine compares (NaN). Lives only here.
fn scan_nearest(lats: &[f64], lons: &[f64], lat: f64, lon: f64) -> usize {
    let (mut best, mut best_cos) = (0usize, f64::NEG_INFINITY);
    for c in 0..lats.len() {
        let cosang = lat.sin() * lats[c].sin() + lat.cos() * lats[c].cos() * (lon - lons[c]).cos();
        if cosang > best_cos {
            best_cos = cosang;
            best = c;
        }
    }
    best
}

/// Largest `|F_c − D_c|` over every cell: the trig cosine the scan ranks by
/// against the dot product of unit vectors the engine pre-ranks by.
fn max_cosine_gap(lats: &[f64], lons: &[f64], lat: f64, lon: f64) -> f64 {
    let unit = |la: f64, lo: f64| [la.cos() * lo.cos(), la.cos() * lo.sin(), la.sin()];
    let q = unit(lat, lon);
    (0..lats.len())
        .map(|c| {
            let f = lat.sin() * lats[c].sin() + lat.cos() * lats[c].cos() * (lon - lons[c]).cos();
            let u = unit(lats[c], lons[c]);
            (f - (q[0] * u[0] + q[1] * u[1] + q[2] * u[2])).abs()
        })
        .fold(0.0, f64::max)
}

/// SplitMix64 in [0, 1).
fn unit_draws(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn nearest_cell_matches_the_full_scan(level: u32, random_points: usize) {
    use std::f64::consts::{FRAC_PI_2, PI};
    let run = RunConfig::for_level(level, 4);
    let model = GristModel::<f64>::new(run.clone());
    let (lats, lons) = (&model.lats, &model.lons);
    let engine = QueryEngine::<f64>::new(
        Arc::new(SnapshotStore::new(1, 1)),
        run.clone(),
        Substrate::serial(),
        default_suite(run.nlev),
    );
    let mesh = &model.solver.mesh;
    let on_mesh =
        |ps: &[grist_mesh::Vec3]| ps.iter().map(|p| (p.lat(), p.lon())).collect::<Vec<_>>();

    // Cell centres, vertices (three-way near-ties), edge midpoints
    // (two-way ties), then seeded uniform points on the sphere.
    let mut points = on_mesh(&mesh.cell_xyz);
    points.extend(on_mesh(&mesh.vert_xyz));
    points.extend(on_mesh(&mesh.edge_mid));
    let mut draw = unit_draws(0x5eed ^ level as u64);
    points.extend(
        (0..random_points).map(|_| ((2.0 * draw() - 1.0).asin(), PI * (2.0 * draw() - 1.0))),
    );
    let mut gap = 0.0f64;
    for &(lat, lon) in &points {
        gap = gap.max(max_cosine_gap(lats, lons, lat, lon));
    }
    // Poles, the date line from both sides, latitudes past the poles,
    // longitudes far outside (−π, π], and non-finite input.
    for lat in [-1.2, -0.4, 0.0, 0.7, 1.3] {
        points.extend([(lat, PI), (lat, -PI)]);
    }
    for lon in [-3.0, 0.0, 1.0, 2.5] {
        points.extend([
            (FRAC_PI_2, lon),
            (-FRAC_PI_2, lon),
            (2.0, lon),
            (-2.6, lon),
            (4.0, lon),
        ]);
    }
    points.extend([
        (0.3, 7.0 * PI + 0.2),
        (-0.5, -1e4 + 0.1),
        (0.1, 1e6),
        (0.2, 3e15),
    ]);
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    for bad in [
        (nan, 0.5),
        (0.5, nan),
        (inf, 0.5),
        (-inf, 0.5),
        (0.5, inf),
        (0.5, -inf),
        (nan, inf),
    ] {
        assert_eq!(
            scan_nearest(lats, lons, bad.0, bad.1),
            0,
            "the scan answers cell 0 on {bad:?}"
        );
        points.push(bad);
    }
    for &(lat, lon) in &points {
        let got = engine
            .resolve(&Select::Point { lat, lon })
            .expect("a point always resolves");
        assert_eq!(
            got,
            [scan_nearest(lats, lons, lat, lon)],
            "level {level}: point ({lat}, {lon})"
        );
    }
    assert!(
        gap < 1e-14,
        "level {level}: |F − D| reached {gap:e}, the margin assumes ≤ 1e-14"
    );
}

#[test]
fn nearest_cell_matches_the_full_scan_level_2() {
    nearest_cell_matches_the_full_scan(2, 20_000);
}

#[test]
fn nearest_cell_matches_the_full_scan_level_3() {
    nearest_cell_matches_the_full_scan(3, 5_000);
}

#[test]
fn a_new_epoch_misses_the_cache_and_answers_like_the_reference_path() {
    let run = RunConfig::for_level(2, 6);
    let store = Arc::new(SnapshotStore::new(1, 2));
    let mut model = GristModel::<f64>::new(run.clone());
    let publish = |model: &GristModel<f64>| {
        store.publish(EpochView {
            member: 0,
            epoch: model.dyn_steps() as u64,
            state_hash: model.state_hash(),
            checkpoint: model.checkpoint(),
        })
    };
    publish(&model);
    let engine = QueryEngine::<f64>::new(
        Arc::clone(&store),
        run.clone(),
        Substrate::serial(),
        default_suite(run.nlev),
    );
    let m = engine.substrate().metrics();
    let q = Query::cell(0, 17, Product::Precip);
    let serve = || {
        engine
            .serve_batch(std::slice::from_ref(&q))
            .remove(0)
            .expect("served")
    };
    let e1 = serve();
    assert_eq!(
        (
            m.counter("serve.cache.misses"),
            m.counter("serve.cache.hits")
        ),
        (1, 0)
    );
    assert_eq!(serve(), e1, "a hit answers what the miss computed");
    assert_eq!(
        (
            m.counter("serve.cache.misses"),
            m.counter("serve.cache.hits")
        ),
        (1, 1)
    );

    model.advance(run.dt_phy);
    publish(&model);
    let e2 = serve();
    assert_eq!(
        (
            m.counter("serve.cache.misses"),
            m.counter("serve.cache.hits")
        ),
        (2, 1)
    );
    assert_eq!(m.counter("serve.view.restores"), 2);
    assert!(e2.epoch > e1.epoch);
    assert_eq!(e2, engine.serve_one_percol(&q).expect("reference path"));
}
