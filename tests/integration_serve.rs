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
//! brute-force great-circle scan, the derived cache across an epoch, and
//! the front-end's reply path (every answer reaches its client, in either
//! order of answer and `wait`, under a watchdog so a lost wake-up fails
//! instead of hanging).

use grist_core::{GristModel, RunConfig};
use grist_dycore::Real;
use grist_serve::{
    default_suite, spawn_ensemble, EnsembleConfig, EpochView, ForecastServer, PendingResponse,
    PoolTarget, Product, Query, QueryEngine, Response, Select, ServeConfig, SnapshotStore,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;
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
        store.published_log().len(),
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

fn served_engine(cfg: &RunConfig) -> Arc<QueryEngine<f64>> {
    let store = Arc::new(SnapshotStore::new(1, 2));
    let model = GristModel::<f64>::new(cfg.clone());
    store.publish(EpochView {
        member: 0,
        epoch: model.dyn_steps() as u64,
        state_hash: model.state_hash(),
        checkpoint: model.checkpoint(),
    });
    Arc::new(QueryEngine::new(
        store,
        cfg.clone(),
        Substrate::serial(),
        default_suite(cfg.nlev),
    ))
}

#[test]
fn concurrent_submits_all_answer_and_match_direct_serving() {
    let cfg = RunConfig::for_level(2, 6);
    let engine = served_engine(&cfg);
    let server = ForecastServer::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 3,
            max_batch: 8,
        },
    );
    let pending: Vec<(Query, PendingResponse)> = (0..40)
        .map(|i| {
            let product = if i % 2 == 0 {
                Product::Precip
            } else {
                Product::T2m
            };
            let q = Query::cell(0, i % engine.n_cells(), product);
            let p = server.submit(q.clone()).unwrap();
            (q, p)
        })
        .collect();
    for (q, p) in pending {
        let served = p.wait().unwrap();
        let direct = engine.serve_one_percol(&q).unwrap();
        assert_eq!(served, direct, "served answer must be bit-identical");
    }
    let served = server.shutdown();
    assert_eq!(served, 40);
    // Batching happened: fewer engine batches than queries, and the
    // histograms saw every batch and every query.
    let snap = engine.substrate().metrics().snapshot();
    let batches = snap.counters["serve.batches"];
    assert!(batches <= 40, "{batches} batches for 40 queries");
    let sizes = &snap.histograms["serve.batch_size"];
    assert_eq!((sizes.count, sizes.sum), (batches, 40));
    let latency = &snap.histograms["serve.latency_ns"];
    assert_eq!(latency.count, 40);
    assert!(latency.min > 0, "queue-to-answer latency is nonzero");
}

#[test]
fn a_traced_engine_joins_every_query_to_its_kernels() {
    use sunway_sim::EventKind;
    let cfg = RunConfig::for_level(2, 6);
    let engine = served_engine(&cfg);
    engine.substrate().metrics().tracer().enable();
    let server = ForecastServer::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 2,
            max_batch: 8,
        },
    );
    const N: usize = 24;
    let pending: Vec<(Query, PendingResponse)> = (0..N)
        .map(|i| {
            let q = Query::cell(0, i % engine.n_cells(), Product::Precip);
            (q.clone(), server.submit(q).unwrap())
        })
        .collect();
    for (q, p) in pending {
        assert_eq!(p.wait().unwrap(), engine.serve_one_percol(&q).unwrap());
    }
    server.shutdown();

    // Flow join: one begin + one end per query, and at least one step
    // per query (the serving batch stamps every member's ID).
    let tracer = engine.substrate().metrics().tracer();
    let snap = tracer.snapshot();
    assert_eq!(snap.count_kind(EventKind::FlowBegin), N);
    assert_eq!(snap.count_kind(EventKind::FlowEnd), N);
    assert!(snap.count_kind(EventKind::FlowStep) >= N);
    assert_eq!(tracer.mint_flow_id(), N as u64 + 1, "one ID per query");
    // The batch's cache-miss dispatch stamped flow steps on the kernel
    // name, scoping requests down to substrate lanes.
    let dispatch_steps = snap
        .lanes
        .iter()
        .flat_map(|l| &l.events)
        .filter(|e| e.kind == EventKind::FlowStep && e.name != "request")
        .count();
    assert!(dispatch_steps > 0, "no dispatch-level flow steps recorded");
    // And the whole document exports as valid Chrome JSON with flows.
    let stats = sunway_sim::validate_chrome(&snap.to_chrome_json()).unwrap();
    assert_eq!(
        stats.flows,
        snap.count_kind(EventKind::FlowBegin)
            + snap.count_kind(EventKind::FlowStep)
            + snap.count_kind(EventKind::FlowEnd)
    );
}

#[test]
fn an_untraced_engine_mints_no_ids_and_stays_bit_identical() {
    let cfg = RunConfig::for_level(2, 6);
    let engine = served_engine(&cfg);
    let server = ForecastServer::start(Arc::clone(&engine), ServeConfig::default());
    let q = Query::cell(0, 3, Product::T2m);
    let served = server.query_blocking(q.clone()).unwrap();
    assert_eq!(served, engine.serve_one_percol(&q).unwrap());
    server.shutdown();
    // Tracing off: no ID was minted (the first one a traced run gets is
    // 1) and the timeline holds no flow event.
    let tracer = engine.substrate().metrics().tracer();
    let stats = sunway_sim::validate_chrome(&tracer.snapshot().to_chrome_json()).unwrap();
    assert_eq!(stats.flows, 0, "an untraced server must not record flows");
    tracer.enable();
    assert_eq!(tracer.mint_flow_id(), 1, "serving untraced minted nothing");
}

#[test]
fn shutdown_disconnects_cleanly() {
    let cfg = RunConfig::for_level(2, 6);
    let engine = served_engine(&cfg);
    let server = ForecastServer::start(engine, ServeConfig::default());
    let p = server.submit(Query::cell(0, 0, Product::T2m)).unwrap();
    assert!(p.wait().is_ok());
    server.shutdown();
}

/// Run `f` on its own thread and fail unless it returns within `secs`: a
/// client parked on a lost wake-up fails the test instead of hanging it.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("watchdog: no answer in time (a lost wake-up, or the body panicked)")
}

/// A fixed mix of cells, points and products with their reference answers.
fn reference_mix(engine: &QueryEngine<f64>) -> Vec<(Query, Response)> {
    let products = [Product::Precip, Product::T2m, Product::ColumnState];
    (0..48)
        .map(|k| {
            let product = products[k % 3];
            let q = if k % 4 == 3 {
                Query::point(0, 0.05 * k as f64 - 1.2, 0.13 * k as f64, product)
            } else {
                Query::cell(0, (k * 37) % engine.n_cells(), product)
            };
            let want = engine.serve_one_percol(&q).unwrap();
            (q, want)
        })
        .collect()
}

#[test]
fn an_answer_reaches_its_client_whether_it_lands_before_or_after_wait() {
    let cfg = RunConfig::for_level(2, 6);
    let engine = served_engine(&cfg);
    let one = ServeConfig {
        workers: 1,
        max_batch: 8,
    };
    let server = ForecastServer::start(Arc::clone(&engine), one);
    let q = Query::cell(0, 5, Product::Precip);
    let want = engine.serve_one_percol(&q).unwrap();

    // Answer first: the batch's histograms are recorded after its replies.
    let p = server.submit(q.clone()).unwrap();
    let m = engine.substrate().metrics();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !m.snapshot().histograms.contains_key("serve.latency_ns") {
        assert!(
            std::time::Instant::now() < deadline,
            "the worker never answered"
        );
        std::thread::yield_now();
    }
    assert_eq!(within(60, move || p.wait()).unwrap(), want);

    // Wait first: the lone worker is busy deriving the whole globe.
    let globe = Query {
        member: 0,
        select: Select::Region {
            lat: (-2.0, 2.0),
            lon: (-7.0, 7.0),
        },
        product: Product::T2m,
    };
    let busy = server.submit(globe.clone()).unwrap();
    let p = server.submit(q).unwrap();
    assert_eq!(within(60, move || p.wait()).unwrap(), want);
    let got = within(60, move || busy.wait()).unwrap();
    assert_eq!(got, engine.serve_one_percol(&globe).unwrap());
    assert_eq!(server.shutdown(), 3);
}

#[test]
fn four_clients_with_64_outstanding_get_every_answer_from_one_worker() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 2_000;
    const WINDOW: usize = 64;
    let cfg = RunConfig::for_level(2, 6);
    let engine = served_engine(&cfg);
    let mix = Arc::new(reference_mix(&engine));
    let one = ServeConfig {
        workers: 1,
        max_batch: 32,
    };
    let server = Arc::new(ForecastServer::start(Arc::clone(&engine), one));
    let clients = Arc::clone(&server);
    within(120, move || {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (server, mix) = (Arc::clone(&clients), Arc::clone(&mix));
                std::thread::spawn(move || {
                    let check = |(k, p): (usize, PendingResponse)| {
                        assert_eq!(p.wait().unwrap(), mix[k].1, "client {client} query {k}");
                    };
                    let mut inflight = VecDeque::with_capacity(WINDOW);
                    for i in 0..PER_CLIENT {
                        if inflight.len() == WINDOW {
                            check(inflight.pop_front().unwrap());
                        }
                        let k = (client * 7 + i) % mix.len();
                        inflight.push_back((k, server.submit(mix[k].0.clone()).unwrap()));
                    }
                    inflight.into_iter().for_each(check);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    });
    let server = Arc::try_unwrap(server).ok().expect("clients are done");
    assert_eq!(server.shutdown(), (CLIENTS * PER_CLIENT) as u64);

    // Queue wait sits beside latency: one sample per query, and a query's
    // wait up to its batch's forming never exceeds its queue-to-answer time.
    let snap = engine.substrate().metrics().snapshot();
    let (queue, latency) = (
        &snap.histograms["serve.queue_ns"],
        &snap.histograms["serve.latency_ns"],
    );
    assert_eq!(queue.count, snap.counters["serve.queries"]);
    assert_eq!(queue.count, (CLIENTS * PER_CLIENT) as u64);
    assert!(queue.sum <= latency.sum, "{} > {}", queue.sum, latency.sum);
}

#[test]
fn dropped_pending_responses_leave_the_server_answering() {
    const N: usize = 400;
    let cfg = RunConfig::for_level(2, 6);
    let engine = served_engine(&cfg);
    let mix = reference_mix(&engine);
    let server = ForecastServer::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 2,
            max_batch: 16,
        },
    );
    let mut kept = Vec::new();
    for i in 0..N {
        let k = i % mix.len();
        let p = server.submit(mix[k].0.clone()).unwrap();
        if i % 2 == 1 {
            kept.push((k, p));
        } // else: dropped unread
    }
    for (k, p) in kept {
        assert_eq!(within(60, move || p.wait()).unwrap(), mix[k].1);
    }
    let (q, want) = mix[1].clone();
    assert_eq!(server.query_blocking(q).unwrap(), want);
    assert_eq!(server.shutdown(), N as u64 + 1);
}
