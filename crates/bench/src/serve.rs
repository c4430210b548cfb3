//! The pinned serving benchmark behind `BENCH_serve.json`: batched query
//! dispatch ([`grist_serve::QueryEngine::serve_batch`]) against the
//! per-query reference path ([`grist_serve::QueryEngine::serve_one_percol`])
//! on a real ensemble's published snapshots, plus a threaded traffic phase
//! measuring end-to-end latency through the [`grist_serve::ForecastServer`]
//! front-end.
//!
//! Two phases:
//!
//! * **Phase A (deterministic)** — run the pinned ensemble to completion in
//!   the foreground, then time both serving paths over the same query set
//!   with the derived-product cache **disabled**, so every query pays its
//!   full ML dispatch and the ratio isolates batching. Every batched answer
//!   is then verified **bitwise** against a recompute from the source
//!   epoch's checkpoint: a fresh model restores the published
//!   [`grist_serve::EpochView`], re-extracts columns, and re-runs the pinned
//!   suite per column. The counters and kernel call/item counts this phase
//!   emits are deterministic and pinned exactly (see [`crate::pin`]).
//! * **Phase B (traffic)** — a fresh store, the ensemble advancing on a
//!   background thread, and client threads hammering the server while it
//!   runs. Per-query latencies (p50/p99) and aggregate throughput go to the
//!   wall report only: nothing compares them (serving speed is
//!   `benchmark/run.sh`'s `serve_steady` / `serve_churn`).
//!
//! [`run`] enforces the in-run floor — batched ≥ [`MIN_SPEEDUP`] × the
//! per-query path, and a verification that covered at least one product.
//! The bitwise recompute check has no tolerance at all — a single differing
//! bit panics the run.

use std::sync::Arc;
use std::time::Instant;

use grist_core::{extract_columns, GristModel, RunConfig};
use grist_serve::{
    default_suite, derive, run_ensemble, spawn_ensemble, EnsembleConfig, ForecastServer,
    PoolTarget, Product, ProductData, Query, QueryEngine, Response, Select, ServeConfig,
    SnapshotStore,
};
use sunway_sim::{Json, Substrate};

use crate::pin::{SuiteResult, SuiteRun};

/// In-run gate: batched dispatch over the per-query reference path.
pub const MIN_SPEEDUP: f64 = 2.0;

/// Pinned configuration. Changing any of these invalidates the committed
/// `BENCH_serve.json`; re-pin it (`grist gate serve --update`).
pub const SERVE_LEVEL: u32 = 2;
pub const SERVE_NLEV: usize = 10;
pub const SERVE_MEMBERS: usize = 3;
pub const SERVE_POOLS: usize = 2;
pub const SERVE_EPOCHS: usize = 2;
pub const SERVE_DYN_STEPS_PER_EPOCH: usize = 2;
/// Queries per timed pass (Phase A) — mixed precip/t2m over all members.
pub const SERVE_QUERIES: usize = 96;
/// Batch size the batched path chunks the query set into.
pub const SERVE_BATCH: usize = 32;
/// Timed passes per path (one extra warm-up pass pays restores + arenas).
pub const SERVE_ITERS: usize = 2;
/// Phase B front-end sizing and synthetic traffic volume.
pub const SERVE_WORKERS: usize = 4;
pub const SERVE_MAX_BATCH: usize = 32;
pub const SERVE_CLIENTS: usize = 4;
pub const SERVE_CLIENT_QUERIES: usize = 60;
pub const SERVE_PERTURB: f64 = 1e-5;

/// One bench run's knobs (the test suite shrinks them; [`run`] pins them).
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchConfig {
    pub level: u32,
    pub nlev: usize,
    pub members: usize,
    pub rank_pools: usize,
    pub epochs: usize,
    pub dyn_steps_per_epoch: usize,
    pub queries: usize,
    pub serve_batch: usize,
    pub iters: usize,
    pub workers: usize,
    pub max_batch: usize,
    pub clients: usize,
    pub client_queries: usize,
    pub perturb_scale: f64,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            level: SERVE_LEVEL,
            nlev: SERVE_NLEV,
            members: SERVE_MEMBERS,
            rank_pools: SERVE_POOLS,
            epochs: SERVE_EPOCHS,
            dyn_steps_per_epoch: SERVE_DYN_STEPS_PER_EPOCH,
            queries: SERVE_QUERIES,
            serve_batch: SERVE_BATCH,
            iters: SERVE_ITERS,
            workers: SERVE_WORKERS,
            max_batch: SERVE_MAX_BATCH,
            clients: SERVE_CLIENTS,
            client_queries: SERVE_CLIENT_QUERIES,
            perturb_scale: SERVE_PERTURB,
        }
    }
}

/// The run plus the headline numbers [`run`] gates on and prints.
#[derive(Debug)]
pub struct ServeBench {
    pub run: SuiteRun,
    /// Batched / per-query throughput ratio (Phase A, cache disabled).
    pub speedup: f64,
    /// Products checked bitwise against a checkpoint recompute. The check
    /// itself panics on any mismatch, so a positive count means it ran.
    pub verified_products: u64,
    /// Phase B end-to-end latency percentiles, milliseconds.
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Phase B aggregate queries per second through the front-end.
    pub qps: f64,
}

fn ensemble_config(cfg: &ServeBenchConfig, run: &RunConfig) -> EnsembleConfig {
    EnsembleConfig {
        members: cfg.members,
        rank_pools: cfg.rank_pools,
        epochs: cfg.epochs,
        dyn_steps_per_epoch: cfg.dyn_steps_per_epoch,
        run: run.clone(),
        perturb_scale: cfg.perturb_scale,
        target: PoolTarget::Serial,
    }
}

/// The deterministic Phase A query set: derived products only (both paths
/// pay one ML dispatch per queried cell once the cache is off).
fn timing_queries(cfg: &ServeBenchConfig, ncells: usize) -> Vec<Query> {
    (0..cfg.queries)
        .map(|i| {
            let product = if i % 2 == 0 {
                Product::Precip
            } else {
                Product::T2m
            };
            Query::cell(i % cfg.members, (i * 13) % ncells, product)
        })
        .collect()
}

/// Recompute every served product from the *published checkpoint* of the
/// epoch each response claims, and demand bitwise equality. This is the
/// benchmark's correctness anchor: the fast path may not drift from the
/// model state by a single bit. Returns the number of products checked.
fn verify_against_checkpoints(
    store: &SnapshotStore,
    run: &RunConfig,
    queries: &[Query],
    responses: &[Result<Response, grist_serve::ServeError>],
) -> u64 {
    let sub = Substrate::serial();
    let mut verified = 0u64;
    for (q, r) in queries.iter().zip(responses) {
        let r = r.as_ref().expect("verification query must be served");
        let view = store
            .get(r.member, r.epoch)
            .expect("served epoch must still be in the store");
        assert_eq!(
            view.state_hash, r.state_hash,
            "response hash must be the published hash"
        );
        let mut model = GristModel::<f64>::with_substrate(run.clone(), sub.clone());
        model
            .restore(&view.checkpoint)
            .expect("published checkpoint restores");
        assert_eq!(
            model.state_hash(),
            view.state_hash,
            "checkpoint restores to the published state"
        );
        let cols = extract_columns(&mut model.solver, &model.state, &model.surface);
        match &r.data {
            ProductData::Columns(states) => {
                for (&c, s) in r.cells.iter().zip(states) {
                    let col = &cols[c];
                    assert!(
                        s.p == col.p
                            && s.t == col.t
                            && s.qv == col.qv
                            && s.u == col.u
                            && s.v == col.v
                            && s.tskin == col.tskin,
                        "served column state differs from the checkpoint at cell {c}"
                    );
                    verified += 1;
                }
            }
            ProductData::Scalars(vals) => {
                let mut suite = default_suite(run.nlev);
                suite.sub = sub.clone();
                let qcols: Vec<_> = r.cells.iter().map(|&c| cols[c].clone()).collect();
                let outs = suite.step_columns_per_column(&qcols);
                for (((col, out), &got), &c) in qcols.iter().zip(&outs).zip(vals).zip(&r.cells) {
                    let d = derive(col, out);
                    let want = match q.product {
                        Product::T2m => d.t2m,
                        _ => d.precip,
                    };
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "served {:?} at cell {c} differs from the checkpoint recompute \
                         ({got} vs {want})",
                        q.product
                    );
                    verified += 1;
                }
            }
        }
    }
    verified
}

/// Run the pinned serving benchmark and hold it to its in-run gates.
pub fn run() -> SuiteResult {
    let b = run_serve_with(ServeBenchConfig::default());
    eprintln!(
        "serve: batched/per-query speedup {:.2}x, {} products verified bitwise against \
         checkpoints; traffic p50 {:.3} ms, p99 {:.3} ms, {:.0} qps",
        b.speedup, b.verified_products, b.p50_ms, b.p99_ms, b.qps
    );
    if b.verified_products == 0 {
        return Err("the bitwise verification covered no products".into());
    }
    if b.speedup < MIN_SPEEDUP {
        return Err(format!(
            "batched speedup {:.2}x below the {MIN_SPEEDUP}x floor",
            b.speedup
        ));
    }
    Ok(b.run)
}

/// The benchmark with explicit knobs (tests use a miniature configuration).
pub fn run_serve_with(cfg: ServeBenchConfig) -> ServeBench {
    let run = RunConfig::for_level(cfg.level, cfg.nlev);

    // ---- Phase A: deterministic batched-vs-per-query measurement. ----
    // Keep every published epoch around: the recompute verifier needs the
    // source checkpoint of whatever epoch each response was served from.
    let store = Arc::new(SnapshotStore::new(cfg.members, cfg.epochs + 1));
    run_ensemble::<f64>(&ensemble_config(&cfg, &run), &store);

    let sub = Substrate::serial();
    let engine = QueryEngine::<f64>::new(
        Arc::clone(&store),
        run.clone(),
        sub.clone(),
        default_suite(run.nlev),
    )
    .with_cache(false); // every query pays its dispatch: the ratio is pure batching
    let ncells = engine.n_cells();
    let queries = timing_queries(&cfg, ncells);

    // Warm-up pays the replica restores and the scratch-arena growth once.
    for q in &queries {
        engine.serve_one_percol(q).expect("warm-up query");
    }
    let t0 = Instant::now();
    for _ in 0..cfg.iters {
        for q in &queries {
            std::hint::black_box(engine.serve_one_percol(q).expect("percol query"));
        }
    }
    let percol_s = t0.elapsed().as_secs_f64();

    for chunk in queries.chunks(cfg.serve_batch) {
        engine.serve_batch(chunk); // warm-up
    }
    let t0 = Instant::now();
    for _ in 0..cfg.iters {
        for chunk in queries.chunks(cfg.serve_batch) {
            std::hint::black_box(engine.serve_batch(chunk));
        }
    }
    let batched_s = t0.elapsed().as_secs_f64();

    let q_total = (cfg.iters * cfg.queries) as f64;
    let qps_of = |secs: f64| q_total / secs.max(1e-12);
    let speedup = qps_of(batched_s) / qps_of(percol_s).max(1e-12);

    // The verification set: the full timing set plus the non-scalar shapes
    // (raw columns, point and region selectors) so every product kind is
    // anchored to a checkpoint recompute.
    let mut verify_queries = queries.clone();
    verify_queries.push(Query::cell(0, 0, Product::ColumnState));
    verify_queries.push(Query::point(0, 0.4, 1.0, Product::T2m));
    verify_queries.push(Query {
        member: cfg.members - 1,
        select: Select::Region {
            lat: (-2.0, 2.0),
            lon: (-4.0, 4.0),
        },
        product: Product::Precip,
    });
    let responses = engine.serve_batch(&verify_queries);
    let verified_products = verify_against_checkpoints(&store, &run, &verify_queries, &responses);

    // ---- Phase B: synthetic heavy traffic against a live ensemble. ----
    let traffic_store = Arc::new(SnapshotStore::new(cfg.members, cfg.epochs + 1));
    let ensemble = spawn_ensemble::<f64>(ensemble_config(&cfg, &run), Arc::clone(&traffic_store));
    while (0..cfg.members).any(|m| traffic_store.latest(m).is_none()) {
        std::thread::yield_now();
    }
    let traffic_engine = Arc::new(QueryEngine::<f64>::new(
        Arc::clone(&traffic_store),
        run.clone(),
        Substrate::serial(),
        default_suite(run.nlev),
    ));
    let server = Arc::new(ForecastServer::start(
        Arc::clone(&traffic_engine),
        ServeConfig {
            workers: cfg.workers,
            max_batch: cfg.max_batch,
        },
    ));
    let t0 = Instant::now();
    let clients: Vec<std::thread::JoinHandle<()>> = (0..cfg.clients)
        .map(|client| {
            let server = Arc::clone(&server);
            let members = cfg.members;
            let n = cfg.client_queries;
            std::thread::spawn(move || {
                for i in 0..n {
                    let product = match (client + i) % 3 {
                        0 => Product::Precip,
                        1 => Product::T2m,
                        _ => Product::ColumnState,
                    };
                    let q = Query::cell(
                        (client + i) % members,
                        (client * 37 + i * 11) % ncells,
                        product,
                    );
                    server.query_blocking(q).expect("traffic query");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("traffic client panicked");
    }
    let wall_s = t0.elapsed().as_secs_f64();
    ensemble.join();
    // The server's own queue-to-answer histogram — the one the SLO reads,
    // so the bench and the SLO gate never disagree on what "p99" means.
    let lat =
        traffic_engine.substrate().metrics().snapshot().histograms["serve.latency_ns"].clone();
    drop(traffic_engine);
    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }
    let (p50_ms, p99_ms) = (lat.percentile_ms(0.50), lat.percentile_ms(0.99));
    let qps = lat.count as f64 / wall_s.max(1e-12);

    // ---- Assemble the pin and the wall report. ----
    let n = |x: f64| Json::Num(x);
    let projections = vec![
        ("serve.queries_per_pass".into(), cfg.queries as f64),
        (
            "serve.batches_per_pass".into(),
            cfg.queries.div_ceil(cfg.serve_batch) as f64,
        ),
        ("serve.verified_products".into(), verified_products as f64),
        (
            "serve.ensemble_publishes".into(),
            (cfg.members * (cfg.epochs + 1)) as f64,
        ),
    ];

    // Host-dependent headline numbers: the wall report.
    let report = Json::Obj(vec![
        ("percol_qps".into(), n(qps_of(percol_s))),
        ("batched_qps".into(), n(qps_of(batched_s))),
        ("speedup_batched_over_percol".into(), n(speedup)),
        ("traffic.total_queries".into(), n(lat.count as f64)),
        ("traffic.wall_s".into(), n(wall_s)),
        ("traffic.qps".into(), n(qps)),
        ("traffic.p50_ms".into(), n(p50_ms)),
        ("traffic.p99_ms".into(), n(p99_ms)),
        ("traffic.max_ms".into(), n(lat.max as f64 / 1e6)),
    ]);

    // The Phase A engine registry: its counters and kernel call/item counts
    // are deterministic.
    let snap = engine.substrate().metrics().snapshot();

    let config = Json::Obj(vec![
        ("level".into(), n(cfg.level as f64)),
        ("nlev".into(), n(cfg.nlev as f64)),
        ("members".into(), n(cfg.members as f64)),
        ("rank_pools".into(), n(cfg.rank_pools as f64)),
        ("epochs".into(), n(cfg.epochs as f64)),
        (
            "dyn_steps_per_epoch".into(),
            n(cfg.dyn_steps_per_epoch as f64),
        ),
        ("queries".into(), n(cfg.queries as f64)),
        ("serve_batch".into(), n(cfg.serve_batch as f64)),
        ("iters".into(), n(cfg.iters as f64)),
        ("workers".into(), n(cfg.workers as f64)),
        ("max_batch".into(), n(cfg.max_batch as f64)),
        ("clients".into(), n(cfg.clients as f64)),
        ("client_queries".into(), n(cfg.client_queries as f64)),
        ("perturb_scale".into(), n(cfg.perturb_scale)),
    ]);

    let run = SuiteRun::new(
        "serve",
        config,
        projections,
        &snap,
        vec![("report".into(), report)],
    );

    ServeBench {
        run,
        speedup,
        verified_products,
        p50_ms,
        p99_ms,
        qps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin::leaf;

    fn tiny() -> ServeBenchConfig {
        ServeBenchConfig {
            level: 2,
            nlev: 6,
            members: 2,
            rank_pools: 2,
            epochs: 1,
            dyn_steps_per_epoch: 1,
            queries: 12,
            serve_batch: 4,
            iters: 1,
            workers: 2,
            max_batch: 4,
            clients: 2,
            client_queries: 6,
            perturb_scale: 1e-6,
        }
    }

    #[test]
    fn run_verifies_every_product_kind_and_reports_traffic() {
        let b = run_serve_with(tiny());
        assert!(b.speedup.is_finite() && b.speedup > 0.0);
        assert!(b.qps > 0.0 && b.p50_ms >= 0.0 && b.p99_ms >= b.p50_ms);
        // The verification set covered the timing queries plus the column,
        // point, and region extras.
        assert!(b.verified_products as usize > tiny().queries);
        // Latency and throughput are in the wall report and nowhere in the pin.
        let report = b.run.wall.get("report").unwrap();
        assert_eq!(
            report.get("traffic.p99_ms").and_then(Json::as_f64),
            Some(b.p99_ms)
        );
        assert_eq!(
            report.get("traffic.qps").and_then(Json::as_f64),
            Some(b.qps)
        );
        let pinned = b.run.pin.diagnostics.iter().map(|(k, _)| k.as_str());
        assert_eq!(
            pinned.collect::<Vec<_>>(),
            [
                "serve.queries_per_pass",
                "serve.batches_per_pass",
                "serve.verified_products",
                "serve.ensemble_publishes"
            ]
        );
    }

    /// The registry histogram's percentile and the sort-and-index
    /// estimator use the same rank convention, so on a
    /// seeded sample they land in the same bucket — exactly equal once the
    /// sample is quantized to bucket lower bounds, and within the layout's
    /// 1/16 relative quantization on raw values.
    #[test]
    fn histogram_percentiles_agree_with_sort_and_index_on_a_seeded_sample() {
        use sunway_sim::{bucket_index, bucket_lo, Histogram};
        // The sort-and-index estimator, kept as the reference.
        fn sort_index(sorted: &[u64], p: f64) -> u64 {
            sorted[((sorted.len() - 1) as f64 * p).round() as usize]
        }
        let mut x = 0x0123_4567_89ab_cdefu64;
        let mut sample: Vec<u64> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 200_000_000 // ns-scale latencies up to 200 ms
            })
            .collect();
        let mut snap = Histogram::default();
        for &v in &sample {
            snap.record(v);
        }
        sample.sort_unstable();
        for p in [0.50, 0.90, 0.99] {
            let reference = sort_index(&sample, p);
            let got = snap.percentile(p);
            assert_eq!(
                got,
                bucket_lo(bucket_index(reference)),
                "p{p}: same rank, same bucket"
            );
            assert!(
                got <= reference && (reference - got) as f64 <= reference as f64 / 16.0,
                "p{p}: {got} vs {reference} exceeds the 1/16 quantization bound"
            );
        }
        // Pre-quantized sample (bucket_lo∘bucket_index is monotone, so the
        // sorted order survives): the two methods agree exactly.
        let quantized: Vec<u64> = sample.iter().map(|&v| bucket_lo(bucket_index(v))).collect();
        let mut snap2 = Histogram::default();
        for &v in &quantized {
            snap2.record(v);
        }
        for p in [0.0, 0.50, 0.90, 0.99, 1.0] {
            assert_eq!(snap2.percentile(p), sort_index(&quantized, p), "p{p}");
        }
    }

    #[test]
    fn two_runs_pin_equal_and_batching_saves_calls_not_work() {
        let cfg = tiny();
        let a = run_serve_with(cfg);
        assert_eq!(a.run.pin, run_serve_with(cfg).run.pin);
        // Both passes dispatched the same ML cells: the batched path saves
        // calls, never work.
        assert_eq!(
            leaf(
                &a.run.pin.counters,
                "kernel.serve_percol/ml/ml_physics_columns.items"
            ),
            ((cfg.iters + 1) * cfg.queries) as u64,
            "one per-column dispatch per query per pass"
        );
        let batches = leaf(&a.run.pin.counters, "serve.batches");
        assert!(
            batches < leaf(&a.run.pin.counters, "serve.queries"),
            "batching happened: {batches} batches"
        );
    }
}
