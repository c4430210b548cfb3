//! The telemetry-plane scenario behind the `obs_report` binary and the CI
//! `obs` job: drive the full observed stack — an ensemble advancing under
//! an [`EnsembleConfig`] that carries the [`ObsPlane`], threaded clients
//! hammering a [`grist_serve::ForecastServer`] started on an engine with
//! the same plane attached, and a
//! 2-rank overlapped shallow-water step feeding halo-wait stalls through
//! [`ObsPlane::absorb_trace`] — then hold the plane to the issue's two
//! quantitative gates:
//!
//! * **Disabled-path overhead** — a tight probe loop times one fully
//!   disabled `mint + record latency + record batch` sequence (the cost
//!   every untelemetered query pays) and gates it at ≤ 1% of the measured
//!   serve p50.
//! * **Percentile reproducibility** — every percentile printed in the
//!   `grist-obs-v1` dashboard must be recomputable **bitwise** from the
//!   dashboard's own bucket counts: the document is re-parsed through
//!   [`HistSnapshot::from_json`] and each p50/p90/p99 is compared bit for
//!   bit against the embedded value.
//!
//! The scenario itself is the smallest configuration that exercises every
//! series: all four histograms non-empty, health samples flowing, the SLO
//! evaluated after every batch.

use std::sync::Arc;
use std::time::Instant;

use grist_core::{DynStepMode, RunConfig};
use grist_dycore::swe::{williamson_tc2, SwePhases, SweSolver};
use grist_mesh::{HaloLayout, HexMesh, Partition};
use grist_obs::{HistSnapshot, ObsPlane};
use grist_runtime::run_world;
use grist_serve::{
    default_suite, spawn_ensemble, EnsembleConfig, ForecastServer, PoolTarget, Product, Query,
    QueryEngine, ServeConfig, SnapshotStore,
};
use sunway_sim::{trace, Json, Metrics, Substrate};

/// Acceptance gate: the disabled plane may cost at most this share of the
/// measured serve p50 per query.
pub const MAX_OVERHEAD_PCT: f64 = 1.0;

/// One observed-scenario run's knobs (`run_obs` pins them; tests shrink
/// them).
#[derive(Debug, Clone, Copy)]
pub struct ObsBenchConfig {
    pub level: u32,
    pub nlev: usize,
    pub members: usize,
    pub rank_pools: usize,
    pub epochs: usize,
    pub dyn_steps_per_epoch: usize,
    pub workers: usize,
    pub max_batch: usize,
    pub clients: usize,
    pub client_queries: usize,
    pub perturb_scale: f64,
    /// Ranks in the halo-wait phase (overlapped shallow-water steps).
    pub halo_ranks: usize,
    pub halo_level: u32,
    pub halo_steps: usize,
    /// Iterations of the disabled-path probe loop.
    pub overhead_iters: u64,
}

impl Default for ObsBenchConfig {
    fn default() -> Self {
        ObsBenchConfig {
            level: 2,
            nlev: 10,
            members: 3,
            rank_pools: 2,
            epochs: 2,
            dyn_steps_per_epoch: 2,
            workers: 4,
            max_batch: 16,
            clients: 4,
            client_queries: 50,
            perturb_scale: 1e-5,
            halo_ranks: 2,
            halo_level: 3,
            halo_steps: 4,
            overhead_iters: 2_000_000,
        }
    }
}

/// What the scenario produced: the plane itself (still live), the exported
/// dashboard, and the two gate measurements.
pub struct ObsBench {
    pub plane: Arc<ObsPlane>,
    /// The `grist-obs-v1` document.
    pub dashboard: Json,
    /// The human summary.
    pub markdown: String,
    /// Measured disabled-path cost of one mint + two records, nanoseconds.
    pub disabled_ns_per_query: f64,
    /// Serve latency p50 the overhead is measured against, nanoseconds.
    pub p50_ns: u64,
    /// `disabled_ns_per_query / p50_ns` as a percentage.
    pub overhead_pct: f64,
    /// (histogram, percentile) pairs the reproducibility check verified.
    pub percentiles_verified: u64,
}

/// Re-derive every percentile embedded in a dashboard from that dashboard's
/// own bucket counts and demand bitwise equality. Returns the number of
/// (histogram, percentile) pairs checked; any mismatch or malformed
/// histogram is an error.
pub fn verify_percentiles_reproducible(dashboard: &Json) -> Result<u64, String> {
    let hists = dashboard
        .get("histograms")
        .and_then(Json::as_obj)
        .ok_or("dashboard has no histograms section")?;
    let mut checked = 0u64;
    for (name, doc) in hists {
        let snap = HistSnapshot::from_json(doc).map_err(|e| format!("{name}: {e}"))?;
        let pcts = doc
            .get("percentiles")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{name}: no percentiles"))?;
        for (key, p) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            let embedded = pcts
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_f64())
                .ok_or_else(|| format!("{name}: no {key}"))?;
            let recomputed = snap.percentile(p) as f64;
            if recomputed.to_bits() != embedded.to_bits() {
                return Err(format!(
                    "{name} {key}: embedded {embedded} != recomputed-from-buckets {recomputed}"
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Time one fully disabled mint + record-latency + record-batch sequence —
/// the exact per-query cost an untelemetered server pays — in nanoseconds.
pub fn measure_disabled_path_ns(iters: u64) -> f64 {
    let off = ObsPlane::disabled();
    let off = std::hint::black_box(&off);
    let t0 = Instant::now();
    for i in 0..iters {
        let id = off.mint_trace_id();
        off.record_serve_latency_ns(i);
        off.record_batch_size(1);
        std::hint::black_box(id);
    }
    t0.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// The halo-wait phase: a small overlapped shallow-water run on a shared
/// traced registry, whose `HaloWait` stalls the plane absorbs.
fn feed_halo_waits(cfg: &ObsBenchConfig, plane: &ObsPlane) {
    let metrics = Metrics::default();
    metrics.tracer().enable_with_capacity(1 << 16);
    let mesh = HexMesh::build(cfg.halo_level);
    let partition = Partition::build(&mesh, cfg.halo_ranks, 2);
    let layout = HaloLayout::build(&mesh, &partition, 2);
    let (layout, metrics_ref, level, steps) = (&layout, &metrics, cfg.halo_level, cfg.halo_steps);
    run_world(cfg.halo_ranks, move |mut ctx| {
        trace::set_thread_rank(ctx.rank as u32);
        let mesh = HexMesh::build(level);
        let locale = &layout.locales[ctx.rank];
        let split = locale.phase_split(&mesh, 1);
        let sub = Substrate::serial_with_metrics(metrics_ref.clone());
        let mut solver = SweSolver::<f64>::with_substrate(mesh, sub);
        let phases = SwePhases::build(&solver.mesh, &split.interior_cells);
        let mut state = williamson_tc2::<f64>(&solver.mesh);
        for step in 0..steps {
            grist_core::swe_dyn_step(
                &mut solver,
                &mut state,
                400.0,
                &mut ctx,
                locale,
                &phases,
                100 + step as u32,
                DynStepMode::Overlapped,
                Some(metrics_ref),
                None,
            )
            .expect("fault-free exchange");
        }
    });
    metrics.tracer().disable();
    plane.absorb_trace(&metrics.tracer().snapshot());
}

/// Run the pinned observed scenario.
pub fn run_obs() -> ObsBench {
    run_obs_with(ObsBenchConfig::default())
}

/// [`run_obs`] with explicit knobs.
pub fn run_obs_with(cfg: ObsBenchConfig) -> ObsBench {
    let run = RunConfig::for_level(cfg.level, cfg.nlev);
    let plane = Arc::new(ObsPlane::default());

    // ---- Observed ensemble + observed traffic, concurrently. ----
    let store = Arc::new(SnapshotStore::new(cfg.members, cfg.epochs + 1));
    let ensemble = spawn_ensemble::<f64>(
        EnsembleConfig {
            members: cfg.members,
            rank_pools: cfg.rank_pools,
            epochs: cfg.epochs,
            dyn_steps_per_epoch: cfg.dyn_steps_per_epoch,
            run: run.clone(),
            perturb_scale: cfg.perturb_scale,
            target: PoolTarget::Serial,
            obs: Some(Arc::clone(&plane)),
        },
        Arc::clone(&store),
    );
    while (0..cfg.members).any(|m| store.latest(m).is_none()) {
        std::thread::yield_now();
    }
    let engine = Arc::new(
        QueryEngine::<f64>::new(
            Arc::clone(&store),
            run.clone(),
            Substrate::serial(),
            default_suite(run.nlev),
        )
        .with_obs(Arc::clone(&plane)),
    );
    let ncells = engine.n_cells();
    let server = Arc::new(ForecastServer::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: cfg.workers,
            max_batch: cfg.max_batch,
        },
    ));
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
                        (client * 29 + i * 7) % ncells,
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
    ensemble.join();
    drop(engine);
    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }

    // ---- Halo-wait stalls from a real overlapped exchange. ----
    feed_halo_waits(&cfg, &plane);

    // ---- Disabled-path overhead probe. ----
    let disabled_ns_per_query = measure_disabled_path_ns(cfg.overhead_iters);
    let lat = plane.serve_latency_snapshot();
    let p50_ns = lat.percentile(0.50);
    let overhead_pct = if p50_ns > 0 {
        disabled_ns_per_query / p50_ns as f64 * 100.0
    } else {
        f64::INFINITY
    };

    // ---- Final SLO evaluation + export. ----
    plane.evaluate_slo();
    let dashboard = plane.dashboard();
    let markdown = plane.to_markdown();
    let percentiles_verified = verify_percentiles_reproducible(&dashboard)
        .expect("dashboard percentiles must be reproducible from bucket counts");

    ObsBench {
        plane,
        dashboard,
        markdown,
        disabled_ns_per_query,
        p50_ns,
        overhead_pct,
        percentiles_verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ObsBenchConfig {
        ObsBenchConfig {
            level: 2,
            nlev: 6,
            members: 2,
            rank_pools: 2,
            epochs: 1,
            dyn_steps_per_epoch: 1,
            workers: 2,
            max_batch: 4,
            clients: 2,
            client_queries: 8,
            perturb_scale: 1e-6,
            halo_ranks: 2,
            halo_level: 2,
            halo_steps: 2,
            overhead_iters: 200_000,
        }
    }

    #[test]
    fn scenario_fills_every_series_and_passes_both_gates() {
        let b = run_obs_with(tiny());
        let cfg = tiny();
        let total = (cfg.clients * cfg.client_queries) as u64;
        assert_eq!(b.plane.serve_latency_snapshot().count, total);
        assert_eq!(b.plane.batch_size_snapshot().sum, total);
        assert_eq!(
            b.plane.epoch_advance_snapshot().count,
            (cfg.members * cfg.epochs) as u64
        );
        assert!(
            b.plane.halo_wait_snapshot().count > 0,
            "no halo-wait stalls absorbed"
        );
        assert_eq!(
            b.plane.watch().ingested(),
            (cfg.members * cfg.epochs) as u64
        );
        assert_eq!(
            b.plane.watch().alert_count(),
            0,
            "{:?}",
            b.plane.watch().alerts()
        );
        assert!(b.plane.last_slo_status().expect("slo evaluated").ok());
        // The two acceptance gates.
        assert_eq!(b.percentiles_verified, 12, "4 histograms x 3 percentiles");
        assert!(
            b.overhead_pct <= MAX_OVERHEAD_PCT,
            "disabled path costs {:.3} ns/query = {:.4}% of p50 ({} ns)",
            b.disabled_ns_per_query,
            b.overhead_pct,
            b.p50_ns
        );
    }

    #[test]
    fn reproducibility_check_rejects_a_doctored_dashboard() {
        let p = ObsPlane::default();
        p.record_serve_latency_ns(2_000_000);
        p.record_batch_size(4);
        let good = p.dashboard();
        assert_eq!(verify_percentiles_reproducible(&good).unwrap(), 12);
        // Doctor one embedded percentile and the check must fail.
        fn doctor(v: &mut Json) {
            if let Json::Obj(fields) = v {
                for (k, val) in fields.iter_mut() {
                    if k == "p99" {
                        *val = Json::Num(12345.0);
                        return;
                    }
                    doctor(val);
                }
            }
        }
        let mut bad = good.clone();
        doctor(&mut bad);
        assert!(verify_percentiles_reproducible(&bad).is_err());
    }

    #[test]
    fn disabled_path_probe_reports_nanosecond_scale_costs() {
        let ns = measure_disabled_path_ns(100_000);
        assert!(ns > 0.0 && ns < 1_000.0, "implausible probe: {ns} ns");
    }
}
