//! Cross-crate acceptance tests for the event-tracing subsystem: a traced
//! resilient multi-rank run exporting Perfetto-loadable Chrome JSON with
//! per-rank lanes (halo waits and fault injections included), bitwise
//! agreement between the `ml.flops_*` counters and the exact GEMM op
//! accounting, CPE chunk-lane rank attribution, ring bounds under the
//! epoch toggle, and the end-to-end report of a coupled model's trace.

use grist_core::{GristModel, MlSuite, RunConfig, DEFAULT_ML_BLOCK};
use grist_mesh::{HaloLayout, HexMesh, Partition};
use grist_physics::Column;
use grist_runtime::{halo_fault_key, run_world, ExchangeCtx, VarList};
use sunway_sim::{
    analyze, dispatch_fault_key, trace, validate_chrome, EventKind, FaultPlan, FaultSite, Json,
    Metrics, Substrate,
};

const RANKS: usize = 4;
const NLEV: usize = 8;

/// `grist trace`'s scenario in miniature: every rank drives a
/// resilient ML-physics window on its own CPE-teams substrate over one
/// shared registry, under a dispatch-fault storm with one pinned
/// degrade-to-serial fault per rank, then swaps halos once with a pinned
/// in-flight truncation.
fn run_traced_world() -> Metrics {
    let metrics = Metrics::default();
    metrics.tracer().enable();

    let mesh = HexMesh::build(3);
    let partition = Partition::build(&mesh, RANKS, 2);
    let layout = HaloLayout::build(&mesh, &partition, 1);
    let n = mesh.n_cells();
    let victim = layout
        .locales
        .iter()
        .find(|l| !l.recv.is_empty())
        .expect("some rank has halos");
    let (vrank, vsrc) = (victim.rank, victim.recv[0].0);
    let halo_plan = FaultPlan::new(42).pin(FaultSite::HaloExchange, halo_fault_key(vrank, vsrc, 7));

    let metrics_ref = &metrics;
    run_world(RANKS, move |mut ctx| {
        trace::set_thread_rank(ctx.rank as u32);
        let sub = Substrate::cpe_teams_with_metrics(8, metrics_ref.clone());
        sub.arm_faults(
            FaultPlan::new(42 + ctx.rank as u64)
                .with_rate(FaultSite::Dispatch, 0.02)
                .pin(FaultSite::Dispatch, dispatch_fault_key("hevi_mass_flux", 0)),
        );
        let cfg = RunConfig::for_level(2, NLEV).with_ml_physics(true);
        let window = cfg.dt_dyn * cfg.dyn_per_phy() as f64;
        let mut model = GristModel::<f64>::with_substrate(cfg, sub);
        model.advance_resilient(window);

        let locale = &layout.locales[ctx.rank];
        let mut h = vec![0.0f64; n * NLEV];
        let mut list = VarList::new();
        list.push("h", NLEV, &mut h);
        let xctx = ExchangeCtx {
            metrics: Some(metrics_ref),
            plan: Some(&halo_plan),
        };
        let r = xctx.exchange(&mut ctx, locale, &mut list, 7);
        assert_eq!(r.is_err(), ctx.rank == vrank, "only the victim rank fails");
    });
    metrics.tracer().disable();
    metrics
}

#[test]
fn traced_resilient_world_exports_valid_perfetto_json_with_attribution() {
    let metrics = run_traced_world();
    let snap = metrics.tracer().snapshot();

    // Per-rank process lanes with the acceptance events present.
    assert!(snap.ranks().len() >= RANKS, "ranks: {:?}", snap.ranks());
    assert!(snap.count_kind(EventKind::HaloWait) > 0, "no halo waits");
    assert!(snap.count_kind(EventKind::HaloExchange) > 0);
    assert!(
        snap.count_kind(EventKind::Fault) >= 1,
        "no fault injections"
    );
    assert!(
        snap.count_kind(EventKind::Degradation) >= 1,
        "pinned dispatch faults must force degrade-to-serial"
    );
    assert!(snap.count_kind(EventKind::Chunk) > 0, "no CPE chunk lanes");

    // The export validates, and survives a serialize -> parse round trip
    // with identical stats (what a Perfetto load would see).
    let stats = validate_chrome(&snap.to_chrome_json()).expect("schema-valid trace");
    assert!(stats.ranks >= RANKS);
    assert_eq!(stats.begins, stats.ends, "balanced B/E");
    let reparsed = Json::parse(&snap.to_chrome_string()).expect("chrome JSON parses");
    assert_eq!(validate_chrome(&reparsed).expect("round trip"), stats);

    // Attribution: the exact ML FLOP counter flows through to the report
    // row bitwise, the halo split and rank loads are populated.
    let batched = metrics.counter("ml.flops_batched");
    assert!(batched > 0, "ML physics must tick the exact FLOP counter");
    let report = analyze(&snap, &MlSuite::flops_by_kernel(&metrics));
    let ml = report
        .kernels
        .iter()
        .find(|k| k.name.ends_with("/ml_physics_blocks"))
        .expect("ML kernel attributed");
    assert_eq!(ml.flops, Some(batched), "bitwise FLOP attribution");
    assert!(ml.gflops.is_some());
    assert!(report.halo.waits > 0);
    assert!(report.halo.wait_ns + report.halo.transfer_ns <= report.halo.total_ns + 1);
    assert_eq!(report.ranks.len(), snap.ranks().len());
    assert!(report.imbalance >= 1.0);

    // The report document round-trips its schema tag.
    let doc = Json::parse(&report.to_json().pretty()).expect("report JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("grist-trace-report-v2")
    );
}

#[test]
fn ml_flops_counters_match_exact_gemm_accounting_bitwise() {
    let metrics = Metrics::default();
    metrics.tracer().enable();
    let mut suite = MlSuite::untrained(12, 16, 0xB10C);
    suite.sub = Substrate::serial_with_metrics(metrics.clone());
    let n = 2 * DEFAULT_ML_BLOCK + 5; // multi-block with a tail
    let cols: Vec<Column> = (0..n).map(|_| Column::reference(12)).collect();

    suite.step_columns(&cols);
    let expected: u64 = (0..n.div_ceil(DEFAULT_ML_BLOCK))
        .map(|bi| {
            let lo = bi * DEFAULT_ML_BLOCK;
            suite.batch_flops((lo + DEFAULT_ML_BLOCK).min(n) - lo)
        })
        .sum();
    assert_eq!(
        metrics.counter("ml.flops_batched"),
        expected,
        "counter must equal the summed per-block GEMM accounting bitwise"
    );

    suite.step_columns_per_column(&cols);
    assert_eq!(
        metrics.counter("ml.flops_percol"),
        n as u64 * suite.flops_per_column()
    );

    // And the analyzer hands the exact totals to the matching kernel rows.
    let report = analyze(
        &metrics.tracer().snapshot(),
        &MlSuite::flops_by_kernel(&metrics),
    );
    let row = report
        .kernels
        .iter()
        .find(|k| k.name.ends_with("ml_physics_blocks"))
        .expect("batched kernel traced");
    assert_eq!(row.flops, Some(expected));
}

#[test]
fn cpe_chunk_lanes_attribute_to_the_dispatching_rank() {
    let metrics = Metrics::default();
    metrics.tracer().enable();
    trace::set_thread_rank(9);
    let sub = Substrate::cpe_teams_with_metrics(4, metrics.clone());
    sub.run_cols("stencil", &mut [(); 1_000][..], |_, _| {});
    let snap = metrics.tracer().snapshot();

    assert!(snap.count_kind(EventKind::Kernel) >= 1);
    let chunks = snap.count_kind(EventKind::Chunk);
    assert!(chunks > 1, "offload target must trace worker chunks");
    // Every lane — driver and CPE workers alike — carries the driver's rank.
    for lane in &snap.lanes {
        assert_eq!(lane.rank, 9, "lane {} ({})", lane.thread, lane.label);
    }
    // Chunks land on worker lanes, not the driver's.
    let driver_lane = trace::thread_lane();
    assert!(snap
        .lanes
        .iter()
        .filter(|l| l.thread != driver_lane)
        .any(|l| l.events.iter().any(|e| e.kind == EventKind::Chunk)));
    // Chunk items sum back to the dispatch size.
    let items: u64 = snap
        .lanes
        .iter()
        .flat_map(|l| &l.events)
        .filter(|e| e.kind == EventKind::Chunk)
        .map(|e| e.items)
        .sum();
    assert_eq!(items, 1_000);
}

#[test]
fn ring_bounds_hold_and_epoch_toggle_discards_cheaply() {
    let metrics = Metrics::default();
    let sub = Substrate::serial_with_metrics(metrics.clone());

    // Off by default: nothing recorded.
    sub.run_cols("warm", &mut [(); 4][..], |_, _| {});
    assert_eq!(metrics.tracer().snapshot().total_events(), 0);

    // Tiny rings: events bounded per lane, eviction counted.
    metrics.tracer().enable_with_capacity(8);
    for _ in 0..100 {
        sub.run_cols("k", &mut [(); 4][..], |_, _| {});
    }
    let snap = metrics.tracer().snapshot();
    assert!(snap.lanes.iter().all(|l| l.events.len() <= 8));
    assert!(snap.dropped > 0, "eviction must be accounted");

    // Disable: recording stops but the rings stay readable.
    metrics.tracer().disable();
    let kept = metrics.tracer().snapshot().total_events();
    sub.run_cols("k", &mut [(); 4][..], |_, _| {});
    assert_eq!(metrics.tracer().snapshot().total_events(), kept);

    // Re-enable: a fresh epoch discards the old rings.
    metrics.tracer().enable();
    sub.run_cols("fresh", &mut [(); 4][..], |_, _| {});
    let snap = metrics.tracer().snapshot();
    assert!(snap
        .lanes
        .iter()
        .flat_map(|l| &l.events)
        .all(|e| !e.name.contains("/k")));
    assert_eq!(snap.dropped, 0);
}

#[test]
fn grist_model_trace_report_runs_end_to_end() {
    let cfg = RunConfig::for_level(2, NLEV).with_ml_physics(true);
    let window = cfg.dt_dyn * cfg.dyn_per_phy() as f64;
    let mut model = GristModel::<f64>::with_substrate(cfg, Substrate::cpe_teams(8));
    model.metrics().tracer().enable();
    model.advance(window);
    let metrics = model.metrics();
    let report = analyze(
        &metrics.tracer().snapshot(),
        &MlSuite::flops_by_kernel(metrics),
    );
    assert!(report.wall_ns > 0);
    assert!(!report.kernels.is_empty());
    let ml = report
        .kernels
        .iter()
        .find(|k| k.name.ends_with("/ml_physics_blocks"))
        .expect("ML kernel attributed via the ml.flops_* counters");
    assert_eq!(ml.flops, Some(metrics.counter("ml.flops_batched")));
    assert!(ml.gflops.is_some());
}
