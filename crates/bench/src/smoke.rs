//! The pinned smoke suite behind `BENCH_smoke.json`: a miniature pass over
//! the repo's three evaluation axes (Fig. 9 kernel model, Fig. 10/11 scaling
//! projections, and the live coupled model on the CPE-teams substrate),
//! every knob pinned so the pin is reproducible.
//!
//! Everything except wall-clock nanoseconds is deterministic — kernel call /
//! item counts, the `dma.*` / `ldcache.*` / `alloc.*` hardware-model
//! counters, the `halo.*` exchange counters, and the analytic SDPD
//! projections — and is
//! pinned exactly (see [`crate::pin`]). The one thing a clock decides here
//! is the in-run tracing budget: [`run`] fails when compiled-in but disabled
//! tracing costs [`TRACE_OFF_BUDGET_PCT`] of the smoke window or more.

use grist_core::{GristModel, RunConfig};
use grist_dycore::hevi::DYN_KERNELS;
use grist_dycore::tracer::FCT_KERNELS;
use grist_mesh::{HaloLayout, HexMesh, Partition};
use grist_runtime::{run_world, ExchangeCtx, VarList};
use sunway_model::dma::{simulate_dma_batch, DmaRequest};
use sunway_model::perf::{kernel_time, Domain, ExecTarget};
use sunway_model::scaling::{table2_grids, weak_scaling_ladder, Scheme, SdpdModel};
use sunway_model::SunwaySpec;
use sunway_sim::{Json, Metrics, MetricsSnapshot, Substrate};

use crate::pin::{SuiteResult, SuiteRun};

/// In-run gate: compiled-in but disabled tracing may cost at most this share
/// of the smoke window.
pub const TRACE_OFF_BUDGET_PCT: f64 = 1.0;

/// Pinned smoke configuration — changing any of these invalidates the
/// committed pin, so re-pin it (`grist gate smoke --update`) when you do.
pub const SMOKE_LEVEL: u32 = 2;
pub const SMOKE_NLEV: usize = 10;
pub const SMOKE_CPES: usize = 16;
pub const SMOKE_DYN_STEPS: usize = 16;
/// Fig. 9 model domain: the G6 grid of the paper's 100 km demo case, 30
/// levels.
pub const FIG9_DOMAIN: Domain = Domain {
    cells: 40_962,
    edges: 122_880,
    verts: 81_920,
    nlev: 30,
};
/// Halo-exchange smoke world.
pub const HALO_RANKS: usize = 4;
pub const HALO_MESH_LEVEL: u32 = 3;

/// Run the full smoke suite, then the tracing-overhead probe and its gate.
pub fn run() -> SuiteResult {
    let config = RunConfig::for_level(SMOKE_LEVEL, SMOKE_NLEV);

    // --- live coupled model on the CPE-teams substrate (kernel section) ---
    let mut model =
        GristModel::<f64>::with_substrate(config.clone(), Substrate::cpe_teams(SMOKE_CPES));
    model.advance(SMOKE_DYN_STEPS as f64 * config.dt_dyn);
    let mut snap = model.metrics_snapshot();

    // --- hardware-model smokes, recorded into a second registry ---
    let extra = Metrics::default();
    let spec = SunwaySpec::next_gen();

    // Fig. 9: modeled kernel times for every executed kernel × target,
    // metered so the LDCache/allocator simulators fill `ldcache.*` /
    // `alloc.*`.
    let mut projections: Vec<(String, f64)> = Vec::new();
    for k in DYN_KERNELS.iter().chain(&FCT_KERNELS) {
        for target in ExecTarget::fig9_all() {
            let t = kernel_time(k, &FIG9_DOMAIN, target, &spec, Some(&extra));
            projections.push((format!("fig9.{}.{}_s", k.name, target.label()), t));
        }
    }

    // DMA engine: the DMA-aware copy's batch shape (64 CPEs × 192 KB).
    let reqs: Vec<DmaRequest> = (0..64)
        .map(|cpe| DmaRequest {
            cpe,
            bytes: 192 * 1024,
            issue_t: 0.0,
        })
        .collect();
    simulate_dma_batch(&spec, &reqs, Some(&extra));

    // Halo exchange: a 4-rank world swapping a two-variable gather list,
    // metered into `halo.*` (the registry is shared across rank threads).
    {
        let mesh = HexMesh::build(HALO_MESH_LEVEL);
        let partition = Partition::build(&mesh, HALO_RANKS, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        let metrics = &extra;
        run_world(HALO_RANKS, |mut ctx| {
            let locale = &layout.locales[ctx.rank];
            let mut h = vec![0.0f64; n * SMOKE_NLEV];
            let mut u = vec![0.0f64; n * SMOKE_NLEV];
            let mut list = VarList::new();
            list.push("h", SMOKE_NLEV, &mut h);
            list.push("u", SMOKE_NLEV, &mut u);
            let xctx = ExchangeCtx {
                metrics: Some(metrics),
                plan: None,
            };
            xctx.exchange(&mut ctx, locale, &mut list, 1)
                .expect("uniform smoke lists")
        });
    }

    // Fig. 10: the weak-scaling ladder under the full MIX-ML scheme.
    let sdpd = SdpdModel::new(&DYN_KERNELS, &FCT_KERNELS);
    let grids = table2_grids();
    let mix_ml = Scheme {
        mixed: true,
        ml_physics: true,
    };
    for (label, procs) in weak_scaling_ladder() {
        let grid = grids
            .iter()
            .find(|g| g.label == label)
            .expect("ladder grid present in Table 2");
        let r = sdpd.project(grid, mix_ml, procs);
        projections.push((format!("sdpd.weak.{label}.p{procs}"), r.sdpd));
        projections.push((format!("commfrac.weak.{label}.p{procs}"), r.comm_fraction));
    }

    // Fig. 11: strong scaling of the G6 grid across every Table-3 scheme.
    let g6 = grids
        .iter()
        .find(|g| g.label == "G6")
        .expect("G6 in Table 2");
    for procs in [64usize, 256, 1024] {
        for scheme in Scheme::all() {
            let r = sdpd.project(g6, scheme, procs);
            projections.push((
                format!("sdpd.strong.G6.{}.p{procs}", scheme.label()),
                r.sdpd,
            ));
        }
    }

    // Merge the hardware-model registry into the model snapshot (counter
    // namespaces are summed; the extra registry records no kernels/spans).
    merge_snapshots(&mut snap, &extra.snapshot());

    projections.sort_by(|a, b| a.0.cmp(&b.0));

    // Deliberately after the pinned window, on registries of its own: the
    // pin is the same whether or not the probe runs.
    let (off_pct, trace) = trace_overhead();
    eprintln!("smoke: tracing-disabled overhead {off_pct:.4}% (budget {TRACE_OFF_BUDGET_PCT}%)");
    if off_pct.is_nan() || off_pct >= TRACE_OFF_BUDGET_PCT {
        return Err(format!(
            "disabled tracing costs {off_pct:.4}% of the smoke window, \
             budget {TRACE_OFF_BUDGET_PCT}%"
        ));
    }
    Ok(SuiteRun::new(
        "smoke",
        config_json(&config),
        projections,
        &snap,
        vec![("trace".into(), trace)],
    ))
}

/// Tracing-overhead measurement: `overhead_off_pct` and the wall report's
/// `trace` section around it.
///
/// The headline number is the cost of *compiled-in but disabled* tracing,
/// estimated robustly instead of by differencing two noisy wall times: a
/// tight probe measures the disabled fast path (one relaxed atomic load) in
/// ns/event, a traced window counts how many events the workload would
/// record, and the product over the untraced window's wall time bounds the
/// disabled overhead. `overhead_on_pct` (the full cost of recording) is
/// reported for context but is wall-vs-wall and therefore noisy; only the
/// `off` number is gated ([`TRACE_OFF_BUDGET_PCT`], in [`run`]).
fn trace_overhead() -> (f64, Json) {
    const PROBE_CALLS: u64 = 4_000_000;

    // (a) Disabled fast path in isolation: `Tracer::begin` is the guard
    // every instrumented site runs first, and when tracing is off it is the
    // *only* thing that runs.
    let probe = Metrics::default();
    let tracer = probe.tracer();
    let t0 = std::time::Instant::now();
    for _ in 0..PROBE_CALLS {
        std::hint::black_box(tracer.begin());
    }
    let off_ns_per_event = t0.elapsed().as_nanos() as f64 / PROBE_CALLS as f64;

    // (b) The smoke model window, untraced and traced. The traced run also
    // yields the event count (recorded + evicted) the workload generates.
    let run_window = |traced: bool| -> (f64, u64) {
        let metrics = Metrics::default();
        if traced {
            metrics.tracer().enable();
        }
        let config = RunConfig::for_level(SMOKE_LEVEL, SMOKE_NLEV);
        let mut model = GristModel::<f64>::with_substrate(
            config.clone(),
            Substrate::cpe_teams_with_metrics(SMOKE_CPES, metrics.clone()),
        );
        let t0 = std::time::Instant::now();
        model.advance(SMOKE_DYN_STEPS as f64 * config.dt_dyn);
        let wall = t0.elapsed().as_secs_f64();
        let snap = metrics.tracer().snapshot();
        (wall, snap.total_events() as u64 + snap.dropped)
    };
    let (wall_off, _) = run_window(false);
    let (wall_on, events) = run_window(true);

    let overhead_off_pct = off_ns_per_event * events as f64 / (wall_off * 1e9) * 100.0;
    let overhead_on_pct = (wall_on - wall_off) / wall_off * 100.0;
    let section = Json::Obj(vec![
        ("probe_calls".into(), Json::Num(PROBE_CALLS as f64)),
        ("off_ns_per_event".into(), Json::Num(off_ns_per_event)),
        ("events_per_window".into(), Json::Num(events as f64)),
        ("window_off_ms".into(), Json::Num(wall_off * 1e3)),
        ("window_on_ms".into(), Json::Num(wall_on * 1e3)),
        ("overhead_off_pct".into(), Json::Num(overhead_off_pct)),
        ("overhead_on_pct".into(), Json::Num(overhead_on_pct)),
    ]);
    (overhead_off_pct, section)
}

/// Fold `extra` into `base` (sum on key collision in every section).
pub fn merge_snapshots(base: &mut MetricsSnapshot, extra: &MetricsSnapshot) {
    for (k, s) in &extra.kernels {
        let e = base.kernels.entry(k.clone()).or_default();
        e.calls += s.calls;
        e.nanos += s.nanos;
        e.items += s.items;
    }
    for (k, s) in &extra.spans {
        let e = base.spans.entry(k.clone()).or_default();
        e.calls += s.calls;
        e.nanos += s.nanos;
    }
    for (k, &v) in &extra.counters {
        *base.counters.entry(k.clone()).or_default() += v;
    }
    for (k, h) in &extra.histograms {
        base.histograms.entry(k.clone()).or_default().merge(h);
    }
}

fn config_json(config: &RunConfig) -> Json {
    let n = |x: f64| Json::Num(x);
    Json::Obj(vec![
        ("level".into(), n(SMOKE_LEVEL as f64)),
        ("nlev".into(), n(SMOKE_NLEV as f64)),
        ("n_cpes".into(), n(SMOKE_CPES as f64)),
        ("dyn_steps".into(), n(SMOKE_DYN_STEPS as f64)),
        ("dt_dyn".into(), n(config.dt_dyn)),
        ("fig9_cells".into(), n(FIG9_DOMAIN.cells as f64)),
        ("fig9_edges".into(), n(FIG9_DOMAIN.edges as f64)),
        ("fig9_nlev".into(), n(FIG9_DOMAIN.nlev as f64)),
        ("halo_ranks".into(), n(HALO_RANKS as f64)),
        ("halo_mesh_level".into(), n(HALO_MESH_LEVEL as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunway_sim::KernelStats;

    #[test]
    fn merge_sums_overlapping_sections() {
        let mut a = MetricsSnapshot::default();
        a.kernels.insert(
            "k".into(),
            KernelStats {
                calls: 1,
                nanos: 10,
                items: 5,
            },
        );
        a.counters.insert("dma.bytes".into(), 100);
        let mut b = MetricsSnapshot::default();
        b.kernels.insert(
            "k".into(),
            KernelStats {
                calls: 2,
                nanos: 20,
                items: 7,
            },
        );
        b.counters.insert("dma.bytes".into(), 28);
        b.counters.insert("halo.messages".into(), 3);
        merge_snapshots(&mut a, &b);
        assert_eq!(a.kernels["k"].calls, 3);
        assert_eq!(a.kernels["k"].items, 12);
        assert_eq!(a.counters["dma.bytes"], 128);
        assert_eq!(a.counters["halo.messages"], 3);
    }
}
