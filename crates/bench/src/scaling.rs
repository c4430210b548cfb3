//! The halo-overlap scaling benchmark behind `BENCH_scaling.json`:
//!
//! 1. Runs the 4-rank phased shallow-water scenario twice — once with the
//!    synchronous gathered exchange, once with the async begin/complete
//!    overlap — on traced CPE-teams substrates, and **gates in-run** that
//!    (a) the two modes are bitwise identical, (b) their deterministic
//!    counters agree, and (c) every rank's trace lane shows the order that
//!    *is* overlap (`check_exchange_order`): each step's send done before
//!    its interior phase begins and no receive begun before that phase
//!    ends; in the synchronous run the whole round between the two phases.
//! 2. Calibrates the SDPD projection model from the run's *deterministic*
//!    halo counters ([`sunway_model::scaling::MeasuredCosts`]) — never
//!    wall times, never host dispatch counts — with a pinned overlap
//!    factor, and emits weak- (128 → 524,288) and strong-scaling
//!    projections.
//! 3. Pins the synchronous run's counts and the projections exactly (see
//!    [`crate::pin`]); the measured wait reduction goes to the wall
//!    report's `overlap` section, compared with nothing.

use grist_core::DynStepMode;
use grist_dycore::hevi::DYN_KERNELS;
use grist_dycore::swe::{williamson_tc2, SwePhases, SweSolver};
use grist_dycore::tracer::FCT_KERNELS;
use grist_mesh::{HaloLayout, HexMesh, Partition};
use grist_runtime::run_world;
use sunway_model::scaling::{
    grid_by_label, weak_scaling_efficiencies, weak_scaling_ladder, MeasuredCosts, Scheme,
    SdpdModel, SdpdModelConfig,
};
use sunway_sim::trace::{EventKind, TraceEvent};
use sunway_sim::{analyze, trace, Json, Metrics, RooflineInputs, Substrate};

use crate::pin::{SuiteResult, SuiteRun};

const RANKS: usize = 4;
const LEVEL: u32 = 4;
const STEPS: usize = 16;
const CPES: usize = 8;
const DT: f64 = 400.0;

/// The overlap fraction of the committed projections: a modeled constant,
/// so the baseline is deterministic. The run's measured wait reduction is
/// reported beside it (wall report, `overlap`) and held to nothing — on a
/// shared host it has read anywhere from 22 % to 99 %; what the run *gates*
/// is the event order that makes overlap possible
/// ([`check_exchange_order`]).
const PINNED_OVERLAP: f64 = 0.30;

/// Run the phased 4-rank scenario in `mode` on a shared traced registry;
/// return the registry and each rank's final `h` bit pattern.
fn run_mode(mode: DynStepMode) -> (Metrics, Vec<Vec<u64>>) {
    let metrics = Metrics::default();
    metrics.tracer().enable_with_capacity(1 << 20);

    let mesh = HexMesh::build(LEVEL);
    let partition = Partition::build(&mesh, RANKS, 2);
    let layout = HaloLayout::build(&mesh, &partition, 2);
    let (layout, metrics_ref) = (&layout, &metrics);

    let (results, _) = run_world(RANKS, move |mut ctx| {
        trace::set_thread_rank(ctx.rank as u32);
        let mesh = HexMesh::build(LEVEL);
        let locale = &layout.locales[ctx.rank];
        let split = locale.phase_split(&mesh, 1);
        let sub = Substrate::cpe_teams_with_metrics(CPES, metrics_ref.clone());
        let mut solver = SweSolver::<f64>::with_substrate(mesh, sub);
        let phases = SwePhases::build(&solver.mesh, &split.interior_cells);
        let mut state = williamson_tc2::<f64>(&solver.mesh);
        for step in 0..STEPS {
            grist_core::swe_dyn_step(
                &mut solver,
                &mut state,
                DT,
                &mut ctx,
                locale,
                &phases,
                100 + step as u32,
                mode,
                Some(metrics_ref),
                None,
            )
            .expect("fault-free exchange");
            // Step barrier in BOTH modes: aligned step starts make the wait
            // split measure the exchange structure (when messages travel
            // relative to the interior compute), not accumulated scheduler
            // drift between ranks.
            ctx.barrier(10_000 + step as u32);
        }
        state.h.as_slice().iter().map(|v| v.to_bits()).collect()
    });
    metrics.tracer().disable();
    (metrics, results)
}

/// What overlap *means*, read off one rank lane as a string of marks in time
/// order, upper case where an event begins and lower case where it ends: `S`
/// `halo_pack_send`, `X` a synchronous `halo_exchange` round, `W` a
/// `halo_wait` (several in a row read as one), and `F` / `T` the first and
/// last kernel of a tendency evaluation (`swe_mass_flux`,
/// `swe_momentum_tend`). A step is four evaluations — stage 1's interior and
/// remainder, stages 2 and 3 — and must read exactly: overlapped, the send
/// over before the interior begins and no wait begun before it ends;
/// synchronous, the whole round between interior and remainder. One thread's
/// clock, so nothing here depends on how fast anything ran. Returns the
/// number of steps on the lane.
fn check_exchange_order(events: &[TraceEvent], mode: DynStepMode) -> Result<usize, String> {
    let want = match mode {
        DynStepMode::Overlapped => "SsFfTtWwFfTtFfTtFfTt",
        DynStepMode::Synchronous => "FfTtXWwxFfTtFfTtFfTt",
    };
    let mut marks: Vec<(u64, u64, bool, char)> = Vec::new();
    for e in events {
        // Kernel names carry their span path (`dycore/swe_mass_flux`).
        let mark = match e.name.rsplit('/').next().unwrap_or_default() {
            _ if e.kind == EventKind::HaloWait => 'W',
            "halo_pack_send" => 'S',
            "halo_exchange" => 'X',
            "swe_mass_flux" => 'F',
            "swe_momentum_tend" => 'T',
            _ => continue,
        };
        marks.push((e.t0_ns, e.seq, false, mark));
        marks.push((e.end_ns(), e.seq, true, mark.to_ascii_lowercase()));
    }
    // Record order breaks a tie between one event's end and the next's begin.
    marks.sort_unstable();
    let lane: String = marks.iter().map(|m| m.3).collect();
    let lane = lane.replace("wW", "");
    for (step, got) in lane.as_bytes().chunks(want.len()).enumerate() {
        if got != want.as_bytes() {
            return Err(format!(
                "step {step} reads {}, {mode:?} is {want}",
                String::from_utf8_lossy(got)
            ));
        }
    }
    Ok(lane.len() / want.len())
}

/// Run both modes, hold them to the three in-run gates, and pin the
/// counter-calibrated projections.
pub fn run() -> SuiteResult {
    let (sync_metrics, sync_states) = run_mode(DynStepMode::Synchronous);
    let (ovl_metrics, ovl_states) = run_mode(DynStepMode::Overlapped);

    // --- gate: bitwise identity between the modes ---
    for rank in 0..RANKS {
        if sync_states[rank] != ovl_states[rank] {
            return Err(format!(
                "rank {rank}: overlapped state is not bitwise identical to synchronous"
            ));
        }
    }

    // --- gate: identical deterministic counters ---
    let sync_snap = sync_metrics.snapshot();
    let ovl_snap = ovl_metrics.snapshot();
    if sync_snap.counters != ovl_snap.counters {
        let diff: Vec<String> = sync_snap
            .counters
            .iter()
            .filter(|(k, v)| ovl_snap.counters.get(*k) != Some(v))
            .map(|(k, v)| {
                format!(
                    "{k}: sync {v} vs overlapped {}",
                    ovl_snap
                        .counters
                        .get(k)
                        .map_or("absent".into(), u64::to_string)
                )
            })
            .collect();
        return Err(format!(
            "counter mismatch between modes: {}",
            diff.join(", ")
        ));
    }

    // --- gate: the exchange sits where the mode says, on every rank ---
    let sync_trace = sync_metrics.tracer().snapshot();
    let ovl_trace = ovl_metrics.tracer().snapshot();
    for (mode, snap) in [
        (DynStepMode::Synchronous, &sync_trace),
        (DynStepMode::Overlapped, &ovl_trace),
    ] {
        let mut rank_lanes = 0;
        for lane in &snap.lanes {
            // A rank's own lane is the one its kernels are dispatched from;
            // its CPE workers' lanes hold chunks only.
            if !lane.events.iter().any(|e| e.kind == EventKind::Kernel) {
                continue;
            }
            rank_lanes += 1;
            let steps = check_exchange_order(&lane.events, mode)
                .map_err(|e| format!("{mode:?}, rank {} lane: {e}", lane.rank))?;
            if steps != STEPS {
                return Err(format!(
                    "{mode:?}, rank {} lane: {steps} steps traced, ran {STEPS}",
                    lane.rank
                ));
            }
        }
        if rank_lanes != RANKS {
            return Err(format!(
                "{mode:?}: {rank_lanes} lanes dispatched kernels, expected {RANKS}"
            ));
        }
    }

    // Measured wait reduction: reported, compared with nothing.
    let inputs = RooflineInputs::default();
    let halo_sync = analyze(&sync_trace, &inputs).halo;
    let halo_ovl = analyze(&ovl_trace, &inputs).halo;
    let reduction_pct = (1.0 - halo_ovl.wait_ns as f64 / halo_sync.wait_ns.max(1) as f64) * 100.0;
    eprintln!(
        "scaling: halo wait {} ns (sync) -> {} ns (overlapped), {:.1}% reduction \
         (transfer {} ns -> {} ns); not gated",
        halo_sync.wait_ns,
        halo_ovl.wait_ns,
        reduction_pct,
        halo_sync.transfer_ns,
        halo_ovl.transfer_ns,
    );

    // --- calibrate the SDPD model from the deterministic counters ---
    let costs = MeasuredCosts::from_metrics(&sync_metrics, (RANKS * STEPS) as u64)
        .map_err(|e| format!("calibration: {e}"))?;
    // Measure the halo-surface coefficient from the same partition the run
    // used instead of the analytic 3.5 guess (gated per part count in
    // BENCH_partition.json; here it feeds the comm term of the projections).
    let mesh = HexMesh::build(LEVEL);
    let surface = Partition::build(&mesh, RANKS, 2).surface_profile(&mesh);
    let mut model = SdpdModel::new(&DYN_KERNELS, &FCT_KERNELS);
    model.cfg = SdpdModelConfig::default()
        .with_measured(&costs, PINNED_OVERLAP)
        .with_measured_surface(surface.surface_coeff);
    let mix_ml = Scheme {
        mixed: true,
        ml_physics: true,
    };

    let mut projections: Vec<(String, f64)> = Vec::new();
    let ladder = weak_scaling_ladder();
    for (label, procs) in &ladder {
        let r = model.project(
            &grid_by_label(label).expect("ladder labels are Table 2 rows"),
            mix_ml,
            *procs,
        );
        projections.push((format!("sdpd.weak.{label}.p{procs}"), r.sdpd));
        projections.push((format!("commfrac.weak.{label}.p{procs}"), r.comm_fraction));
    }
    for (procs, eff) in weak_scaling_efficiencies(&model, mix_ml, &ladder)
        .map_err(|e| format!("weak-scaling efficiencies: {e}"))?
    {
        projections.push((format!("eff.weak.p{procs}"), eff));
    }
    for label in ["G12", "G11S"] {
        let g = grid_by_label(label).expect("Table 2 row");
        for i in 0..5 {
            let procs = 32_768usize << i;
            let r = model.project(&g, mix_ml, procs);
            projections.push((format!("sdpd.strong.{label}.p{procs}"), r.sdpd));
        }
    }
    projections.sort_by(|a, b| a.0.cmp(&b.0));

    let config = Json::Obj(vec![
        ("ranks".into(), Json::Num(RANKS as f64)),
        ("mesh_level".into(), Json::Num(LEVEL as f64)),
        ("steps".into(), Json::Num(STEPS as f64)),
        ("cpes".into(), Json::Num(CPES as f64)),
        ("pinned_overlap_factor".into(), Json::Num(PINNED_OVERLAP)),
        (
            "measured_surface_coeff".into(),
            Json::Num(surface.surface_coeff),
        ),
    ]);
    // Live measurements: an informative record (wall-derived).
    let overlap = Json::Obj(vec![
        ("wait_sync_ns".into(), Json::Num(halo_sync.wait_ns as f64)),
        (
            "wait_overlapped_ns".into(),
            Json::Num(halo_ovl.wait_ns as f64),
        ),
        ("reduction_pct".into(), Json::Num(reduction_pct)),
    ]);
    Ok(SuiteRun::new(
        "scaling",
        config,
        projections,
        &sync_snap,
        vec![("overlap".into(), overlap)],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, name: &str, t0_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name: name.into(),
            t0_ns,
            dur_ns,
            step: 0,
            items: 0,
            bytes: 0,
            seq: t0_ns + dur_ns,
        }
    }

    /// One step's lane from `t`: the halo events given, four 40 ns tendency
    /// evaluations at +10 / +100 / +200 / +300, and the enclosing span.
    fn step_lane(t: u64, halo: &[(EventKind, &str, u64, u64)]) -> Vec<TraceEvent> {
        let mut lane: Vec<_> = (halo.iter())
            .map(|&(kind, name, at, dur)| ev(kind, name, t + at, dur))
            .collect();
        for at in [10, 100, 200, 300] {
            for (i, k) in ["mass_flux", "cell_tend", "vertex", "momentum_tend"]
                .iter()
                .enumerate()
            {
                let name = format!("dycore/swe_{k}");
                lane.push(ev(EventKind::Kernel, &name, t + at + 10 * i as u64, 10));
            }
        }
        lane.push(ev(EventKind::Span, "dycore", t, 400));
        lane
    }

    const WAITS: [(EventKind, &str, u64, u64); 2] = [
        (EventKind::HaloWait, "halo_wait<-1", 60, 8),
        (EventKind::HaloWait, "halo_wait<-2", 70, 8),
    ];

    fn overlapped_step(t: u64, send_at: u64) -> Vec<TraceEvent> {
        let mut halo = vec![
            (EventKind::HaloExchange, "halo_pack_send", send_at, 5),
            (EventKind::HaloExchange, "halo_recv_unpack", 55, 30),
        ];
        halo.extend(WAITS);
        step_lane(t, &halo)
    }

    #[test]
    fn exchange_order_accepts_overlap_and_names_a_send_moved_after_the_interior() {
        let good = [overlapped_step(0, 0), overlapped_step(1000, 0)].concat();
        assert_eq!(check_exchange_order(&good, DynStepMode::Overlapped), Ok(2));
        // The same events are not a synchronous run.
        assert!(check_exchange_order(&good, DynStepMode::Synchronous).is_err());

        // Step 1's send issued only after its interior evaluation.
        let late = [overlapped_step(0, 0), overlapped_step(1000, 52)].concat();
        let err = check_exchange_order(&late, DynStepMode::Overlapped).unwrap_err();
        assert!(err.contains("step 1 reads FfTtSsWw"), "{err}");

        // A receive begun while the interior is still running.
        let mut early_wait = good;
        early_wait[2].t0_ns = 30;
        let err = check_exchange_order(&early_wait, DynStepMode::Overlapped).unwrap_err();
        assert!(err.contains("step 0 reads SsFfWwTt"), "{err}");
    }

    #[test]
    fn exchange_order_wants_the_synchronous_round_between_the_phases() {
        let lane = |round_at: u64| {
            let mut halo = vec![(EventKind::HaloExchange, "halo_exchange", round_at, 40)];
            halo.extend(WAITS);
            step_lane(0, &halo)
        };
        assert_eq!(
            check_exchange_order(&lane(55), DynStepMode::Synchronous),
            Ok(1)
        );
        // A round begun before the step is the overlapped schedule.
        let err = check_exchange_order(&lane(0), DynStepMode::Synchronous).unwrap_err();
        assert!(err.contains("step 0 reads XFf"), "{err}");
    }
}
