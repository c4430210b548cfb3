//! Workloads 1 and 2: the coupled aqua-planet model on one thread.
//!
//! * `aqua_conv_dp` — f64, conventional physics, one continuous run of
//!   `advance_resilient(dt_phy)` windows under the default `RecoveryPolicy`:
//!   dycore, checkpoint capture and health scans share the wall; ML does
//!   nothing.
//! * `aqua_ml_mix` — f32 dycore, ML physics: each op is an untimed
//!   `restore(ck0)` then a timed `advance(dt_phy)`, because the coupled ML
//!   run turns `Corrupt` in its second window at this size (README,
//!   "Findings") and the benchmark must never time NaN arithmetic.
//!
//! The op of both is one physics window (16 dyn steps + one physics step).
//!
//! The traced pass runs two identically built models side by side, window
//! by window: A through the public driver (`advance_resilient` / `advance`),
//! B through a replay of the same cadence out of `step_dyn`, `step_physics`,
//! `health` and `checkpoint`, each call wrapped in a span. Equal
//! `state_hash`es after every window prove the spans timed the same work,
//! and pairing the windows makes the tracing overhead a ratio of medians of
//! interleaved samples instead of a difference of two noisy runs.

use crate::common::{ms, repeat_setup, time_calls_ms, Outcome, Params, Rng, Size};
use crate::span::{by_name, layer_table_json, retain_blocks, Lane, SpanRec};
use crate::stats::median;
use grist_core::{
    add_baroclinic_jet, extract_columns, Checkpoint, GristModel, PhysicsEngine, RunConfig, RunState,
};
use grist_dycore::{PrecisionMode, Real};
use grist_mesh::HexMesh;
use std::time::{Duration, Instant};
use sunway_sim::Json;

const FULL_SIZE: Size = Size { level: 4, nlev: 20 };

/// Continuous windows before the conventional run is rewound (untimed) to
/// its post-warm-up checkpoint: the horizon the sizing runs covered.
const LAP_WINDOWS: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ConvDp,
    MlMix,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::ConvDp => "aqua_conv_dp",
            Kind::MlMix => "aqua_ml_mix",
        }
    }

    fn physics_span(self) -> &'static str {
        match self {
            Kind::ConvDp => "physics.step_physics",
            Kind::MlMix => "ml.step_physics",
        }
    }
}

pub fn run(kind: Kind, p: &Params) -> Outcome {
    match kind {
        Kind::ConvDp => run_as::<f64>(kind, p),
        Kind::MlMix => run_as::<f32>(kind, p),
    }
}

/// Build the model and shape its initial state from the seed: the jet's
/// localized perturbation amplitude on workload 1, a 1e-5 relative `theta_m`
/// noise field on workload 2.
fn build<R: Real>(kind: Kind, size: Size, seed: u64) -> GristModel<R> {
    let base = RunConfig::for_level(size.level, size.nlev);
    match kind {
        Kind::ConvDp => {
            let mut m = GristModel::<R>::new(base);
            add_baroclinic_jet(&mut m, 35.0, 1.0 + (seed % 16) as f64 / 16.0);
            m
        }
        Kind::MlMix => {
            let cfg = base
                .with_ml_physics(true)
                .with_precision(PrecisionMode::Mixed);
            let mut m = GristModel::<R>::new(cfg);
            add_baroclinic_jet(&mut m, 35.0, 1.0);
            let mut rng = Rng::new(seed);
            let (nlev, ncells) = (m.config.nlev, m.state.theta_m.ncols());
            for k in 0..nlev {
                for c in 0..ncells {
                    let v = m.state.theta_m.at(k, c);
                    let eps = 1e-5 * (2.0 * rng.unit() - 1.0);
                    m.state.theta_m.set(k, c, v * (1.0 + eps));
                }
            }
            m
        }
    }
}

/// The state a run starts timing from: model built and seeded (`setup_s`
/// times exactly that), then one untimed window so first-call costs are not
/// in the samples.
struct Ready<R: Real> {
    model: GristModel<R>,
    /// `MlMix`: the state every op restores. `ConvDp`: the lap rewind point.
    ck0: Checkpoint,
    /// `MlMix`: the hash every op must end on.
    hash_after_window: u64,
    warm_ok: bool,
}

fn warm_up<R: Real>(kind: Kind, mut model: GristModel<R>) -> Ready<R> {
    let dt_phy = model.config.dt_phy;
    match kind {
        Kind::ConvDp => {
            let out = model.advance_resilient(dt_phy);
            let ck0 = model.checkpoint();
            Ready {
                hash_after_window: model.state_hash(),
                warm_ok: out.completed && out.restores == 0,
                model,
                ck0,
            }
        }
        Kind::MlMix => {
            let ck0 = model.checkpoint();
            model.advance(dt_phy);
            Ready {
                hash_after_window: model.state_hash(),
                warm_ok: model.health().state != RunState::Corrupt,
                model,
                ck0,
            }
        }
    }
}

/// One op through the public driver. Returns the timed wall and whether the
/// op's own checks held.
fn driver_op<R: Real>(kind: Kind, ready: &mut Ready<R>, ops_done: usize) -> (Duration, bool) {
    let m = &mut ready.model;
    let dt_phy = m.config.dt_phy;
    match kind {
        Kind::ConvDp => {
            if ops_done > 0 && ops_done.is_multiple_of(LAP_WINDOWS) {
                m.restore(&ready.ck0).expect("own checkpoint restores");
            }
            let t = Instant::now();
            let out = m.advance_resilient(dt_phy);
            let wall = t.elapsed();
            (wall, out.completed && out.restores == 0)
        }
        Kind::MlMix => {
            m.restore(&ready.ck0).expect("own checkpoint restores");
            let t = Instant::now();
            m.advance(dt_phy);
            let wall = t.elapsed();
            let ok =
                m.health().state != RunState::Corrupt && m.state_hash() == ready.hash_after_window;
            (wall, ok)
        }
    }
}

/// Area-weighted mean surface pressure over the reference 1e5 Pa.
fn ps_ratio<R: Real>(m: &GristModel<R>) -> f64 {
    let area = &m.solver.mesh.cell_area;
    let ps = m.surface_pressure();
    let num: f64 = ps.iter().zip(area).map(|(p, a)| p * a).sum();
    num / area.iter().sum::<f64>() / 1.0e5
}

fn run_as<R: Real>(kind: Kind, p: &Params) -> Outcome {
    if p.traced {
        traced::<R>(kind, p)
    } else {
        untraced::<R>(kind, p)
    }
}

fn min_ops(p: &Params) -> usize {
    if p.smoke {
        2
    } else {
        8
    }
}

fn untraced<R: Real>(kind: Kind, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let size = p.size(FULL_SIZE);
    let (model, setup_s, setup_times) =
        repeat_setup(p.setup_reps(), || build::<R>(kind, size, p.seed));
    let mut ready = warm_up(kind, model);
    out.check(ready.warm_ok, || {
        "warm-up window did not end healthy".into()
    });
    let dt_phy = ready.model.config.dt_phy;

    let budget = Duration::from_secs_f64(p.seconds);
    let t_run = Instant::now();
    let mut op_ms: Vec<f64> = Vec::new();
    while op_ms.len() < min_ops(p) || t_run.elapsed() < budget {
        let n = op_ms.len();
        let (wall, ok) = driver_op(kind, &mut ready, n);
        op_ms.push(ms(wall));
        out.op(ok, || format!("window {n} failed its checks"));
    }

    let health = ready.model.health();
    out.check(health.state != RunState::Corrupt, || {
        format!("final state corrupt: {}", health.diagnosis)
    });
    let ps = ps_ratio(&ready.model);
    out.check((ps - 1.0).abs() < 1e-3, || {
        format!("mean surface pressure drifted: ps/1e5 = {ps}")
    });

    // Every op is the same work, and interference from the rest of the
    // machine only ever adds time: the fastest op is the steadiest estimate
    // of what the code costs (README, "Estimators").
    let best = crate::stats::min(&op_ms);
    out.metric("rate_per_s", dt_phy / (best / 1e3));
    out.metric("op_ms", best);
    out.metric("setup_s", setup_s);
    out.summary("op_ms", &op_ms);
    out.summary("setup_s", &setup_times);
    out.detail("sim_s_per_op", Json::Num(dt_phy));
    out.detail(
        "rate_total_per_s",
        Json::Num(dt_phy * op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3)),
    );
    out.detail(
        "final_state_hash",
        Json::Str(format!("{:016x}", ready.model.state_hash())),
    );
    out
}

/// Model B of the traced pass: the same windows as the driver's, made of
/// the public pieces, one span per call.
struct Replay<R: Real> {
    model: GristModel<R>,
    /// `MlMix`: restored before every op. `ConvDp`: the lap rewind point.
    ck0: Option<Checkpoint>,
    /// Mirrors the driver's `last_checkpoint` slot, so the previous capture
    /// is dropped at the same point.
    kept: Option<Checkpoint>,
}

impl<R: Real> Replay<R> {
    /// One window: `advance_resilient`'s cadence (entry scan, first-window
    /// capture, scan / capture every `health_interval` /
    /// `checkpoint_interval` dyn steps, exit scan) or plain `advance`'s.
    fn window(&mut self, kind: Kind, lane: &mut Lane) -> bool {
        let m = &mut self.model;
        let block = lane.enter("block");
        let dt_phy = m.config.dt_phy;
        let dyn_per_phy = m.config.dyn_per_phy().max(1);
        let healthy = |m: &GristModel<R>, lane: &mut Lane| {
            lane.time("core.health", || m.health()).state != RunState::Corrupt
        };
        let mut ok = true;
        match kind {
            Kind::MlMix => {
                let n_dyn = (dt_phy / m.config.dt_dyn).round() as usize;
                for _ in 0..n_dyn {
                    lane.time("dycore.step_dyn", || m.step_dyn());
                    if m.dyn_steps().is_multiple_of(dyn_per_phy) {
                        lane.time(kind.physics_span(), || m.step_physics());
                    }
                }
            }
            Kind::ConvDp => {
                let policy = m.config.recovery.clone();
                ok &= healthy(m, lane);
                if self.kept.is_none() {
                    self.kept = Some(lane.time("core.checkpoint", || m.checkpoint()));
                }
                let t_end = m.time_s + dt_phy;
                while m.time_s < t_end - 1e-6 {
                    lane.time("dycore.step_dyn", || m.step_dyn());
                    if m.dyn_steps().is_multiple_of(dyn_per_phy) {
                        lane.time(kind.physics_span(), || m.step_physics());
                    }
                    let steps = m.dyn_steps();
                    let scan_due =
                        policy.health_interval > 0 && steps.is_multiple_of(policy.health_interval);
                    let ck_due = policy.checkpoint_interval > 0
                        && steps.is_multiple_of(policy.checkpoint_interval);
                    if scan_due || ck_due {
                        ok &= healthy(m, lane);
                        if ck_due {
                            self.kept = Some(lane.time("core.checkpoint", || m.checkpoint()));
                        }
                    }
                }
                ok &= healthy(m, lane);
            }
        }
        lane.exit(block);
        ok
    }

    /// Op `n`, mirroring `driver_op`: the same untimed rewinds, then one
    /// window. Returns the window's wall in ms and whether it stayed healthy.
    fn op(&mut self, kind: Kind, n: usize, lane: &mut Lane) -> (f64, bool) {
        let ck0 = self.ck0.as_ref().expect("warm-up captured ck0");
        match kind {
            Kind::ConvDp if n > 0 && n.is_multiple_of(LAP_WINDOWS) => {
                self.model.restore(ck0).expect("own checkpoint restores");
            }
            Kind::ConvDp => {}
            Kind::MlMix => lane
                .time("core.restore", || self.model.restore(ck0))
                .expect("own checkpoint restores"),
        }
        let t = Instant::now();
        let ok = self.window(kind, lane);
        (ms(t.elapsed()), ok)
    }
}

fn traced<R: Real>(kind: Kind, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let size = p.size(FULL_SIZE);
    let epoch = Instant::now();
    let mut lane = Lane::new(epoch, true);

    // A: the public driver. B: the replay, warmed up through the replay too
    // (block 0, left out of every table) so both start from one state.
    let mut a = warm_up(kind, build::<R>(kind, size, p.seed));
    let mut b = Replay {
        model: build::<R>(kind, size, p.seed),
        ck0: None,
        kept: None,
    };
    match kind {
        Kind::ConvDp => {
            b.window(kind, &mut lane);
            b.ck0 = Some(b.model.checkpoint());
        }
        Kind::MlMix => {
            b.ck0 = Some(b.model.checkpoint());
            b.window(kind, &mut lane);
        }
    }
    out.check(a.warm_ok, || "warm-up window did not end healthy".into());
    out.check(b.model.state_hash() == a.hash_after_window, || {
        "replayed warm-up window ended on a different state_hash".into()
    });
    a.model.reset_kernel_report();

    // Two thirds of the budget go to the paired windows, the rest to probes.
    let budget = Duration::from_secs_f64(p.seconds * 0.66);
    let t_run = Instant::now();
    let (mut a_ms, mut b_ms) = (Vec::new(), Vec::new());
    while a_ms.len() < min_ops(p) / 2 || t_run.elapsed() < budget {
        let n = a_ms.len();
        lane.set_block(n as u32 + 1);
        // Alternate which side goes first so drift hits both alike.
        let ((wall_a, ok_a), (wall_b, ok_b)) = if n.is_multiple_of(2) {
            let ra = driver_op(kind, &mut a, n);
            (ra, b.op(kind, n, &mut lane))
        } else {
            let rb = b.op(kind, n, &mut lane);
            (driver_op(kind, &mut a, n), rb)
        };
        a_ms.push(ms(wall_a));
        b_ms.push(wall_b);
        let same = a.model.state_hash() == b.model.state_hash();
        out.op(ok_a && ok_b && same, || {
            format!("window {n}: driver ok={ok_a}, replay ok={ok_b}, same state_hash={same}")
        });
    }
    let windows = a_ms.len() as f64;

    // Counts come from A, the real driver; they repeat exactly per window.
    let counters = a.model.metrics();
    let (captures, scans) = (
        counters.counter("checkpoint.captures") as f64,
        counters.counter("health.scans") as f64,
    );
    let dispatches: u64 = a.model.kernel_report().iter().map(|r| r.calls).sum();

    // Probes on B's current state.
    let b = &mut b.model;
    let reps = if p.smoke { 2 } else { 6 };
    let extract_ms = time_calls_ms(reps, || {
        extract_columns(&mut b.solver, &b.state, &b.surface)
    });
    let mesh_ms = time_calls_ms(reps.min(3), || HexMesh::build(size.level));
    let (mut infer_ms_p50, mut gflops) = (0.0, 0.0);
    if let PhysicsEngine::Ml(suite) = &b.physics {
        let cols = extract_columns(&mut b.solver, &b.state, &b.surface);
        infer_ms_p50 = median(&time_calls_ms(reps, || suite.step_columns(&cols)));
        // Computed FLOPs: the exact GEMM shapes the batched lowering issues.
        gflops = suite.batch_flops(cols.len()) as f64 / (infer_ms_p50 / 1e3) / 1e9;
    }

    let spans: Vec<SpanRec> = lane.into_spans();
    let timed: Vec<SpanRec> = retain_blocks(&spans, 1);
    let table = by_name(&timed);
    let wall_ns = table.get("block").map_or(1, |b| b.total_ns);
    let share = |name: &str| {
        table
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / wall_ns as f64)
    };
    let p50 = |name: &str| table.get(name).map_or(0.0, |t| t.p50_ms());
    let cells = (b.n_cells() * size.nlev) as f64;
    let step_p50 = p50("dycore.step_dyn");

    out.metric("mesh.build_ms", median(&mesh_ms));
    out.metric("dycore.step_dyn_ms_p50", step_p50);
    out.metric("dycore.share", share("dycore.step_dyn"));
    out.metric("dycore.cell_lev_updates_per_s", cells / (step_p50 / 1e3));
    if kind == Kind::ConvDp {
        let phys = p50("physics.step_physics");
        out.metric("physics.step_ms_p50", phys);
        out.metric("physics.share", share("physics.step_physics"));
        out.metric("physics.columns_per_s", b.n_cells() as f64 / (phys / 1e3));
        out.metric("core.ckpt_capture_ms_p50", p50("core.checkpoint"));
        out.metric("core.ckpt_share", share("core.checkpoint"));
        out.metric("core.health_scan_ms_p50", p50("core.health"));
        out.metric("core.health_share", share("core.health"));
        out.metric("core.ckpt_captures_per_op", captures / windows);
        out.metric("core.health_scans_per_op", scans / windows);
    } else {
        out.metric("ml.step_ms_p50", p50("ml.step_physics"));
        out.metric("ml.share", share("ml.step_physics"));
        out.metric("ml.infer_ms_p50", infer_ms_p50);
        out.metric("ml.gflops", gflops);
        out.metric("core.ckpt_restore_ms_p50", p50("core.restore"));
    }
    out.metric("core.ckpt_bytes", a.ck0.byte_len() as f64);
    out.metric("core.extract_columns_ms_p50", median(&extract_ms));
    out.metric(
        "substrate.dispatch_calls_per_op",
        dispatches as f64 / windows,
    );
    out.metric("trace.other_pct", 100.0 * share("block"));
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&b_ms) / median(&a_ms) - 1.0),
    );

    out.summary("driver_op_ms", &a_ms);
    out.summary("replay_op_ms", &b_ms);
    out.detail("layer_table", layer_table_json(&table, wall_ns));
    out.detail(
        "final_state_hash",
        Json::Str(format!("{:016x}", b.state_hash())),
    );
    crate::write_trace(p, kind.name(), &[("main", spans)], &mut out);
    out
}
