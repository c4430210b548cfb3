//! The pinned ML-inference benchmark behind `BENCH_ml.json`: the batched
//! engine ([`grist_core::MlSuite::step_columns`]) against the
//! per-column matrix–vector reference
//! ([`grist_core::MlSuite::step_columns_per_column`]) on both execution
//! targets, every knob pinned so the document is reproducible.
//!
//! Kernel call/item/byte counts, the `dma.*` counters, and the analytic
//! projections (per-column FLOPs, the serial steady-state allocation-event
//! count) are deterministic and pinned exactly (see [`crate::pin`]). The
//! measured columns-per-second rates and both speedups go to the wall
//! report — they are host-dependent — but two ratios taken inside this one
//! process are gated by [`run`]: batched ≥ [`MIN_SPEEDUP`] × per-column on
//! the serial target, SIMD GEMM ≥ [`MIN_SIMD_SPEEDUP`] × the scalar oracle.

use std::time::Instant;

use grist_core::MlSuite;
use grist_ml::{gemm_flops, gemm_lane_utilization, gemm_nn, gemm_nn_simd};
use grist_physics::Column;
use sunway_sim::{Json, MetricsSnapshot, Substrate};

use crate::pin::{SuiteResult, SuiteRun};
use crate::smoke::merge_snapshots;

/// In-run gate: batched inference over the per-column path, serial target.
pub const MIN_SPEEDUP: f64 = 3.0;
/// In-run gate: SIMD GEMM microkernel over the scalar oracle on the pinned
/// macro-tile shape (median of the paired per-trial ratios).
pub const MIN_SIMD_SPEEDUP: f64 = 1.5;

/// Pinned configuration — the production-like suite shape from the issue:
/// 16 levels, 64 CNN channels. Changing any of these invalidates the
/// committed `BENCH_ml.json`; re-pin it (`grist gate ml --update`).
pub const ML_NLEV: usize = 16;
pub const ML_CHANNELS: usize = 64;
/// Columns per `step_columns` call: 8 blocks of the default 32-column
/// block, enough to spread over the CPE teams.
pub const ML_COLUMNS: usize = 256;
/// Timed calls per path (one extra warm-up call pays arena growth).
pub const ML_ITERS: usize = 2;
pub const ML_CPES: usize = 16;
pub const ML_SEED: u64 = 4;

/// Pinned GEMM-microkernel probe shape: one full `MC × NC × KC` macro-tile
/// of the blocked kernel (`grist_ml::gemm::{MC, NC, KC}`), the steady-state
/// shape every inference layer decomposes into.
pub const GEMM_M: usize = 64;
pub const GEMM_N: usize = 512;
pub const GEMM_K: usize = 192;
/// Paired trials for the GEMM probe. Each trial times both variants back to
/// back, alternating which goes first, and the gate reads the median of the
/// per-trial ratios: a burst of host load lands on one pair and moves one
/// ratio, where timing all scalar trials before all SIMD trials let it
/// depress a whole variant's minimum.
pub const GEMM_TRIALS: usize = 11;

/// One bench run's knobs (the test suite shrinks them; [`run`] pins them).
#[derive(Debug, Clone, Copy)]
pub struct MlBenchConfig {
    pub nlev: usize,
    pub channels: usize,
    pub columns: usize,
    pub iters: usize,
    pub n_cpes: usize,
    pub seed: u64,
    /// GEMM probe shape (m, n, k) and paired trial count.
    pub gemm_shape: (usize, usize, usize),
    pub gemm_trials: usize,
}

impl Default for MlBenchConfig {
    fn default() -> Self {
        MlBenchConfig {
            nlev: ML_NLEV,
            channels: ML_CHANNELS,
            columns: ML_COLUMNS,
            iters: ML_ITERS,
            n_cpes: ML_CPES,
            seed: ML_SEED,
            gemm_shape: (GEMM_M, GEMM_N, GEMM_K),
            gemm_trials: GEMM_TRIALS,
        }
    }
}

/// The run plus the headline ratios [`run`] gates on.
#[derive(Debug)]
pub struct MlBench {
    pub run: SuiteRun,
    /// Batched / per-column columns-per-second ratio, serial target.
    pub serial_speedup: f64,
    /// Same ratio on the CPE-teams target.
    pub cpe_speedup: f64,
    /// SIMD / scalar GEMM throughput ratio on the pinned probe shape
    /// (median of the paired per-trial ratios).
    pub gemm_simd_speedup: f64,
}

/// Measured scalar-vs-SIMD throughput of the raw GEMM microkernel.
#[derive(Debug, Clone, Copy)]
pub struct GemmProbe {
    /// Best-of-N throughputs.
    pub scalar_gflops: f64,
    pub simd_gflops: f64,
    /// Scalar / SIMD time ratio per trial: `[q1, median, q3]`.
    pub speedup: [f64; 3],
}

/// `[q1, median, q3]` of `samples` (sorted in place), interpolating
/// linearly between order statistics. `samples` must not be empty.
fn quartiles(samples: &mut [f64]) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let x = p * (samples.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        samples[lo] + (samples[hi] - samples[lo]) * (x - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Paired probe of the scalar `gemm_nn` and the lane `gemm_nn_simd` on one
/// shape (see [`GEMM_TRIALS`]). Also asserts the two agree bitwise — the probe
/// runs in every bench invocation, so a lane-kernel equivalence break cannot
/// ship a baseline.
pub fn gemm_probe(m: usize, n: usize, k: usize, trials: usize) -> GemmProbe {
    // Deterministic operands in a tame range (no overflow over k MACs).
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i % 251) as f32 - 125.0) * 1e-2)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i % 241) as f32 - 120.0) * 1e-2)
        .collect();
    let flops = gemm_flops(m, n, k) as f64;

    type Gemm = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
    let kernels: [Gemm; 2] = [gemm_nn, gemm_nn_simd];
    let mut c = [vec![0.0f32; m * n], vec![0.0f32; m * n]];
    for (kernel, c) in kernels.into_iter().zip(&mut c) {
        kernel(m, n, k, &a, &b, c); // warm-up
    }
    let mut best = [f64::INFINITY; 2];
    let mut ratios = Vec::with_capacity(trials.max(1));
    for trial in 0..trials.max(1) {
        let mut secs = [0.0; 2];
        let order = if trial % 2 == 0 { [0, 1] } else { [1, 0] };
        for slot in order {
            c[slot].fill(0.0);
            let out = std::hint::black_box(&mut c[slot]);
            let t0 = Instant::now();
            kernels[slot](m, n, k, &a, &b, out);
            secs[slot] = t0.elapsed().as_secs_f64();
            best[slot] = best[slot].min(secs[slot]);
        }
        ratios.push(secs[0] / secs[1].max(1e-12));
    }
    assert!(
        c[0].iter()
            .zip(&c[1])
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "SIMD GEMM is not bitwise equal to the scalar oracle on {m}x{n}x{k}"
    );

    let gflops = |secs: f64| flops / secs.max(1e-12) / 1e9;
    GemmProbe {
        scalar_gflops: gflops(best[0]),
        simd_gflops: gflops(best[1]),
        speedup: quartiles(&mut ratios),
    }
}

/// Measured wall times and metrics for one execution target.
struct TargetRun {
    percol_s: f64,
    batched_s: f64,
    snap: MetricsSnapshot,
    alloc_events: u64,
}

/// Deterministic column population: the reference column perturbed by two
/// small index-dependent bumps (same recipe as the equivalence tests).
pub fn ml_columns(nlev: usize, n: usize) -> Vec<Column> {
    (0..n)
        .map(|i| {
            let mut c = Column::reference(nlev);
            c.t[nlev / 2] += (i % 17) as f64 * 0.3;
            c.qv[nlev - 1] *= 1.0 + 0.01 * (i % 5) as f64;
            c
        })
        .collect()
}

/// Time both inference paths on one substrate. The `label` span prefixes
/// every kernel key (`serial/ml/ml_physics_blocks`, …) so the two targets'
/// registries merge without collisions.
fn bench_target(
    sub: Substrate,
    label: &'static str,
    cols: &[Column],
    cfg: &MlBenchConfig,
) -> TargetRun {
    let mut suite = MlSuite::untrained(cfg.nlev, cfg.channels, cfg.seed);
    suite.sub = sub.clone();
    let (percol_s, batched_s);
    {
        let _span = sub.span(label);

        suite.step_columns_per_column(cols); // warm-up
        let t0 = Instant::now();
        for _ in 0..cfg.iters {
            std::hint::black_box(suite.step_columns_per_column(cols));
        }
        percol_s = t0.elapsed().as_secs_f64();

        suite.step_columns(cols); // warm-up grows the scratch arenas
        let t0 = Instant::now();
        for _ in 0..cfg.iters {
            std::hint::black_box(suite.step_columns(cols));
        }
        batched_s = t0.elapsed().as_secs_f64();
    }
    TargetRun {
        percol_s,
        batched_s,
        snap: sub.metrics().snapshot(),
        alloc_events: suite.scratch_alloc_events(),
    }
}

/// Run the pinned ML benchmark and hold it to its two in-run gates.
pub fn run() -> SuiteResult {
    let b = run_ml_with(MlBenchConfig::default());
    eprintln!(
        "ml: serial batched/per-column speedup {:.2}x, cpe {:.2}x, gemm simd/scalar {:.2}x",
        b.serial_speedup, b.cpe_speedup, b.gemm_simd_speedup
    );
    if b.serial_speedup < MIN_SPEEDUP {
        return Err(format!(
            "serial batched speedup {:.2}x below the {MIN_SPEEDUP}x floor",
            b.serial_speedup
        ));
    }
    if b.gemm_simd_speedup < MIN_SIMD_SPEEDUP {
        return Err(format!(
            "gemm simd speedup {:.2}x below the {MIN_SIMD_SPEEDUP}x floor",
            b.gemm_simd_speedup
        ));
    }
    Ok(b.run)
}

/// The benchmark with explicit knobs (tests use a miniature configuration).
pub fn run_ml_with(cfg: MlBenchConfig) -> MlBench {
    let cols = ml_columns(cfg.nlev, cfg.columns);
    let serial = bench_target(Substrate::serial(), "serial", &cols, &cfg);
    let cpe = bench_target(Substrate::cpe_teams(cfg.n_cpes), "cpe", &cols, &cfg);
    let (gm, gn, gk) = cfg.gemm_shape;
    let gemm = gemm_probe(gm, gn, gk, cfg.gemm_trials);

    let suite = MlSuite::untrained(cfg.nlev, cfg.channels, cfg.seed);
    let block = suite.block;

    // Deterministic projections, pinned by bit pattern. The serial
    // scratch-pool event count is the zero-alloc guarantee in pinned form:
    // one arena plus its fixed warm-up growths, flat no matter how many timed
    // iterations ran. (The CPE-teams count depends on how many workers were
    // concurrently active, so it is reported, not pinned.)
    let projections = vec![
        (
            "ml.flops_per_column".into(),
            suite.flops_per_column() as f64,
        ),
        (
            "ml.batch_flops_block".into(),
            suite.batch_flops(block) as f64,
        ),
        (
            "ml.alloc_events_serial_steady".into(),
            serial.alloc_events as f64,
        ),
        // Fraction of probe-shape MACs inside full SIMD lane tiles —
        // deterministic blocking replay: a blocking change that strands
        // work in the scalar edge strips moves it.
        (
            "ml.gemm_lane_utilization".into(),
            gemm_lane_utilization(gm, gn),
        ),
    ];

    let cols_total = (cfg.iters * cfg.columns) as f64;
    let rate = |secs: f64| cols_total / secs.max(1e-12);
    let ns_per_col = |secs: f64| secs * 1e9 / cols_total;
    let serial_speedup = rate(serial.batched_s) / rate(serial.percol_s).max(1e-12);
    let cpe_speedup = rate(cpe.batched_s) / rate(cpe.percol_s).max(1e-12);

    // Host-dependent headline numbers: the wall report.
    let report = Json::Obj(vec![
        (
            "serial.percol_cols_per_s".into(),
            Json::Num(rate(serial.percol_s)),
        ),
        (
            "serial.batched_cols_per_s".into(),
            Json::Num(rate(serial.batched_s)),
        ),
        (
            "serial.percol_ns_per_col".into(),
            Json::Num(ns_per_col(serial.percol_s)),
        ),
        (
            "serial.batched_ns_per_col".into(),
            Json::Num(ns_per_col(serial.batched_s)),
        ),
        ("serial.speedup".into(), Json::Num(serial_speedup)),
        (
            "cpe.percol_cols_per_s".into(),
            Json::Num(rate(cpe.percol_s)),
        ),
        (
            "cpe.batched_cols_per_s".into(),
            Json::Num(rate(cpe.batched_s)),
        ),
        (
            "cpe.percol_ns_per_col".into(),
            Json::Num(ns_per_col(cpe.percol_s)),
        ),
        (
            "cpe.batched_ns_per_col".into(),
            Json::Num(ns_per_col(cpe.batched_s)),
        ),
        ("cpe.speedup".into(), Json::Num(cpe_speedup)),
        (
            "cpe.alloc_events".into(),
            Json::Num(cpe.alloc_events as f64),
        ),
        ("gemm.scalar_gflops".into(), Json::Num(gemm.scalar_gflops)),
        ("gemm.simd_gflops".into(), Json::Num(gemm.simd_gflops)),
        ("gemm.simd_speedup_q1".into(), Json::Num(gemm.speedup[0])),
        ("gemm.simd_speedup".into(), Json::Num(gemm.speedup[1])),
        ("gemm.simd_speedup_q3".into(), Json::Num(gemm.speedup[2])),
    ]);

    let mut snap = serial.snap;
    merge_snapshots(&mut snap, &cpe.snap);

    let n = |x: f64| Json::Num(x);
    let config = Json::Obj(vec![
        ("nlev".into(), n(cfg.nlev as f64)),
        ("channels".into(), n(cfg.channels as f64)),
        ("columns".into(), n(cfg.columns as f64)),
        ("block".into(), n(block as f64)),
        ("iters".into(), n(cfg.iters as f64)),
        ("n_cpes".into(), n(cfg.n_cpes as f64)),
        ("seed".into(), n(cfg.seed as f64)),
        ("gemm_m".into(), n(gm as f64)),
        ("gemm_n".into(), n(gn as f64)),
        ("gemm_k".into(), n(gk as f64)),
        ("gemm_trials".into(), n(cfg.gemm_trials as f64)),
    ]);

    let run = SuiteRun::new(
        "ml",
        config,
        projections,
        &snap,
        vec![("report".into(), report)],
    );

    MlBench {
        run,
        serial_speedup,
        cpe_speedup,
        gemm_simd_speedup: gemm.speedup[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin::leaf;

    fn tiny() -> MlBenchConfig {
        MlBenchConfig {
            nlev: 6,
            channels: 8,
            columns: 12,
            iters: 1,
            n_cpes: 4,
            seed: 3,
            gemm_shape: (16, 32, 24),
            gemm_trials: 2,
        }
    }

    #[test]
    fn run_reports_finite_speedups_and_a_wall_report() {
        let b = run_ml_with(tiny());
        for section in ["report", "nanos"] {
            assert!(b.run.wall.get(section).is_some(), "missing {section}");
        }
        assert!(b.serial_speedup.is_finite() && b.serial_speedup > 0.0);
        assert!(b.cpe_speedup.is_finite() && b.cpe_speedup > 0.0);
        assert!(b.gemm_simd_speedup.is_finite() && b.gemm_simd_speedup > 0.0);
    }

    #[test]
    fn gemm_probe_reports_positive_rates_and_checks_equivalence() {
        // The probe itself asserts scalar/simd bitwise equality internally;
        // a clean return means the oracle check ran on this shape.
        let p = gemm_probe(32, 48, 40, 3);
        assert!(p.scalar_gflops > 0.0 && p.simd_gflops > 0.0);
        assert!(p.speedup[0] > 0.0 && p.speedup[2].is_finite());
        assert!(p.speedup[0] <= p.speedup[1] && p.speedup[1] <= p.speedup[2]);
    }

    #[test]
    fn quartiles_of_known_samples() {
        assert_eq!(quartiles(&mut [4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&mut [4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&mut [2.2]), [2.2; 3]);
        // One pair hit by load moves one ratio, not the median.
        assert_eq!(quartiles(&mut [2.2, 2.3, 0.4, 2.1, 2.25, 2.2, 2.3])[1], 2.2);
    }

    #[test]
    fn lane_utilization_projection_is_pinned_for_the_probe_shape() {
        let b = run_ml_with(tiny());
        let v = leaf(&b.run.pin.diagnostics, "ml.gemm_lane_utilization");
        assert_eq!(v, gemm_lane_utilization(16, 32));
        assert!(v > 0.0 && v <= 1.0);
    }

    #[test]
    fn kernel_counts_are_target_prefixed_and_two_runs_pin_equal() {
        let cfg = tiny();
        let b = run_ml_with(cfg);
        // warm-up + iters calls of each path, on each target.
        let calls = (cfg.iters + 1) as u64;
        let n_blocks = cfg.columns.div_ceil(grist_core::DEFAULT_ML_BLOCK) as u64;
        for target in ["serial", "cpe"] {
            let percol = format!("kernel.{target}/ml/ml_physics_columns");
            assert_eq!(leaf(&b.run.pin.counters, &format!("{percol}.calls")), calls);
            assert_eq!(
                leaf(&b.run.pin.counters, &format!("{percol}.items")),
                calls * cfg.columns as u64
            );
            let batched = format!("kernel.{target}/ml/ml_physics_blocks");
            assert_eq!(
                leaf(&b.run.pin.counters, &format!("{batched}.calls")),
                calls
            );
            assert_eq!(
                leaf(&b.run.pin.counters, &format!("{batched}.items")),
                calls * n_blocks
            );
        }
        // Two runs of one config yield equal pins (the exact gate's premise).
        assert_eq!(b.run.pin, run_ml_with(cfg).run.pin);
    }

    #[test]
    fn serial_alloc_events_projection_is_flat() {
        let a = run_ml_with(tiny());
        let v = leaf(&a.run.pin.diagnostics, "ml.alloc_events_serial_steady");
        assert!(v >= 1.0, "at least the one serial arena: {v}");
        // More timed iterations must not move it — zero-alloc steady state.
        let mut cfg = tiny();
        cfg.iters = 3;
        let b = run_ml_with(cfg);
        let v2 = leaf(&b.run.pin.diagnostics, "ml.alloc_events_serial_steady");
        assert_eq!(v, v2, "serial scratch pool grew after warm-up");
    }
}
