//! Cross-crate integration tests of the batched inference engine: the
//! property-style equivalence suite (batched [`MlSuite::step_columns`] vs
//! the per-column reference, bitwise, across every batch shape and both
//! execution targets), the bitwise shape sweep over levels, channels and
//! batch sizes on an untrained and a trained suite, the same equivalence
//! under `FaultSite::Dispatch` faults (retried, then degraded to the calling
//! thread), the zero-allocation steady-state guarantee, the FLOP-accounting
//! consistency check against the exact multiply–add counts the lowering
//! issues, the surface-parameter plumbing pin, and the pins on the saved
//! weight file: an untrained suite's bytes by hash, a trained suite's bytes
//! across two training runs from one seed and by hash.

use std::sync::OnceLock;

use grist_core::{generate_training_data, train_ml_suite, DataGenConfig};
use grist_core::{MlOutput, MlSuite, DEFAULT_ML_BLOCK};
use grist_ml::gemm_flops;
use grist_physics::surface::bulk_fluxes;
use grist_physics::Column;
use rand::{rngs::StdRng, Rng, SeedableRng};
use sunway_sim::{dispatch_fault_key, FaultPlan, FaultSite, Substrate};

/// Seeded column population (vendored `rand` shim — deterministic per
/// seed): the reference column with every ML-visible field perturbed.
fn random_columns(nlev: usize, n: usize, seed: u64) -> Vec<Column> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut c = Column::reference(nlev);
            for k in 0..nlev {
                c.u[k] += rng.gen_range(-5.0..5.0);
                c.v[k] += rng.gen_range(-5.0..5.0);
                c.t[k] += rng.gen_range(-3.0..3.0);
                c.qv[k] *= 1.0 + rng.gen_range(-0.2..0.2);
            }
            c.tskin += rng.gen_range(-5.0..5.0);
            c.coszr = rng.gen_range(0.0..1.0);
            c
        })
        .collect()
}

/// The batch shapes the issue calls out: degenerate, sub-block, exactly one
/// block, one past a block boundary, and a multi-block run with a tail.
fn batch_sizes() -> [usize; 5] {
    [1, 3, DEFAULT_ML_BLOCK, DEFAULT_ML_BLOCK + 1, 64]
}

#[test]
fn batched_matches_per_column_bitwise_on_both_targets() {
    let nlev = 12;
    for (ti, sub) in [Substrate::serial(), Substrate::cpe_teams(8)]
        .into_iter()
        .enumerate()
    {
        let mut suite = MlSuite::untrained(nlev, 16, 0xB10C);
        suite.sub = sub;
        for (ni, n) in batch_sizes().into_iter().enumerate() {
            let cols = random_columns(nlev, n, 1000 + (ti * 10 + ni) as u64);
            let batched = suite.step_columns(&cols);
            let reference = suite.step_columns_per_column(&cols);
            assert_eq!(batched.len(), n);
            for (i, (a, b)) in batched.iter().zip(&reference).enumerate() {
                // Bitwise: the conv tiles and the MLP's GEMM keep the
                // per-column accumulation order (see grist_ml::batch).
                assert_eq!(a.tend.dt_dt, b.tend.dt_dt, "target {ti} n {n} col {i}");
                assert_eq!(a.tend.dqv_dt, b.tend.dqv_dt, "target {ti} n {n} col {i}");
                assert_eq!(a.diag.gsw, b.diag.gsw);
                assert_eq!(a.diag.glw, b.diag.glw);
                assert_eq!(a.diag.precip, b.diag.precip);
                assert_eq!(a.diag.shflx, b.diag.shflx);
                assert_eq!(a.diag.lhflx, b.diag.lhflx);
                assert_eq!(a.diag.tskin, b.diag.tskin);
            }
        }
    }
}

#[test]
fn batched_results_are_independent_of_execution_target() {
    let nlev = 10;
    let cols = random_columns(nlev, DEFAULT_ML_BLOCK + 5, 77);
    let mut serial = MlSuite::untrained(nlev, 16, 9);
    serial.sub = Substrate::serial();
    let mut cpe = MlSuite::untrained(nlev, 16, 9);
    cpe.sub = Substrate::cpe_teams(8);
    let a = serial.step_columns(&cols);
    let b = cpe.step_columns(&cols);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.tend.dt_dt, y.tend.dt_dt);
        assert_eq!(x.tend.dqv_dt, y.tend.dqv_dt);
        assert_eq!(x.diag.gsw, y.diag.gsw);
        assert_eq!(x.diag.precip, y.diag.precip);
    }
}

/// Every value of every output as its bit pattern, in column order.
fn output_bits(out: &[MlOutput]) -> Vec<u64> {
    out.iter()
        .flat_map(|o| {
            let t = &o.tend;
            let d = &o.diag;
            [&t.dt_dt, &t.dqv_dt, &t.dqc_dt, &t.dqr_dt]
                .into_iter()
                .flatten()
                .chain([
                    &d.gsw,
                    &d.glw,
                    &d.precip,
                    &d.shflx,
                    &d.lhflx,
                    &d.tskin,
                    &d.cloud_cover,
                ])
                .map(|v| v.to_bits())
        })
        .collect()
}

/// `ml_physics_blocks` faults at `FaultSite::Dispatch` like every kernel:
/// one key per `step_columns` call, `dispatch_fault_key(name, ordinal)`.
#[test]
fn dispatch_site_faults_retry_or_degrade_without_moving_a_bit() {
    let nlev = 10;
    let mut clean = MlSuite::untrained(nlev, 16, 9);
    clean.sub = Substrate::serial();
    let mut suite = MlSuite::untrained(nlev, 16, 9);
    suite.sub = Substrate::cpe_teams(4);
    let m = suite.sub.metrics();

    // Transient faults inside a generous retry budget: every call offloads.
    suite.sub.arm_faults(
        FaultPlan::new(5)
            .with_rate(FaultSite::Dispatch, 0.3)
            .with_max_retries(10),
    );
    for (ni, n) in batch_sizes().into_iter().enumerate() {
        let cols = random_columns(nlev, n, 300 + ni as u64);
        assert_eq!(
            output_bits(&suite.step_columns(&cols)),
            output_bits(&clean.step_columns(&cols)),
            "transient dispatch faults moved bits at n {n}"
        );
    }
    assert!(m.counter("fault.injected") > 0, "rate 0.3 never fired");
    assert_eq!(m.counter("fault.retries"), m.counter("fault.injected"));
    assert_eq!(m.counter("fault.degradations"), 0);

    // A fault pinned on the next call outlives the budget: that call runs
    // on the calling thread.
    suite.sub.arm_faults(
        FaultPlan::new(5)
            .pin(
                FaultSite::Dispatch,
                dispatch_fault_key("ml_physics_blocks", 0),
            )
            .with_max_retries(1),
    );
    let cols = random_columns(nlev, DEFAULT_ML_BLOCK + 5, 77);
    let injected = m.counter("fault.injected");
    assert_eq!(
        output_bits(&suite.step_columns(&cols)),
        output_bits(&clean.step_columns(&cols)),
        "the degraded dispatch moved bits"
    );
    assert_eq!(m.counter("fault.degradations"), 1);
    assert_eq!(m.counter("fault.injected") - injected, 2);
}

#[test]
fn batched_steady_state_allocates_nothing_after_warmup() {
    let nlev = 10;
    let cols = random_columns(nlev, 48, 5); // 2 blocks at the default size
    let n_blocks = cols.len().div_ceil(DEFAULT_ML_BLOCK) as u64;

    // Serial: exactly one arena, and the event counter must go flat after
    // the first call.
    let suite = MlSuite::untrained(nlev, 16, 7);
    suite.step_columns(&cols);
    let serial_events = suite.scratch_alloc_events();
    assert!(serial_events >= 1);
    for _ in 0..6 {
        suite.step_columns(&cols);
    }
    assert_eq!(
        suite.scratch_alloc_events(),
        serial_events,
        "serial batched loop allocated in steady state"
    );

    // CPE teams: the pool creates at most one arena per concurrently active
    // block, each growing exactly as the serial arena did — so the total is
    // bounded by n_blocks × the serial count, and never moves past it.
    let mut suite = MlSuite::untrained(nlev, 16, 7);
    suite.sub = Substrate::cpe_teams(8);
    for _ in 0..4 {
        suite.step_columns(&cols);
    }
    let warm = suite.scratch_alloc_events();
    for _ in 0..6 {
        suite.step_columns(&cols);
    }
    let after = suite.scratch_alloc_events();
    assert!(after >= warm, "event counter must be monotone");
    assert!(
        after <= n_blocks * serial_events,
        "cpe pool exceeded one arena per block: {after} > {n_blocks} x {serial_events}"
    );
}

#[test]
fn flops_accounting_matches_the_exact_gemm_op_counts() {
    // Independent derivation of the multiply–adds the batched lowering
    // issues, from the published architecture: a 5→ch k=3 input conv, five
    // residual units of two ch→ch k=3 convs, a ch→2 k=1 readout (each conv
    // is a c_out × b·nlev × c_in·k product, padding taps included), and the
    // 7-layer MLP (n_in→64, five 64→64, 64→n_out) as GEMMs on b-wide
    // activation panels.
    let (nlev, ch) = (16usize, 64usize);
    let suite = MlSuite::untrained(nlev, ch, 4);
    let cnn = |b: usize| {
        gemm_flops(ch, b * nlev, 5 * 3)
            + 5 * 2 * gemm_flops(ch, b * nlev, ch * 3)
            + gemm_flops(2, b * nlev, ch)
    };
    let (n_in, width, n_out) = (2 * nlev + 2, 64usize, 3usize);
    let mlp = |b: usize| {
        gemm_flops(width, b, n_in) + 5 * gemm_flops(width, b, width) + gemm_flops(n_out, b, width)
    };
    for b in batch_sizes() {
        assert_eq!(
            suite.batch_flops(b),
            cnn(b) + mlp(b),
            "batch_flops(b={b}) disagrees with the lowered GEMM shapes"
        );
        assert_eq!(
            suite.batch_flops(b),
            b as u64 * suite.flops_per_column(),
            "batched op count must be exactly b x the per-column count"
        );
    }
}

#[test]
fn configured_surface_parameters_flow_through_the_batched_path() {
    let nlev = 8;
    let mut suite = MlSuite::untrained(nlev, 8, 2);
    suite.surface.ch *= 1.7;
    suite.surface.wind_floor = 2.5;
    suite.surface.beta_ocean = 0.8;
    let cols = random_columns(nlev, 5, 9);
    let out = suite.step_columns(&cols);
    for (col, o) in cols.iter().zip(&out) {
        let (sh, lh) = bulk_fluxes(col, &suite.surface, suite.surface.beta_ocean);
        assert_eq!(o.diag.shflx, sh, "configured surface lost in batching");
        assert_eq!(o.diag.lhflx, lh, "configured surface lost in batching");
    }
}

/// FNV-1a over raw bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The bytes [`MlSuite::save`] writes for `suite`.
fn saved_bytes(suite: &MlSuite, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("grist-ml-save-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("suite.gml");
    suite.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

/// The weight file of `MlSuite::untrained(20, 32, 2024)`, the suite every
/// ML model workload builds. The hash holds the seeded draw order of every
/// parameter and the on-disk tensor order: an in-memory layout change must
/// leave it alone.
const UNTRAINED_20X32_SAVE_FNV: u64 = 0x95c5_e4f9_d4e9_f300;

#[test]
fn untrained_suite_saves_the_pinned_bytes() {
    let bytes = saved_bytes(&MlSuite::untrained(20, 32, 2024), "untrained");
    assert_eq!(
        fnv1a(&bytes),
        UNTRAINED_20X32_SAVE_FNV,
        "saved {} bytes hash to {:016x}",
        bytes.len(),
        fnv1a(&bytes)
    );
}

/// The data of `datagen`'s `training_reduces_test_loss`: a level-2 run
/// coarse-grained to level 1, 8 levels, two Table-1 periods of one day.
fn training_data() -> &'static grist_core::GeneratedData {
    static DATA: OnceLock<grist_core::GeneratedData> = OnceLock::new();
    DATA.get_or_init(|| {
        generate_training_data(&DataGenConfig {
            fine_level: 2,
            coarse_level: 1,
            nlev: 8,
            steps_per_day: 8,
            days_per_period: 1,
            n_periods: 2,
            cell_stride: 1,
        })
    })
}

/// `training_reduces_test_loss`'s suite: 8 channels, 15 epochs, seed 42.
fn train() -> MlSuite {
    train_ml_suite(training_data(), 8, 15, 42).0
}

fn trained_suite() -> &'static MlSuite {
    static SUITE: OnceLock<MlSuite> = OnceLock::new();
    SUITE.get_or_init(train)
}

/// Two trainings from one seed save the same bytes, and those bytes are
/// pinned by hash: the mini-batch loop of `train_ml_suite` (sample order,
/// gradient accumulation, Adam) moves it, the coupled model that generates
/// the data moves it too.
#[test]
fn training_twice_from_one_seed_saves_identical_bytes() {
    let first = trained_suite();
    assert!(
        first.cnn.in_norm.iter().any(|&p| p != (0.0, 1.0)),
        "the trained suite carries fitted normalisers"
    );
    let a = saved_bytes(first, "trained-a");
    let b = saved_bytes(&train(), "trained-b");
    assert_eq!(a.len(), b.len());
    assert!(a == b, "two trainings from seed 42 saved different bytes");
    assert_eq!(
        fnv1a(&a),
        0xddbd_a6db_f2e4_4f50,
        "the trained suite's {} saved bytes hash to {:016x}",
        a.len(),
        fnv1a(&a)
    );
}

/// Batched against per-column inference, by bit pattern, with each call
/// one block of exactly `b` columns, on the serial and the CPE-team target.
fn assert_blocks_bitwise(suite: &MlSuite, nlev: usize, seed: u64, label: &str) {
    for b in [1usize, 3, 32, 33] {
        let cols = random_columns(nlev, b, seed + b as u64);
        let reference = output_bits(&suite.step_columns_per_column(&cols));
        for (target, sub) in [
            ("serial", Substrate::serial()),
            ("cpe_teams(4)", Substrate::cpe_teams(4)),
        ] {
            let mut s = suite.clone();
            s.sub = sub;
            s.block = b;
            assert!(
                output_bits(&s.step_columns(&cols)) == reference,
                "{label}: batched differs from per-column at b {b} on {target}"
            );
        }
    }
}

#[test]
fn batched_is_bitwise_per_column_over_levels_channels_and_batch_sizes() {
    for nlev in [1usize, 2, 3, 8, 20, 30] {
        for ch in [1usize, 3, 8, 16, 17, 32] {
            let suite = MlSuite::untrained(nlev, ch, 0x5EE9 + (nlev * 64 + ch) as u64);
            assert_blocks_bitwise(&suite, nlev, 7000, &format!("nlev {nlev} ch {ch}"));
        }
    }
}

#[test]
fn trained_suite_batched_is_bitwise_per_column() {
    let suite = trained_suite();
    assert_blocks_bitwise(suite, suite.nlev, 9000, "trained");
}

/// One `CnnScratch` serving two networks of different depth: the second
/// network's zero rows fall where the first wrote levels, so each call must
/// lay down its own padding.
#[test]
fn a_scratch_shared_by_two_networks_keeps_each_bitwise() {
    use grist_ml::{CnnScratch, TendencyCnn};
    let b = 4;
    let mut scratch = CnnScratch::new();
    for (nlev, seed) in [(8usize, 1u64), (5, 2), (8, 3), (3, 4)] {
        let net = TendencyCnn::new(nlev, 16, seed);
        let xs: Vec<f32> = (0..b * 5 * nlev)
            .map(|i| ((i as u64 * 7 + seed) as f32 * 0.37).sin())
            .collect();
        let mut ys = vec![0.0f32; b * 2 * nlev];
        net.infer_batch(b, &xs, &mut ys, &mut scratch);
        for (x, y) in xs.chunks_exact(5 * nlev).zip(ys.chunks_exact(2 * nlev)) {
            let y1 = net.infer(x);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y), bits(&y1), "nlev {nlev} after a deeper network");
        }
    }
}

#[test]
fn network_scratch_arenas_stop_growing_after_first_call() {
    use grist_ml::{CnnScratch, MlpScratch, RadiationMlp, TendencyCnn};
    let sample = |n: usize, seed: usize| -> Vec<f32> {
        (0..n)
            .map(|i| ((i + 7 * seed) as f32 * 0.173).sin())
            .collect()
    };
    let net = TendencyCnn::new(8, 8, 1);
    let mlp = RadiationMlp::new(6, 8, 2);
    let (mut cs, mut ms) = (CnnScratch::new(), MlpScratch::new());
    net.infer_batch(0, &[], &mut [], &mut cs);
    assert_eq!(cs.grows(), 0, "an empty batch sizes nothing");
    let xs = sample(4 * 5 * 8, 0);
    let mut ys = vec![0.0f32; 4 * 2 * 8];
    let xm = sample(4 * 6, 1);
    let mut ym = vec![0.0f32; 4 * 2];
    net.infer_batch(4, &xs, &mut ys, &mut cs);
    mlp.infer_batch(4, &xm, &mut ym, &mut ms);
    let (g1, g2) = (cs.grows(), ms.grows());
    assert!(g1 >= 1 && g2 >= 1);
    for _ in 0..5 {
        net.infer_batch(4, &xs, &mut ys, &mut cs);
        mlp.infer_batch(4, &xm, &mut ym, &mut ms);
        // A smaller batch must reuse the large-batch buffers too.
        net.infer_batch(2, &xs[..2 * 5 * 8], &mut ys[..2 * 2 * 8], &mut cs);
        mlp.infer_batch(2, &xm[..2 * 6], &mut ym[..2 * 2], &mut ms);
    }
    assert_eq!(cs.grows(), g1, "CNN scratch reallocated in steady state");
    assert_eq!(ms.grows(), g2, "MLP scratch reallocated in steady state");
}
