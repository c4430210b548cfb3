//! The checkpoint image codec, end to end through the public API: capture,
//! `to_bytes`, `from_bytes`, `restore`. What the image must carry exactly
//! (every bit pattern, at the model's own width) and what it must refuse
//! (anything truncated, damaged, foreign or captured from a different
//! model) — always as a typed error that leaves the target model untouched.

use grist_core::{
    add_baroclinic_jet, Checkpoint, GristModel, HaloPhase, RecoveryPolicy, RunConfig,
};
use grist_dycore::Real;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Schema tag and checksum width of the serialized form (DESIGN.md §8).
const SCHEMA: &str = "grist-ckpt-v3";
const TRAILER: usize = 8;

/// Values a decimal or rounding codec would lose, at `T`'s own width.
fn specials<T: Real>() -> Vec<T> {
    if T::BYTES == 4 {
        [
            0.0f32,
            -0.0,
            1.0,
            std::f32::consts::PI,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x007f_ffff), // largest subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_beef), // quiet NaN with payload
            f32::from_bits(0xff80_0001), // negative signalling NaN
        ]
        .map(|v| T::read_le(&v.to_le_bytes()))
        .to_vec()
    } else {
        [
            0.0f64,
            -0.0,
            1.0,
            std::f64::consts::PI,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
        ]
        .map(|v| T::read_le(&v.to_le_bytes()))
        .to_vec()
    }
}

fn bit_patterns<T: Real>(values: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; values.len() * T::BYTES];
    for (dst, v) in out.chunks_exact_mut(T::BYTES).zip(values) {
        v.write_le(dst);
    }
    out
}

fn cfg() -> RunConfig {
    RunConfig::for_level(2, 6)
}

/// Serialize, parse, and restore into a freshly built model.
fn through_the_wire<R: Real>(m: &GristModel<R>) -> GristModel<R> {
    let wire = m.checkpoint().to_bytes();
    let mut fresh = GristModel::<R>::new(m.config.clone());
    fresh
        .restore(&Checkpoint::from_bytes(&wire).expect("own image parses"))
        .expect("own image restores");
    fresh
}

fn special_values_round_trip_by_bit_pattern<R: Real>() {
    let mut m = GristModel::<R>::new(cfg());
    let (wide, native) = (specials::<f64>(), specials::<R>());
    m.state.dpi.as_mut_slice()[..wide.len()].copy_from_slice(&wide);
    m.state.phi.as_mut_slice()[7..7 + wide.len()].copy_from_slice(&wide);
    m.state.u.as_mut_slice()[3..3 + native.len()].copy_from_slice(&native);
    m.state.tracers[2].as_mut_slice()[..native.len()].copy_from_slice(&native);
    m.surface.tskin[..wide.len()].copy_from_slice(&wide);
    m.precip_accum[5..5 + wide.len()].copy_from_slice(&wide);
    m.time_s = f64::from_bits(0x7ff8_0000_0000_0042);
    m.declination = -0.0;
    let back = through_the_wire(&m);
    let same = |a: &[f64], b: &[f64]| bit_patterns(a) == bit_patterns(b);
    assert!(same(m.state.dpi.as_slice(), back.state.dpi.as_slice()));
    assert!(same(m.state.phi.as_slice(), back.state.phi.as_slice()));
    assert!(same(&m.surface.tskin, &back.surface.tskin));
    assert!(same(&m.precip_accum, &back.precip_accum));
    assert!(same(
        &[m.time_s, m.declination],
        &[back.time_s, back.declination]
    ));
    assert_eq!(
        bit_patterns(m.state.u.as_slice()),
        bit_patterns(back.state.u.as_slice()),
        "{} u",
        R::NAME
    );
    assert_eq!(
        bit_patterns(m.state.tracers[2].as_slice()),
        bit_patterns(back.state.tracers[2].as_slice()),
        "{} tracer",
        R::NAME
    );
    assert_eq!(m.state_hash(), back.state_hash());
}

#[test]
fn image_roundtrip_is_lossless_including_nan_payloads_and_subnormals() {
    special_values_round_trip_by_bit_pattern::<f64>();
    special_values_round_trip_by_bit_pattern::<f32>();
}

/// Feed `wire` through parse + restore into `target`; whatever fails
/// must fail as a typed error and leave `target` untouched.
fn must_be_rejected<R: Real>(target: &mut GristModel<R>, wire: &[u8], what: &str) {
    let hash = target.state_hash();
    let result = Checkpoint::from_bytes(wire).and_then(|ck| target.restore(&ck));
    assert!(result.is_err(), "{what}: accepted");
    assert_eq!(target.state_hash(), hash, "{what}: state touched");
    assert_eq!(target.metrics().counter("recovery.restores"), 0, "{what}");
}

fn damaged_images_are_typed_errors<R: Real>() {
    // Three steps past a physics window: the image carries the optional
    // mid-cycle section and its header token, so both are damaged too.
    let mut source = GristModel::<R>::new(cfg());
    source.advance(source.config.dt_phy + 3.0 * source.config.dt_dyn);
    let wire = source.checkpoint().to_bytes();
    assert!(wire.starts_with(SCHEMA.as_bytes()));
    assert!(wire[..wire.iter().position(|&b| b == b'\n').unwrap()].ends_with(b" trac_steps=3"));
    // Nothing parses, so nothing reaches a model.
    for cut in 0..wire.len() {
        let err = Checkpoint::from_bytes(&wire[..cut]).expect_err("strict prefix accepted");
        assert!(!err.what.is_empty(), "prefix {cut}");
    }

    let mut target = GristModel::<R>::new(cfg());
    let header_len = wire.iter().position(|&b| b == b'\n').unwrap() + 1;
    let trailer_at = wire.len() - TRAILER;
    let flips = (0..header_len)
        .chain((header_len..trailer_at).step_by(997))
        .chain(trailer_at - 1..wire.len());
    for at in flips {
        for mask in [0x01, 0x80] {
            let mut bad = wire.clone();
            bad[at] ^= mask;
            must_be_rejected(&mut target, &bad, &format!("byte {at} ^ {mask:#x}"));
        }
    }
    let mut long = wire.clone();
    long.push(0);
    must_be_rejected(&mut target, &long, "trailing byte");
    // The undamaged image still restores: the rejections above were
    // about the damage, not the target.
    target
        .restore(&Checkpoint::from_bytes(&wire).unwrap())
        .unwrap();
    assert_eq!(target.state_hash(), source.state_hash());
}

#[test]
fn every_strict_prefix_and_any_flipped_byte_is_a_typed_error() {
    damaged_images_are_typed_errors::<f64>();
    damaged_images_are_typed_errors::<f32>();
}

#[test]
fn checkpoint_serializes_parses_and_restores_bitwise() {
    let mut m = GristModel::<f64>::new(cfg());
    m.advance(2.0 * m.config.dt_phy);
    let ck = m.checkpoint();
    let wire = ck.to_bytes();
    assert_eq!(ck.byte_len(), wire.len());
    let reparsed = Checkpoint::from_bytes(&wire).unwrap();
    assert!(reparsed == ck, "parse(serialize(ck)) != ck");
    // Wreck the model, then restore from the re-parsed image.
    let hash = m.state_hash();
    let (t, steps) = (m.time_s, m.dyn_steps());
    m.advance(m.config.dt_phy);
    assert_ne!(m.state_hash(), hash, "advancing must change the hash");
    m.restore(&reparsed).unwrap();
    assert_eq!(m.state_hash(), hash, "restore must be bit-for-bit");
    assert_eq!((m.time_s, m.dyn_steps()), (t, steps));
    let metrics = m.metrics();
    assert_eq!(metrics.counter("checkpoint.captures"), 1);
    assert_eq!(metrics.counter("checkpoint.bytes"), ck.byte_len() as u64);
    assert_eq!(metrics.counter("recovery.restores"), 1);
}

#[test]
fn restore_rejects_wrong_schema_and_wrong_shape() {
    let err = Checkpoint::from_bytes(br#"{"schema": "grist-bench-v1"}"#).unwrap_err();
    assert!(err.to_string().contains("schema"), "{err}");
    // The JSON format this one replaced has no reader left; its documents
    // are foreign too, named by found tag and expected tag.
    let v1 = b"{\n  \"schema\": \"grist-checkpoint-v1\",\n  \"precision\": \"f64\"\n}";
    let err = Checkpoint::from_bytes(v1).unwrap_err();
    assert!(
        err.to_string().contains("schema tag \"{\"") && err.to_string().contains(SCHEMA),
        "{err}"
    );
    // So is the image format before the optional mid-cycle section.
    let mut v2 = GristModel::<f64>::new(cfg()).checkpoint().to_bytes();
    v2[SCHEMA.len() - 1] = b'2';
    let err = Checkpoint::from_bytes(&v2).unwrap_err();
    assert!(
        err.to_string().contains("grist-ckpt-v2") && err.to_string().contains(SCHEMA),
        "{err}"
    );
    // A checkpoint from a different vertical resolution must not restore.
    let other = GristModel::<f64>::new(RunConfig::for_level(2, 8)).checkpoint();
    let mut m = GristModel::<f64>::new(cfg());
    let hash = m.state_hash();
    let err = m.restore(&other).unwrap_err();
    assert!(
        err.to_string().contains("shape mismatch")
            && err.to_string().contains("nlev=8")
            && err.to_string().contains("nlev=6"),
        "{err}"
    );
    assert_eq!(m.state_hash(), hash, "rejection must not touch state");
}

#[test]
fn cross_precision_restore_is_rejected_naming_both_precisions() {
    // The shapes of an f64 and an f32 model at the same resolution are
    // identical; only the precision tag tells their images apart.
    let ck64 = GristModel::<f64>::new(cfg()).checkpoint();
    let ck32 = GristModel::<f32>::new(cfg()).checkpoint();

    let mut m32 = GristModel::<f32>::new(cfg());
    m32.advance(m32.config.dt_phy);
    let hash = m32.state_hash();
    let err = m32.restore(&ck64).unwrap_err();
    assert!(
        err.to_string().contains("precision mismatch")
            && err.to_string().contains("f64")
            && err.to_string().contains("f32"),
        "{err}"
    );
    assert_eq!(m32.state_hash(), hash, "rejection must not touch state");
    assert_eq!(m32.metrics().counter("recovery.restores"), 0);

    let mut m64 = GristModel::<f64>::new(cfg());
    let err = m64.restore(&ck32).unwrap_err();
    assert!(err.to_string().contains("precision mismatch"), "{err}");

    // An image missing the tag, or carrying an unknown one, is
    // rejected, not assumed.
    let wire = ck64.to_bytes();
    for replacement in ["", " f16"] {
        let mut bad = format!("{SCHEMA}{replacement}").into_bytes();
        bad.extend_from_slice(&wire[SCHEMA.len() + " f64".len()..]);
        let err = Checkpoint::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("precision"), "{err}");
    }
}

#[test]
fn f32_model_checkpoints_at_its_own_width_and_restores_exactly() {
    let mut m = GristModel::<f32>::new(cfg());
    m.advance(2.0 * m.config.dt_phy);
    let ck = m.checkpoint();
    let u_before: Vec<f32> = m.state.u.as_slice().to_vec();
    let hash = m.state_hash();
    m.advance(m.config.dt_phy);
    m.restore(&Checkpoint::from_bytes(&ck.to_bytes()).unwrap())
        .unwrap();
    assert_eq!(m.state_hash(), hash);
    assert_eq!(
        m.state.u.as_slice(),
        &u_before[..],
        "f32 u restored exactly"
    );
    let wide = GristModel::<f64>::new(cfg()).checkpoint();
    assert!(
        ck.byte_len() < wide.byte_len(),
        "f32 image {} B, f64 image {} B",
        ck.byte_len(),
        wide.byte_len()
    );
}

/// A small model whose physics is a pure function of the column state, so a
/// restart can be bitwise (see `integration_chaos`'s restart test).
fn restartable() -> RunConfig {
    RunConfig::for_level(2, 6).with_ml_physics(true)
}

/// ... in a jet, so mass moves — and the flux sum is not all zeros — from the
/// first step on.
fn in_a_jet(cfg: &RunConfig) -> GristModel<f64> {
    let mut m = GristModel::<f64>::new(cfg.clone());
    add_baroclinic_jet(&mut m, 35.0, 1.0);
    m
}

#[test]
fn restart_is_bitwise_from_every_offset_of_the_tracer_cycle() {
    let cfg = restartable();
    let (per_trac, nlev) = (cfg.dyn_per_trac(), cfg.nlev);
    assert_eq!(per_trac, 8);
    let windows = 2.0 * cfg.dt_phy;
    let mut aligned_len = 0;
    for k in 0..per_trac {
        let mut primary = in_a_jet(&cfg);
        primary.advance(k as f64 * cfg.dt_dyn);
        let ck = primary.checkpoint();
        let at_capture = primary.state_hash();
        primary.advance(windows);

        // Only a mid-cycle image carries the flux sum, and says so.
        let wire = ck.to_bytes();
        let header_len = wire.iter().position(|&b| b == b'\n').unwrap();
        let header = String::from_utf8_lossy(&wire[..header_len]).into_owned();
        if k == 0 {
            aligned_len = wire.len();
            assert!(!header.contains("trac_steps"), "{header}");
        } else {
            let token = format!(" trac_steps={k}");
            assert!(header.ends_with(&token), "{header}");
            let flux_sum = 8 * nlev * primary.state.u.ncols();
            assert_eq!(
                wire.len(),
                aligned_len + token.len() + flux_sum,
                "offset {k}"
            );
        }

        // The target is itself three steps into a cycle: whatever it had
        // accumulated must be gone after the restore.
        let mut resumed = in_a_jet(&cfg);
        resumed.advance(3.0 * cfg.dt_dyn);
        resumed
            .restore(&Checkpoint::from_bytes(&wire).expect("own image parses"))
            .expect("own image restores");
        assert_eq!(resumed.solver.flux_steps, k);
        assert_eq!(resumed.state_hash(), at_capture, "offset {k}");
        resumed.advance(windows);
        assert_eq!(
            resumed.state_hash(),
            primary.state_hash(),
            "restart from {k} steps into a tracer cycle diverged"
        );
    }
}

#[test]
fn the_hash_between_tracer_steps_covers_the_accumulated_flux() {
    let mut m = in_a_jet(&restartable());
    m.advance(3.0 * m.config.dt_dyn);
    let hash = m.state_hash();
    let v = m.solver.flux_sum.at(0, 5);
    m.solver.flux_sum.set(0, 5, v + 1.0);
    assert_ne!(m.state_hash(), hash);
    m.solver.flux_sum.set(0, 5, v);
    assert_eq!(m.state_hash(), hash);
}

#[test]
fn a_mid_cycle_image_restores_only_into_a_model_on_a_longer_cadence() {
    let cfg = restartable();
    let mut source = in_a_jet(&cfg);
    source.advance(5.0 * cfg.dt_dyn);
    let ck = source.checkpoint();
    for dyn_per_trac in [1.0, 5.0] {
        let mut target = GristModel::<f64>::new(RunConfig {
            dt_trac: dyn_per_trac * cfg.dt_dyn,
            ..cfg.clone()
        });
        let hash = target.state_hash();
        let err = target.restore(&ck).unwrap_err();
        assert!(err.to_string().contains("tracer cadence mismatch"), "{err}");
        assert_eq!(target.state_hash(), hash, "rejection must not touch state");
    }
    let mut longer = GristModel::<f64>::new(RunConfig {
        dt_trac: 6.0 * cfg.dt_dyn,
        ..cfg
    });
    longer
        .restore(&ck)
        .expect("five steps into a six-step cycle");
}

#[test]
fn a_mid_cycle_rollback_ends_on_the_uninterrupted_hash() {
    // Checkpoints every 3 dyn steps land inside the 8-step tracer cycle. A
    // NaN appears in `u` after step 14; the scan at step 15 finds it and
    // rolls back to step 12, four steps into a cycle, with three more steps'
    // worth of flux — and a NaN — in the live accumulator.
    let cfg = RunConfig {
        recovery: RecoveryPolicy {
            checkpoint_interval: 3,
            ..RecoveryPolicy::default()
        },
        ..restartable()
    };
    let window = 2.0 * cfg.dt_phy;
    let mut clean = in_a_jet(&cfg);
    let out = clean.advance_resilient(window);
    assert!(out.completed && out.restores == 0);

    let mut faulty = in_a_jet(&cfg);
    let completed_steps = AtomicUsize::new(0);
    faulty.set_halo_hook(Box::new(move |phase, state| {
        if phase == HaloPhase::Complete && completed_steps.fetch_add(1, Ordering::Relaxed) == 13 {
            state.u.set(0, 3, f64::NAN);
        }
    }));
    let out = faulty.advance_resilient(window);
    assert!(out.completed, "{}", out.final_health.diagnosis);
    assert_eq!(out.restores, 1);
    assert_eq!(faulty.dyn_steps(), clean.dyn_steps());
    assert_eq!(faulty.state_hash(), clean.state_hash());
}
