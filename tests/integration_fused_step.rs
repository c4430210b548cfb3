//! `NhSolver::step` against the step it replaced: one dynamics step composed
//! from the stand-alone `grist_dycore::operators` (`support/unfused_step.rs`),
//! one field written per pass, in the order the solver dispatched them before
//! its kernels were fused. The fused kernels form the same per-level
//! expressions in registers and column scratch, so every prognostic field
//! must agree bit for bit — on both precisions, both substrates and both
//! tracer cadences, from a state with a jet, vertical motion and physics
//! tendencies in it, so that no term of the equations is identically zero.

#[path = "support/unfused_step.rs"]
mod unfused_step;

use grist_core::{add_baroclinic_jet, GristModel, RunConfig};
use grist_dycore::{Field2, Real};
use sunway_sim::Substrate;
use unfused_step::{eos_one_log, precision_of, Unfused};

fn bits<R: Real>(f: &Field2<R>) -> Vec<u64> {
    f.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
}

/// Steps the solver and the unfused reference side by side from one state.
fn fused_equals_unfused<R: Real>(level: u32, sub: Substrate, dyn_per_trac: usize) {
    let base = RunConfig::for_level(level, 7);
    let precision = precision_of::<R>();
    let cfg = RunConfig {
        dt_trac: dyn_per_trac as f64 * base.dt_dyn,
        ..base.with_precision(precision)
    };
    let what = format!("level {level}, {precision:?}, {sub:?}, dyn_per_trac {dyn_per_trac}");
    let mut m = GristModel::<R>::with_substrate(cfg, sub);
    assert_eq!(m.solver.config.dyn_per_trac, dyn_per_trac, "{what}");
    add_baroclinic_jet(&mut m, 35.0, 1.5);
    // One physics window first: w, φ perturbations, heating and moistening
    // are all in the state the comparison starts from.
    m.advance(m.config.dt_phy);
    assert_eq!(
        m.solver.flux_steps, 0,
        "{what}: a window ends between cycles"
    );

    let dt = m.config.dt_dyn;
    let mut reference = Unfused::like(&m.solver, eos_one_log);
    let mut expect = m.state.clone();
    // Past one whole tracer cycle and into the next.
    for step in 1..=dyn_per_trac + 2 {
        m.solver.step(&mut m.state, dt);
        reference.step(&mut expect, dt);
        let (got, want) = (&m.state, &expect);
        assert_eq!(bits(&got.u), bits(&want.u), "{what}: u, step {step}");
        assert_eq!(bits(&got.dpi), bits(&want.dpi), "{what}: δπ, step {step}");
        assert_eq!(
            bits(&got.theta_m),
            bits(&want.theta_m),
            "{what}: Θ, step {step}"
        );
        assert_eq!(bits(&got.w), bits(&want.w), "{what}: w, step {step}");
        assert_eq!(bits(&got.phi), bits(&want.phi), "{what}: φ, step {step}");
        for (t, (q, q_want)) in got.tracers.iter().zip(&want.tracers).enumerate() {
            assert_eq!(bits(q), bits(q_want), "{what}: tracer {t}, step {step}");
        }
        assert_eq!(m.solver.flux_steps, reference.flux_steps, "{what}");
        if reference.flux_steps > 0 {
            assert_eq!(
                bits(&m.solver.flux_sum),
                bits(&reference.flux_sum),
                "{what}: accumulated flux, step {step}"
            );
        }
    }
    // The state moved, and in every field: nothing compared equal by being
    // left alone.
    let w_max = expect
        .w
        .as_slice()
        .iter()
        .fold(0.0f64, |a, &b| a.max(b.abs()));
    assert!(w_max > 1e-6, "{what}: no vertical motion ({w_max})");
    assert_eq!(m.metrics().counter("tracer.cfl_violations"), 0, "{what}");
}

fn every_configuration<R: Real>() {
    for level in [2, 3] {
        for dyn_per_trac in [1, 8] {
            fused_equals_unfused::<R>(level, Substrate::serial(), dyn_per_trac);
            fused_equals_unfused::<R>(level, Substrate::cpe_teams(4), dyn_per_trac);
        }
    }
}

#[test]
fn fused_step_equals_the_operator_composition_bit_for_bit_in_f64() {
    every_configuration::<f64>();
}

#[test]
fn fused_step_equals_the_operator_composition_bit_for_bit_in_f32() {
    every_configuration::<f32>();
}
