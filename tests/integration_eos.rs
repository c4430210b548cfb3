//! What vouches for the one-logarithm equation of state: `Π = exp(κγ ln X)`
//! and `p = p₀ exp(γ ln X)`, `X = ρ R_d θ / p₀`, against the chained `powf`
//! form `p = p₀ X^γ`, `Π = (p/p₀)^κ` the solver evaluated before — value by
//! value to a few ε, and over a physics window of dynamics steps to 1e-11,
//! against the operator-composed reference step (`support/unfused_step.rs`)
//! run on the `powf` form. The scenario hashes moved with the change; these
//! bounds, not a hash, say the physics did not.

#[path = "support/unfused_step.rs"]
mod unfused_step;

use grist_core::{add_baroclinic_jet, GristModel, RunConfig};
use grist_dycore::constants::{KAPPA, P0, RDRY};
use grist_dycore::{relative_l2_error, Real};
use std::fmt::Arguments;
use unfused_step::{eos_one_log, eos_powf, precision_of, Unfused};

/// Pointwise budget, relative: eight ε.
const TOL: f64 = 8.0 * f64::EPSILON;

fn rel(got: f64, want: f64) -> f64 {
    ((got - want) / want).abs()
}

/// `(p, Π)` of one layer against the `powf` composition on the same inputs,
/// and against each other: the coupling's `T = θΠ` and the physics' `p` must
/// describe one state.
fn check_layer(p: f64, exner: f64, dpi: f64, theta: f64, dphi: f64, what: Arguments) {
    let (p_pow, exner_pow) = eos_powf(dpi, theta, dphi);
    for (name, got, want) in [
        ("p", p, p_pow),
        ("Π", exner, exner_pow),
        ("(p/p₀)^κ against Π", (p / P0).powf(KAPPA), exner),
    ] {
        let e = rel(got, want);
        assert!(
            e <= TOL,
            "{what}: {name} {got} vs {want} ({:.2} ε)",
            e / f64::EPSILON
        );
    }
}

#[test]
fn one_log_eos_is_the_powf_eos_to_rounding_over_the_range_of_x() {
    // X from a hundredth of the model top's to twice the surface's, through
    // the expressions `integration_fused_step` holds bit for bit to the
    // solver's.
    let (theta, dphi) = (300.0, 1000.0);
    let n = 100_000;
    let (lo, hi) = (1e-4f64.ln(), 2f64.ln());
    for i in 0..=n {
        let x = (lo + (hi - lo) * i as f64 / n as f64).exp();
        let dpi = x * P0 * dphi / (RDRY * theta);
        let (p, exner) = eos_one_log(dpi, theta, dphi);
        check_layer(p, exner, dpi, theta, dphi, format_args!("X = {x:e}"));
    }
}

/// A model with the jet in it, one physics window in: vertical motion,
/// heating and moistening are all in the state.
fn jet_model<R: Real>(level: u32, nlev: usize) -> GristModel<R> {
    let cfg = RunConfig::for_level(level, nlev).with_precision(precision_of::<R>());
    let mut m = GristModel::<R>::new(cfg);
    assert_eq!(m.solver.config.dyn_per_trac, 8);
    add_baroclinic_jet(&mut m, 35.0, 1.5);
    m.advance(m.config.dt_phy);
    assert_eq!(m.solver.flux_steps, 0, "a window ends between cycles");
    m
}

#[test]
fn diagnosed_fields_are_the_powf_eos_to_rounding_in_every_cell_level() {
    let mut m = jet_model::<f64>(3, 20);
    let (pres, theta, dphi, exner) = m.solver.diagnose_fields(&m.state);
    let (nlev, nc) = (pres.nlev(), pres.ncols());
    for c in 0..nc {
        for k in 0..nlev {
            check_layer(
                pres.at(k, c),
                exner.at(k, c),
                m.state.dpi.at(k, c),
                theta.at(k, c),
                dphi.at(k, c),
                format_args!("cell {c} level {k}"),
            );
        }
    }
    assert_eq!(nlev * nc, 20 * 642);
}

/// One physics window of `NhSolver::step` against the unfused reference on
/// the `powf` equation of state, from one state.
fn window_tracks_the_powf_step<R: Real>() {
    let mut m = jet_model::<R>(3, 20);
    let what = format!("{:?}", m.config.precision);
    let dt = m.config.dt_dyn;
    let steps = m.config.dyn_per_phy();
    assert_eq!(steps, 16);
    let mut reference = Unfused::like(&m.solver, eos_powf);
    let mut expect = m.state.clone();
    for _ in 0..steps {
        m.solver.step(&mut m.state, dt);
        reference.step(&mut expect, dt);
    }
    assert_eq!((m.solver.flux_steps, reference.flux_steps), (0, 0));

    let p_top = m.solver.vc.p_top;
    let l2 = [
        (
            "ps",
            relative_l2_error(
                &m.state.surface_pressure(p_top),
                &expect.surface_pressure(p_top),
            ),
        ),
        (
            "vor",
            relative_l2_error(
                &m.solver.vorticity_diag(&m.state),
                &m.solver.vorticity_diag(&expect),
            ),
        ),
        (
            "Θ",
            relative_l2_error(m.state.theta_m.as_slice(), expect.theta_m.as_slice()),
        ),
    ];
    for (field, e) in l2 {
        println!("{what}: relative L2 of {field} = {e:e}");
        assert!(e <= 1e-11, "{what}: relative L2 of {field} = {e:e}");
    }
    let (mass, mass_ref) = (
        m.solver.total_dry_mass(&m.state),
        m.solver.total_dry_mass(&expect),
    );
    assert!(
        rel(mass, mass_ref) <= 1e-14,
        "{what}: dry mass {mass:e} vs {mass_ref:e}"
    );
    // The two runs are two runs: the forms differ in the last bits, and the
    // window is long enough for that to reach the state.
    assert_ne!(
        m.state.phi.as_slice(),
        expect.phi.as_slice(),
        "{what}: the reference ran the solver's own equation of state"
    );
    assert_eq!(m.metrics().counter("tracer.cfl_violations"), 0, "{what}");
}

#[test]
fn a_physics_window_tracks_the_powf_step_in_f64() {
    window_tracks_the_powf_step::<f64>();
}

#[test]
fn a_physics_window_tracks_the_powf_step_in_mixed_precision() {
    window_tracks_the_powf_step::<f32>();
}
