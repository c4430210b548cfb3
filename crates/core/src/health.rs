//! Prognostic-field health monitoring: the detection half of the recovery
//! ladder.
//!
//! A reduced-precision dynamics blowup, a corrupted restore, or a physics
//! tendency gone wild all leave fingerprints in the prognostic fields long
//! before the run crashes: NaN/Inf values, non-positive layer masses,
//! potential temperatures or thicknesses, or winds whose acoustic CFL number
//! no longer fits
//! the timestep. [`GristModel::health`] scans every prognostic field and
//! classifies the run:
//!
//! * [`RunState::Healthy`] — all finite, positive where required, CFL sane;
//! * [`RunState::Unstable`] — finite but the wind speed or CFL number has
//!   left the trust region (the step *will* blow up; checkpoint now);
//! * [`RunState::Corrupt`] — non-finite or non-physical values present; the
//!   only remedy is restoring the last checkpoint.
//!
//! Each scan ticks `health.scans` in the metrics registry so chaos drivers
//! can assert the monitor actually ran.

use crate::model::GristModel;
use grist_dycore::{Field2, Real};
use grist_mesh::EARTH_RADIUS_M;
use std::fmt;

/// The wind/CFL trust region [`GristModel::health_with`] classifies a run
/// against. The scan is its only reader: the streaming health watch takes
/// the scan's verdict, not these numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthThresholds {
    /// Maximum plausible |u| \[m/s\] before the run is declared unstable.
    pub max_wind: f64,
    /// Maximum advective CFL number `max|u|·dt_dyn / min Δx`.
    pub max_cfl: f64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            max_wind: 350.0,
            max_cfl: 2.0,
        }
    }
}

/// Classified run state, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RunState {
    Healthy,
    Unstable,
    Corrupt,
}

impl fmt::Display for RunState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RunState::Healthy => "healthy",
            RunState::Unstable => "unstable",
            RunState::Corrupt => "corrupt",
        })
    }
}

/// One health scan's findings.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    pub state: RunState,
    /// NaN/Inf values found across all prognostic fields.
    pub non_finite: u64,
    /// Finite but non-physical values (`δπ ≤ 0`, `Θ ≤ 0`, `δφ ≤ 0`).
    pub non_physical: u64,
    /// Largest |u| over all edges/levels \[m/s\].
    pub max_abs_u: f64,
    /// Advective CFL number at the shortest edge.
    pub cfl: f64,
    /// Human-readable one-line diagnosis.
    pub diagnosis: String,
}

/// Non-finite count and largest finite `|v|` of a slice, without a branch
/// per value: the magnitude bits of a non-negative float order as the floats
/// do, so the maximum is an integer one and the loop vectorizes.
fn scan_finite<R: Real>(values: &[R]) -> (u64, f64) {
    const INF_BITS: u64 = f64::INFINITY.to_bits();
    let mut non_finite = 0u64;
    let mut max_bits = 0u64;
    for &v in values {
        let abs_bits = v.to_f64().to_bits() & (u64::MAX >> 1);
        let finite = abs_bits < INF_BITS;
        non_finite += u64::from(!finite);
        max_bits = max_bits.max(if finite { abs_bits } else { 0 });
    }
    (non_finite, f64::from_bits(max_bits))
}

/// Non-finite count and finite-but-not-positive count (`-0.0` included) of
/// a field that must be positive (`δπ`, `Θ`).
fn scan_positive(values: &[f64]) -> (u64, u64) {
    let (mut non_finite, mut non_physical) = (0u64, 0u64);
    for &v in values {
        non_finite += u64::from(!v.is_finite());
        non_physical += u64::from(v.is_finite() & (v <= 0.0));
    }
    (non_finite, non_physical)
}

/// Non-finite count of the interface geopotential and, in the same pass,
/// the layers whose thickness `δφ = φ_k − φ_{k+1}` is finite but not
/// positive — the one input, with `δπ` and `Θ`, that takes the equation of
/// state's `ln(δπ/δφ · R_d θ / p₀)` out of its domain.
fn scan_interfaces(phi: &Field2<f64>) -> (u64, u64) {
    let (mut non_finite, mut non_physical) = (0u64, 0u64);
    for column in phi.as_slice().chunks_exact(phi.nlev()) {
        for &v in column {
            non_finite += u64::from(!v.is_finite());
        }
        for (&upper, &lower) in column.iter().zip(&column[1..]) {
            let thickness = upper - lower;
            non_physical += u64::from(thickness.is_finite() & (thickness <= 0.0));
        }
    }
    (non_finite, non_physical)
}

impl<R: Real> GristModel<R> {
    /// [`Self::health_with`] under the default [`HealthThresholds`].
    pub fn health(&self) -> HealthReport {
        self.health_with(&HealthThresholds::default())
    }

    /// Scan every prognostic field for NaN/Inf, non-physical layer values,
    /// and CFL blowup, and classify the run state.
    pub fn health_with(&self, thresholds: &HealthThresholds) -> HealthReport {
        let fields = &self.state;
        let (u_non_finite, max_abs_u) = scan_finite(fields.u.as_slice());
        let mut non_finite = u_non_finite + scan_finite(fields.w.as_slice()).0;
        for t in &fields.tracers {
            non_finite += scan_finite(t.as_slice()).0;
        }
        let mut non_physical = 0u64;
        for (bad, unphysical) in [
            scan_positive(fields.dpi.as_slice()),
            scan_positive(fields.theta_m.as_slice()),
            scan_interfaces(&fields.phi),
        ] {
            non_finite += bad;
            non_physical += unphysical;
        }

        let mesh = &self.solver.mesh;
        let min_dx = mesh.edge_de.iter().fold(f64::INFINITY, |a, &b| a.min(b)) * EARTH_RADIUS_M;
        let cfl = if min_dx.is_finite() && min_dx > 0.0 {
            max_abs_u * self.config.dt_dyn / min_dx
        } else {
            0.0
        };

        let (state, diagnosis) = if non_finite > 0 {
            (
                RunState::Corrupt,
                format!("{non_finite} non-finite prognostic values"),
            )
        } else if non_physical > 0 {
            (
                RunState::Corrupt,
                format!("{non_physical} non-positive mass/temperature/thickness layers"),
            )
        } else if max_abs_u > thresholds.max_wind || cfl > thresholds.max_cfl {
            (
                RunState::Unstable,
                format!(
                    "max|u| = {max_abs_u:.1} m/s, CFL = {cfl:.2} (limits {} m/s, {})",
                    thresholds.max_wind, thresholds.max_cfl
                ),
            )
        } else {
            (
                RunState::Healthy,
                format!("max|u| = {max_abs_u:.1} m/s, CFL = {cfl:.2}"),
            )
        };
        self.metrics().counter_add("health.scans", 1);
        HealthReport {
            state,
            non_finite,
            non_physical,
            max_abs_u,
            cfl,
            diagnosis,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;

    fn model() -> GristModel<f64> {
        GristModel::<f64>::new(RunConfig::for_level(2, 6))
    }

    #[test]
    fn fresh_model_is_healthy() {
        let m = model();
        let h = m.health();
        assert_eq!(h.state, RunState::Healthy, "{}", h.diagnosis);
        assert_eq!(h.non_finite, 0);
        assert_eq!(h.non_physical, 0);
        assert!(h.cfl < 1.0, "rest state CFL should be tiny, got {}", h.cfl);
        assert_eq!(m.metrics().counter("health.scans"), 1);
    }

    #[test]
    fn nan_poke_is_classified_corrupt() {
        let mut m = model();
        m.state.u.set(0, 10, f64::NAN);
        let h = m.health();
        assert_eq!(h.state, RunState::Corrupt);
        assert_eq!(h.non_finite, 1);
        assert!(h.diagnosis.contains("non-finite"), "{}", h.diagnosis);
    }

    #[test]
    fn negative_layer_mass_is_corrupt() {
        let mut m = model();
        m.state.dpi.set(2, 5, -1.0);
        let h = m.health();
        assert_eq!(h.state, RunState::Corrupt);
        assert_eq!(h.non_physical, 1);
        assert!(h.diagnosis.contains("non-positive"), "{}", h.diagnosis);
    }

    #[test]
    fn collapsed_layer_is_corrupt_at_the_scan_that_sees_it() {
        // One interface pushed above the one over it: δφ ≤ 0 in that layer
        // (and a thicker one below), every value finite, δπ and Θ untouched.
        let mut m = model();
        let above = m.state.phi.at(2, 5);
        m.state.phi.set(3, 5, above + 1.0);
        let h = m.health();
        assert_eq!(h.state, RunState::Corrupt);
        assert_eq!((h.non_finite, h.non_physical), (0, 1));
        assert!(h.diagnosis.contains("thickness"), "{}", h.diagnosis);
        // Exactly zero thickness counts too.
        m.state.phi.set(3, 5, above);
        assert_eq!(m.health().non_physical, 1);
    }

    /// The scan as it was written value by value, each with its own branch.
    fn branchy_counts<R: Real>(m: &GristModel<R>) -> (u64, u64, f64) {
        let st = &m.state;
        let (mut non_finite, mut non_physical, mut max_abs_u) = (0u64, 0u64, 0.0f64);
        for field in [&st.dpi, &st.theta_m] {
            for &v in field.as_slice() {
                if !v.is_finite() {
                    non_finite += 1;
                } else if v <= 0.0 {
                    non_physical += 1;
                }
            }
        }
        for v in st.u.as_slice().iter().map(|v| v.to_f64()) {
            if !v.is_finite() {
                non_finite += 1;
            } else {
                max_abs_u = max_abs_u.max(v.abs());
            }
        }
        let mut rest = [&st.w, &st.phi].map(|f| f.to_f64_vec()).concat();
        rest.extend(st.tracers.iter().flat_map(|t| t.to_f64_vec()));
        for v in rest {
            if !v.is_finite() {
                non_finite += 1;
            }
        }
        (non_finite, non_physical, max_abs_u)
    }

    fn branch_free_scan_reports_what_the_branchy_one_did<R: Real>() {
        let mut m = GristModel::<R>::new(RunConfig::for_level(2, 6));
        crate::cases::add_baroclinic_jet(&mut m, 35.0, 1.5);
        m.advance(m.config.dt_phy);
        let check = |m: &GristModel<R>, what: &str| {
            let (non_finite, non_physical, max_abs_u) = branchy_counts(m);
            let h = m.health();
            assert_eq!(h.non_finite, non_finite, "{what}");
            assert_eq!(h.non_physical, non_physical, "{what}");
            assert_eq!(h.max_abs_u.to_bits(), max_abs_u.to_bits(), "{what}");
            let state = if non_finite + non_physical > 0 {
                RunState::Corrupt
            } else {
                RunState::Healthy
            };
            assert_eq!(h.state, state, "{what}: {}", h.diagnosis);
        };
        check(&m, "clean");
        assert!(m.health().max_abs_u > 1.0, "the jet is in the state");
        let clean = m.state.clone();
        // -0.0: a wind that is no maximum, a mass that is not positive.
        m.state.u.set(1, 7, R::from_f64(-0.0));
        m.state.dpi.set(1, 7, -0.0);
        check(&m, "-0.0");
        m.state = clean.clone();
        m.state.dpi.set(2, 5, -1.0);
        m.state.theta_m.set(0, 9, -300.0);
        check(&m, "negative mass and temperature");
        m.state = clean.clone();
        // Non-finite values larger in magnitude than every wind, in every
        // field kind, both signs: counted, and kept out of the maximum.
        m.state.u.set(0, 10, R::from_f64(f64::NAN));
        m.state.u.set(3, 11, R::from_f64(f64::NEG_INFINITY));
        m.state.w.set(2, 3, f64::INFINITY);
        m.state.phi.set(4, 3, f64::NAN);
        m.state.phi.set(1, 8, f64::NEG_INFINITY);
        m.state.tracers[1].set(5, 0, R::from_f64(f64::INFINITY));
        m.state.dpi.set(0, 0, f64::NAN);
        m.state.theta_m.set(0, 1, f64::INFINITY);
        check(&m, "NaN and Inf");
        assert_eq!(m.health().non_finite, 8);
    }

    #[test]
    fn branch_free_scan_reports_what_the_branchy_one_did_in_f64() {
        branch_free_scan_reports_what_the_branchy_one_did::<f64>();
    }

    #[test]
    fn branch_free_scan_reports_what_the_branchy_one_did_in_f32() {
        branch_free_scan_reports_what_the_branchy_one_did::<f32>();
    }

    #[test]
    fn hurricane_force_winds_are_unstable_not_corrupt() {
        let mut m = model();
        m.state.u.set(0, 0, 500.0);
        let h = m.health();
        assert_eq!(h.state, RunState::Unstable);
        assert_eq!(h.non_finite, 0);
        assert!(h.max_abs_u >= 500.0);
    }

    #[test]
    fn cfl_threshold_scales_with_timestep() {
        let mut m = model();
        // A wind below max_wind but whose CFL blows the budget at this dt.
        let mesh_min_dx = m
            .solver
            .mesh
            .edge_de
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b))
            * grist_mesh::EARTH_RADIUS_M;
        let u_cfl3 = 3.0 * mesh_min_dx / m.config.dt_dyn;
        let u = u_cfl3.min(300.0); // stay under max_wind if possible
        m.state.u.set(0, 0, u);
        let h = m.health_with(&HealthThresholds {
            max_wind: 1.0e9,
            max_cfl: 2.0,
        });
        if u_cfl3 <= 300.0 {
            assert_eq!(h.state, RunState::Unstable, "{}", h.diagnosis);
        }
        assert!(h.cfl > 0.0);
    }
}
