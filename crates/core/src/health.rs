//! Prognostic-field health monitoring: the detection half of the recovery
//! ladder.
//!
//! A reduced-precision dynamics blowup, a corrupted restore, or a physics
//! tendency gone wild all leave fingerprints in the prognostic fields long
//! before the run crashes: NaN/Inf values, non-positive layer masses or
//! potential temperatures, or winds whose acoustic CFL number no longer fits
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
use grist_dycore::Real;
use grist_mesh::EARTH_RADIUS_M;
use std::fmt;

/// Trust-region bounds for [`GristModel::health_with`] — defined once, in
/// `grist-obs`, so the streaming watch applies the same two numbers.
pub use grist_obs::HealthThresholds;

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
    /// Finite but non-physical values (`δπ ≤ 0`, `Θ ≤ 0`).
    pub non_physical: u64,
    /// Largest |u| over all edges/levels \[m/s\].
    pub max_abs_u: f64,
    /// Advective CFL number at the shortest edge.
    pub cfl: f64,
    /// Human-readable one-line diagnosis.
    pub diagnosis: String,
}

fn scan_slice_finite(values: impl Iterator<Item = f64>, non_finite: &mut u64) -> f64 {
    let mut max_abs = 0.0f64;
    for v in values {
        if !v.is_finite() {
            *non_finite += 1;
        } else {
            max_abs = max_abs.max(v.abs());
        }
    }
    max_abs
}

impl<R: Real> GristModel<R> {
    /// [`Self::health_with`] under the default [`HealthThresholds`].
    pub fn health(&self) -> HealthReport {
        self.health_with(&HealthThresholds::default())
    }

    /// Scan every prognostic field for NaN/Inf, non-physical layer values,
    /// and CFL blowup, and classify the run state.
    pub fn health_with(&self, thresholds: &HealthThresholds) -> HealthReport {
        let mut non_finite = 0u64;
        let mut non_physical = 0u64;
        for &v in self.state.dpi.as_slice() {
            if !v.is_finite() {
                non_finite += 1;
            } else if v <= 0.0 {
                non_physical += 1;
            }
        }
        for &v in self.state.theta_m.as_slice() {
            if !v.is_finite() {
                non_finite += 1;
            } else if v <= 0.0 {
                non_physical += 1;
            }
        }
        let max_abs_u = scan_slice_finite(
            self.state.u.as_slice().iter().map(|v| v.to_f64()),
            &mut non_finite,
        );
        scan_slice_finite(self.state.w.as_slice().iter().copied(), &mut non_finite);
        scan_slice_finite(self.state.phi.as_slice().iter().copied(), &mut non_finite);
        for t in &self.state.tracers {
            scan_slice_finite(t.as_slice().iter().map(|v| v.to_f64()), &mut non_finite);
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
                format!("{non_physical} non-positive mass/temperature layers"),
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
