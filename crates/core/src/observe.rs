//! Wiring the model loop into the live telemetry plane.
//!
//! [`GristModel::sample_health`] is the model's single observation entry:
//! one streaming physics sample into an [`ObsPlane`] — mass and total
//! energy from the analytic budget (conservation drift), CFL margin and NaN
//! census from the health scan, and the tracer's live ring-drop count. The
//! plane's `HealthWatch` turns threshold crossings into typed alerts, which
//! the caller gets back per sample (and the SLO's alert budget sees
//! globally). Callers that also want the epoch's wall time on the plane
//! time their own `advance` (see `grist_serve::run_ensemble`).
//!
//! When the plane is disabled the whole sampling block is skipped behind
//! one relaxed atomic load.

use crate::health::RunState;
use crate::model::GristModel;
use grist_dycore::{energy_budget, Real};
use grist_obs::{Alert, HealthSample, ObsPlane};

impl<R: Real> GristModel<R> {
    /// Sample the streaming diagnostics into `plane` without advancing:
    /// energy/mass budget, health scan (under the watch's own wind/CFL
    /// bounds, so both layers agree on "unstable"), and live trace drops.
    /// Returns the alerts this sample raised (empty for a healthy state or
    /// a disabled plane).
    pub fn sample_health(&mut self, plane: &ObsPlane) -> Vec<Alert> {
        if !plane.is_enabled() {
            return Vec::new();
        }
        let report = self.health_with(&plane.watch().thresholds().stability);
        let budget = energy_budget(&mut self.solver, &self.state);
        plane.ingest_health(HealthSample {
            epoch: self.dyn_steps() as u64,
            mass: budget.mass,
            energy: budget.total(),
            cfl: report.cfl,
            max_abs_u: report.max_abs_u,
            non_finite: report.non_finite + report.non_physical,
            corrupt: report.state == RunState::Corrupt,
            trace_dropped: self.metrics().tracer().dropped_total(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::health::HealthThresholds;
    use grist_obs::{AlertKind, HealthWatch, WatchThresholds};

    fn model() -> GristModel<f64> {
        GristModel::<f64>::new(RunConfig::for_level(2, 6))
    }

    #[test]
    fn sampling_does_not_perturb_the_integration() {
        let plane = ObsPlane::default();
        let mut observed = model();
        let mut plain = model();
        for _ in 0..3 {
            observed.advance(observed.config.dt_dyn);
            observed.sample_health(&plane);
            plain.advance(plain.config.dt_dyn);
        }
        assert_eq!(
            observed.state_hash(),
            plain.state_hash(),
            "observation must not perturb the integration"
        );
        assert_eq!(plane.watch().ingested(), 3);
    }

    #[test]
    fn healthy_short_run_raises_no_alerts() {
        let plane = ObsPlane::default();
        let mut m = model();
        for _ in 0..5 {
            m.advance(m.config.dt_dyn);
            let alerts = m.sample_health(&plane);
            assert!(alerts.is_empty(), "unexpected alerts: {alerts:?}");
        }
        assert_eq!(plane.watch().alert_count(), 0);
    }

    #[test]
    fn corrupted_state_raises_a_corrupt_alert() {
        let plane = ObsPlane::default();
        let mut m = model();
        m.sample_health(&plane); // healthy baseline
        m.state.u.set(0, 0, f64::NAN);
        let alerts = m.sample_health(&plane);
        assert!(
            alerts.iter().any(|a| a.kind == AlertKind::Corrupt),
            "NaN poke must alert: {alerts:?}"
        );
    }

    #[test]
    fn disabled_plane_skips_sampling_entirely() {
        let plane = ObsPlane::disabled();
        let mut m = model();
        let scans_before = m.metrics().counter("health.scans");
        assert!(m.sample_health(&plane).is_empty());
        assert_eq!(
            m.metrics().counter("health.scans"),
            scans_before,
            "no health scan on the disabled path"
        );
        assert_eq!(plane.watch().ingested(), 0);
    }

    #[test]
    fn scan_and_watch_classify_the_same_wind_and_cfl_sample_identically() {
        // Bounds chosen so each is the binding one for some wind below.
        let mut m = model();
        let cfl_per_ms = {
            m.state.u.set(0, 0, 100.0);
            let r = m.health();
            r.cfl / r.max_abs_u
        };
        let cases = [
            HealthThresholds::default(),
            HealthThresholds {
                max_wind: 1.0e9,
                max_cfl: 40.0 * cfl_per_ms,
            },
            HealthThresholds {
                max_wind: 40.0,
                max_cfl: 1.0e9,
            },
        ];
        for t in cases {
            for wind in [10.0, 39.9, 40.0, 40.1, 349.0, 351.0, 500.0] {
                m.state.u.set(0, 0, wind);
                let report = m.health_with(&t);
                let watch = HealthWatch::new(
                    WatchThresholds {
                        stability: t,
                        ..WatchThresholds::default()
                    },
                    4,
                );
                let alerts = watch.ingest(HealthSample {
                    epoch: 0,
                    mass: 1.0,
                    energy: 1.0,
                    cfl: report.cfl,
                    max_abs_u: report.max_abs_u,
                    non_finite: 0,
                    corrupt: false,
                    trace_dropped: 0,
                });
                let watch_unstable = alerts
                    .iter()
                    .any(|a| matches!(a.kind, AlertKind::Wind | AlertKind::CflMargin));
                assert_eq!(
                    report.state == RunState::Unstable,
                    watch_unstable,
                    "wind {wind} under {t:?}: scan says {}, watch raised {alerts:?}",
                    report.state
                );
            }
        }
    }
}
