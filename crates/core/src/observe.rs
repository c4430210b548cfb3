//! Sampling the model loop into a health watch.
//!
//! [`GristModel::sample_health`] is the model's single observation entry:
//! one streaming physics sample into a [`HealthWatch`] — mass and total
//! energy from the analytic budget (conservation drift), the health scan's
//! verdict and NaN census, and the tracer's live ring-drop count. The watch
//! turns threshold crossings into typed alerts, which the caller gets back
//! per sample. A watch measures drift against its own first sample, so each
//! model samples into its own watch (`grist_serve::run_ensemble` keeps one
//! per member).

use crate::health::RunState;
use crate::model::GristModel;
use grist_dycore::{energy_budget, Real};
use grist_obs::{Alert, HealthSample, HealthWatch};

impl<R: Real> GristModel<R> {
    /// Sample the streaming diagnostics into `watch` without advancing:
    /// energy/mass budget, one health scan under the default
    /// [`HealthThresholds`](crate::HealthThresholds) (its verdict is what
    /// the watch alerts on), and live trace drops. Returns the alerts this
    /// sample raised (empty for a healthy state).
    pub fn sample_health(&mut self, watch: &mut HealthWatch) -> Vec<Alert> {
        let report = self.health();
        let budget = energy_budget(&mut self.solver, &self.state);
        watch.ingest(HealthSample {
            epoch: self.dyn_steps() as u64,
            mass: budget.mass,
            energy: budget.total(),
            max_abs_u: report.max_abs_u,
            non_finite: report.non_finite + report.non_physical,
            unstable: report.state == RunState::Unstable,
            corrupt: report.state == RunState::Corrupt,
            trace_dropped: self.metrics().tracer().dropped_total(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use grist_obs::{AlertKind, WatchThresholds};

    fn model() -> GristModel<f64> {
        GristModel::<f64>::new(RunConfig::for_level(2, 6))
    }

    fn watch() -> HealthWatch {
        HealthWatch::new(WatchThresholds::default())
    }

    #[test]
    fn sampling_does_not_perturb_the_integration() {
        let mut w = watch();
        let mut observed = model();
        let mut plain = model();
        for _ in 0..3 {
            observed.advance(observed.config.dt_dyn);
            observed.sample_health(&mut w);
            plain.advance(plain.config.dt_dyn);
        }
        assert_eq!(
            observed.state_hash(),
            plain.state_hash(),
            "observation must not perturb the integration"
        );
    }

    #[test]
    fn healthy_short_run_raises_no_alerts() {
        let mut w = watch();
        let mut m = model();
        for _ in 0..5 {
            m.advance(m.config.dt_dyn);
            let alerts = m.sample_health(&mut w);
            assert!(alerts.is_empty(), "unexpected alerts: {alerts:?}");
        }
        assert!(w.alerts().is_empty());
    }

    #[test]
    fn corrupted_state_raises_a_corrupt_alert() {
        let mut w = watch();
        let mut m = model();
        m.sample_health(&mut w); // healthy baseline
        m.state.u.set(0, 0, f64::NAN);
        let alerts = m.sample_health(&mut w);
        assert!(
            alerts.iter().any(|a| a.kind == AlertKind::Corrupt),
            "NaN poke must alert: {alerts:?}"
        );
    }

    #[test]
    fn an_unstable_scan_is_one_unstable_alert() {
        let mut w = watch();
        let mut m = model();
        m.sample_health(&mut w);
        m.state.u.set(0, 0, 500.0);
        assert_eq!(m.health().state, RunState::Unstable);
        let alerts = m.sample_health(&mut w);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::Unstable);
        assert!(alerts[0].value >= 500.0, "the peak wind rides on the alert");
    }

    #[test]
    fn each_model_keeps_its_own_watch() {
        // Two ensemble-like members: one at rest, one carrying a baroclinic
        // jet, which raises the total energy by about 2e-4 (relative). Over
        // three steps each member's own energy drifts by under 4e-6, so a
        // 5e-5 bound separates the two: quiet per member, tripped across.
        let bounds = WatchThresholds {
            max_energy_drift: 5e-5,
            ..WatchThresholds::default()
        };
        let mut rest = model();
        let mut jet = model();
        crate::cases::add_baroclinic_jet(&mut jet, 35.0, 1.5);
        let e_rest = energy_budget(&mut rest.solver, &rest.state).total();
        let e_jet = energy_budget(&mut jet.solver, &jet.state).total();
        assert!(
            (e_jet / e_rest - 1.0).abs() > bounds.max_energy_drift,
            "energies {e_rest:e} vs {e_jet:e} must differ by more than the bound"
        );
        // Each member samples into its own watch and, the same state again,
        // into one shared watch. The shared one measures the jet member's
        // drift against the resting member's first sample, and every resting
        // sample re-arms its edge trigger, so each jet sample alerts.
        let (mut w_rest, mut w_jet) = (HealthWatch::new(bounds), HealthWatch::new(bounds));
        let mut shared = HealthWatch::new(bounds);
        for _ in 0..3 {
            for (m, w) in [(&mut rest, &mut w_rest), (&mut jet, &mut w_jet)] {
                m.advance(m.config.dt_dyn);
                let alerts = m.sample_health(w);
                assert!(alerts.is_empty(), "own watch: {alerts:?}");
                m.sample_health(&mut shared);
            }
        }
        let kinds: Vec<AlertKind> = shared.alerts().iter().map(|a| a.kind).collect();
        assert_eq!(kinds, [AlertKind::EnergyDrift; 3], "{:?}", shared.alerts());
    }
}
