//! Physics health watch: one model's diagnostic stream, with
//! edge-triggered, typed alerts.
//!
//! The per-call health scan (`GristModel::health`) answers "is this state
//! sane right now"; [`HealthWatch`] answers the streaming question — *is the
//! run drifting* — by ingesting one [`HealthSample`] per epoch: mass and
//! energy conservation drift against the *first* sample, the scan's own
//! verdict (unstable, corrupt), and tracer ring drops. The watch classifies
//! nothing the scan already classified: an unstable verdict is one
//! [`AlertKind::Unstable`] alert, whatever bound the scan applied.
//!
//! Drift is measured against the model's own first sample, so one watch
//! observes one model: an ensemble keeps one watch per member.
//!
//! Alerts are edge-triggered: a run sitting above a threshold alerts once on
//! the crossing, not once per epoch, so an alert budget of zero is a
//! meaningful SLO term.

/// One epoch's worth of streaming diagnostics, as sampled by
/// `GristModel::sample_health` (or synthesized by tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSample {
    /// Model epoch (dyn-step count) at sampling time.
    pub epoch: u64,
    /// Total mass from the energy budget (conservation reference).
    pub mass: f64,
    /// Total energy (kinetic + internal + potential) from the budget.
    pub energy: f64,
    /// Largest |u| seen in the state.
    pub max_abs_u: f64,
    /// Non-finite or non-physical values the scan found.
    pub non_finite: u64,
    /// `true` when the health scan diagnosed `RunState::Unstable`.
    pub unstable: bool,
    /// `true` when the health scan diagnosed `RunState::Corrupt`.
    pub corrupt: bool,
    /// Cumulative tracer ring-lane drops at sampling time.
    pub trace_dropped: u64,
}

/// What crossed a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    /// Relative mass drift from the first sample exceeded the threshold.
    MassDrift,
    /// Relative energy drift from the first sample exceeded the threshold.
    EnergyDrift,
    /// The health scan found wind or CFL outside its trust region.
    Unstable,
    /// Health scan found non-finite values or diagnosed corruption.
    Corrupt,
    /// Tracer ring lanes dropped events since the previous sample.
    TraceDrop,
}

impl AlertKind {
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::MassDrift => "mass_drift",
            AlertKind::EnergyDrift => "energy_drift",
            AlertKind::Unstable => "unstable",
            AlertKind::Corrupt => "corrupt",
            AlertKind::TraceDrop => "trace_drop",
        }
    }
}

/// A typed threshold-crossing event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    pub kind: AlertKind,
    /// Epoch of the sample that crossed.
    pub epoch: u64,
    /// The observed value at the crossing: the drift, the peak wind
    /// (`Unstable`), the non-finite count (`Corrupt`) or the new drops.
    pub value: f64,
    /// The threshold it crossed; 0 for the kinds the scan's verdict or a
    /// plain count raises.
    pub threshold: f64,
}

/// Drift bounds. Defaults are deliberately loose physical-sanity bounds so
/// a healthy CI run never trips them; tighten per-deployment as baselines
/// accumulate.
#[derive(Debug, Clone, Copy)]
pub struct WatchThresholds {
    /// Relative mass drift |m/m₀ − 1| bound.
    pub max_mass_drift: f64,
    /// Relative energy drift |E/E₀ − 1| bound.
    pub max_energy_drift: f64,
}

impl Default for WatchThresholds {
    fn default() -> Self {
        WatchThresholds {
            max_mass_drift: 1e-6,
            max_energy_drift: 5e-2,
        }
    }
}

/// Edge-triggered alerting over one model's health samples.
#[derive(Debug)]
pub struct HealthWatch {
    thresholds: WatchThresholds,
    /// Mass/energy of the first sample — the conservation reference.
    baseline: Option<(f64, f64)>,
    /// Which alert kinds are currently "above threshold" (for edge trigger).
    active: Vec<AlertKind>,
    alerts: Vec<Alert>,
    last_trace_dropped: u64,
}

impl HealthWatch {
    /// A watch with no samples yet: the first one it ingests becomes the
    /// drift baseline.
    pub fn new(thresholds: WatchThresholds) -> Self {
        HealthWatch {
            thresholds,
            baseline: None,
            active: Vec::new(),
            alerts: Vec::new(),
            last_trace_dropped: 0,
        }
    }

    /// Ingest one epoch sample; returns alerts newly raised by this sample
    /// (also retained for [`Self::alerts`]).
    pub fn ingest(&mut self, s: HealthSample) -> Vec<Alert> {
        let (m0, e0) = *self.baseline.get_or_insert((s.mass, s.energy));
        let t = self.thresholds;

        let rel = |v: f64, v0: f64| {
            if v0 == 0.0 {
                v.abs()
            } else {
                (v / v0 - 1.0).abs()
            }
        };
        let mass_drift = rel(s.mass, m0);
        let energy_drift = rel(s.energy, e0);
        let trace_new = s.trace_dropped.saturating_sub(self.last_trace_dropped);
        self.last_trace_dropped = s.trace_dropped;

        // (kind, currently-over?, observed value, threshold)
        let checks = [
            (
                AlertKind::MassDrift,
                mass_drift > t.max_mass_drift,
                mass_drift,
                t.max_mass_drift,
            ),
            (
                AlertKind::EnergyDrift,
                energy_drift > t.max_energy_drift,
                energy_drift,
                t.max_energy_drift,
            ),
            (AlertKind::Unstable, s.unstable, s.max_abs_u, 0.0),
            (
                AlertKind::Corrupt,
                s.corrupt || s.non_finite > 0,
                s.non_finite as f64,
                0.0,
            ),
            (AlertKind::TraceDrop, trace_new > 0, trace_new as f64, 0.0),
        ];

        let mut raised = Vec::new();
        for (kind, over, value, threshold) in checks {
            let was_active = self.active.contains(&kind);
            if over && !was_active {
                let alert = Alert {
                    kind,
                    epoch: s.epoch,
                    value,
                    threshold,
                };
                self.active.push(kind);
                self.alerts.push(alert);
                raised.push(alert);
            } else if !over && was_active {
                self.active.retain(|&k| k != kind);
            }
        }
        raised
    }

    /// Every alert raised over the watch's lifetime, in raise order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64) -> HealthSample {
        HealthSample {
            epoch,
            mass: 1.0e9,
            energy: 5.0e14,
            max_abs_u: 40.0,
            non_finite: 0,
            unstable: false,
            corrupt: false,
            trace_dropped: 0,
        }
    }

    #[test]
    fn healthy_stream_raises_nothing() {
        let mut w = HealthWatch::new(WatchThresholds::default());
        for e in 0..50 {
            let mut s = sample(e);
            s.mass *= 1.0 + 1e-9 * e as f64; // well under 1e-6 drift
            assert!(w.ingest(s).is_empty(), "epoch {e}");
        }
        assert!(w.alerts().is_empty());
    }

    #[test]
    fn alerts_are_edge_triggered_per_kind() {
        let mut w = HealthWatch::new(WatchThresholds::default());
        w.ingest(sample(0));
        // Three consecutive unstable epochs → exactly one alert.
        for e in 1..4 {
            let mut s = sample(e);
            s.unstable = true;
            s.max_abs_u = 400.0;
            w.ingest(s);
        }
        // Recover, then cross again → a second alert.
        w.ingest(sample(4));
        let mut s = sample(5);
        s.unstable = true;
        s.max_abs_u = 360.0;
        let raised = w.ingest(s);
        assert_eq!(raised.len(), 1);
        let alerts = w.alerts();
        assert_eq!(alerts.len(), 2);
        assert!(alerts.iter().all(|a| a.kind == AlertKind::Unstable));
        assert_eq!(alerts[0].epoch, 1);
        assert_eq!(alerts[1].epoch, 5);
        assert_eq!(alerts[1].value, 360.0, "the peak wind rides on the alert");
    }

    #[test]
    fn the_scan_verdict_not_the_wind_raises_unstable() {
        // A wind the watch has no bound for raises nothing unless the scan
        // called it unstable.
        let mut w = HealthWatch::new(WatchThresholds::default());
        let mut s = sample(0);
        s.max_abs_u = 1.0e4;
        assert!(w.ingest(s).is_empty());
        s.epoch = 1;
        s.unstable = true;
        let raised = w.ingest(s);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].kind, AlertKind::Unstable);
        assert_eq!(AlertKind::Unstable.name(), "unstable");
    }

    #[test]
    fn drift_is_measured_against_the_first_sample() {
        let mut w = HealthWatch::new(WatchThresholds::default());
        w.ingest(sample(0));
        let mut s = sample(1);
        s.mass *= 1.0 + 2e-6; // over the 1e-6 relative bound
        let raised = w.ingest(s);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].kind, AlertKind::MassDrift);
        assert!((raised[0].value - 2e-6).abs() < 1e-9);
    }

    #[test]
    fn corruption_and_trace_drops_alert_on_increase() {
        let mut w = HealthWatch::new(WatchThresholds::default());
        let mut s = sample(0);
        s.trace_dropped = 7;
        // First sample: drops baseline is 0, so 7 new drops alert.
        let raised = w.ingest(s);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].kind, AlertKind::TraceDrop);
        assert_eq!(raised[0].value, 7.0);
        // Steady cumulative count: no new drops, no new alert.
        let mut s1 = sample(1);
        s1.trace_dropped = 7;
        assert!(w.ingest(s1).is_empty());
        // NaNs appear → Corrupt.
        let mut s2 = sample(2);
        s2.trace_dropped = 7;
        s2.non_finite = 3;
        let raised = w.ingest(s2);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].kind, AlertKind::Corrupt);
    }
}
