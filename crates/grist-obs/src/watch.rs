//! Physics health watch: ring-buffered diagnostic time series with
//! edge-triggered, typed threshold alerts.
//!
//! The per-call `health.rs` scan answers "is this state sane right now";
//! [`HealthWatch`] answers the streaming question — *is the run drifting* —
//! by ingesting one [`HealthSample`] per epoch (mass/energy conservation
//! drift against the first sample, CFL margin, non-finite census, tracer
//! ring drops) into a bounded ring and emitting an [`Alert`] each time a
//! series *crosses* its threshold. Alerts are edge-triggered: a run sitting
//! above a threshold alerts once on the crossing, not once per epoch, so an
//! alert budget of zero is a meaningful SLO term.

use std::collections::VecDeque;
use std::sync::Mutex;
use sunway_sim::Json;

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
    /// Advective CFL number from the health scan.
    pub cfl: f64,
    /// Largest |u| seen in the state.
    pub max_abs_u: f64,
    /// Non-finite values found (NaN/Inf census).
    pub non_finite: u64,
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
    /// CFL number exceeded the stability margin.
    CflMargin,
    /// Peak wind exceeded the physical plausibility bound.
    Wind,
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
            AlertKind::CflMargin => "cfl_margin",
            AlertKind::Wind => "wind",
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
    /// The observed value at the crossing.
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
}

impl Alert {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.name().into())),
            ("epoch".into(), Json::Num(self.epoch as f64)),
            ("value".into(), Json::Num(self.value)),
            ("threshold".into(), Json::Num(self.threshold)),
        ])
    }
}

/// The wind/CFL trust region — the one definition of "unstable" shared by
/// the per-call scan (`GristModel::health_with`, which `grist_core::health`
/// re-exports this type for) and the streaming [`HealthWatch`].
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

/// Crossing thresholds. Defaults are deliberately loose physical-sanity
/// bounds so a healthy CI run never trips them; tighten per-deployment as
/// baselines accumulate.
#[derive(Debug, Clone, Copy)]
pub struct WatchThresholds {
    /// Relative mass drift |m/m₀ − 1| bound.
    pub max_mass_drift: f64,
    /// Relative energy drift |E/E₀ − 1| bound.
    pub max_energy_drift: f64,
    /// Wind and CFL bounds, as the health scan applies them.
    pub stability: HealthThresholds,
}

impl Default for WatchThresholds {
    fn default() -> Self {
        WatchThresholds {
            max_mass_drift: 1e-6,
            max_energy_drift: 5e-2,
            stability: HealthThresholds::default(),
        }
    }
}

#[derive(Debug, Default)]
struct WatchState {
    samples: VecDeque<HealthSample>,
    /// Mass/energy of the first sample — the conservation reference.
    baseline: Option<(f64, f64)>,
    /// Which alert kinds are currently "above threshold" (for edge trigger).
    active: Vec<AlertKind>,
    alerts: Vec<Alert>,
    ingested: u64,
    last_trace_dropped: u64,
}

/// Ring-buffered health time series + edge-triggered alerting.
#[derive(Debug)]
pub struct HealthWatch {
    thresholds: WatchThresholds,
    capacity: usize,
    state: Mutex<WatchState>,
}

impl HealthWatch {
    /// A watch keeping the most recent `capacity` samples.
    pub fn new(thresholds: WatchThresholds, capacity: usize) -> Self {
        assert!(capacity >= 1);
        HealthWatch {
            thresholds,
            capacity,
            state: Mutex::new(WatchState::default()),
        }
    }

    pub fn thresholds(&self) -> WatchThresholds {
        self.thresholds
    }

    /// Ingest one epoch sample; returns alerts newly raised by this sample
    /// (also retained internally for the dashboard export).
    pub fn ingest(&self, s: HealthSample) -> Vec<Alert> {
        let mut st = self.state.lock().expect("health watch poisoned");
        let (m0, e0) = *st.baseline.get_or_insert((s.mass, s.energy));
        let t = &self.thresholds;

        let rel = |v: f64, v0: f64| {
            if v0 == 0.0 {
                v.abs()
            } else {
                (v / v0 - 1.0).abs()
            }
        };
        let mass_drift = rel(s.mass, m0);
        let energy_drift = rel(s.energy, e0);
        let trace_new = s.trace_dropped.saturating_sub(st.last_trace_dropped);
        st.last_trace_dropped = s.trace_dropped;

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
            (
                AlertKind::CflMargin,
                s.cfl > t.stability.max_cfl,
                s.cfl,
                t.stability.max_cfl,
            ),
            (
                AlertKind::Wind,
                s.max_abs_u > t.stability.max_wind,
                s.max_abs_u,
                t.stability.max_wind,
            ),
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
            let was_active = st.active.contains(&kind);
            if over && !was_active {
                let alert = Alert {
                    kind,
                    epoch: s.epoch,
                    value,
                    threshold,
                };
                st.active.push(kind);
                st.alerts.push(alert);
                raised.push(alert);
            } else if !over && was_active {
                st.active.retain(|&k| k != kind);
            }
        }

        if st.samples.len() == self.capacity {
            st.samples.pop_front();
        }
        st.samples.push_back(s);
        st.ingested += 1;
        raised
    }

    /// Every alert raised over the watch's lifetime, in raise order.
    pub fn alerts(&self) -> Vec<Alert> {
        self.state
            .lock()
            .expect("health watch poisoned")
            .alerts
            .clone()
    }

    /// Total alerts raised (edge crossings, not over-threshold epochs).
    pub fn alert_count(&self) -> u64 {
        self.state
            .lock()
            .expect("health watch poisoned")
            .alerts
            .len() as u64
    }

    /// Samples ingested over the watch's lifetime (ring may hold fewer).
    pub fn ingested(&self) -> u64 {
        self.state.lock().expect("health watch poisoned").ingested
    }

    /// The retained ring, oldest first.
    pub fn series(&self) -> Vec<HealthSample> {
        let st = self.state.lock().expect("health watch poisoned");
        st.samples.iter().copied().collect()
    }

    /// Dashboard fragment: retained series (compact parallel arrays),
    /// alert list, and lifetime totals.
    pub fn to_json(&self) -> Json {
        let st = self.state.lock().expect("health watch poisoned");
        let col = |f: &dyn Fn(&HealthSample) -> f64| {
            Json::Arr(st.samples.iter().map(|s| Json::Num(f(s))).collect())
        };
        Json::Obj(vec![
            ("ingested".into(), Json::Num(st.ingested as f64)),
            ("retained".into(), Json::Num(st.samples.len() as f64)),
            ("epoch".into(), col(&|s| s.epoch as f64)),
            ("mass".into(), col(&|s| s.mass)),
            ("energy".into(), col(&|s| s.energy)),
            ("cfl".into(), col(&|s| s.cfl)),
            ("max_abs_u".into(), col(&|s| s.max_abs_u)),
            (
                "alerts".into(),
                Json::Arr(st.alerts.iter().map(Alert::to_json).collect()),
            ),
        ])
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
            cfl: 0.4,
            max_abs_u: 40.0,
            non_finite: 0,
            corrupt: false,
            trace_dropped: 0,
        }
    }

    #[test]
    fn healthy_stream_raises_nothing() {
        let w = HealthWatch::new(WatchThresholds::default(), 16);
        for e in 0..50 {
            let mut s = sample(e);
            s.mass *= 1.0 + 1e-9 * e as f64; // well under 1e-6 drift
            assert!(w.ingest(s).is_empty(), "epoch {e}");
        }
        assert_eq!(w.alert_count(), 0);
        assert_eq!(w.ingested(), 50);
        assert_eq!(w.series().len(), 16, "ring keeps the newest 16");
        assert_eq!(w.series()[0].epoch, 34);
    }

    #[test]
    fn alerts_are_edge_triggered_per_kind() {
        let w = HealthWatch::new(WatchThresholds::default(), 8);
        w.ingest(sample(0));
        // Three consecutive over-threshold epochs → exactly one alert.
        for e in 1..4 {
            let mut s = sample(e);
            s.cfl = 3.5;
            w.ingest(s);
        }
        // Recover, then cross again → a second alert.
        w.ingest(sample(4));
        let mut s = sample(5);
        s.cfl = 2.7;
        let raised = w.ingest(s);
        assert_eq!(raised.len(), 1);
        let alerts = w.alerts();
        assert_eq!(alerts.len(), 2);
        assert!(alerts.iter().all(|a| a.kind == AlertKind::CflMargin));
        assert_eq!(alerts[0].epoch, 1);
        assert_eq!(alerts[1].epoch, 5);
        assert_eq!(alerts[1].value, 2.7);
        assert_eq!(alerts[1].threshold, 2.0);
    }

    #[test]
    fn drift_is_measured_against_the_first_sample() {
        let w = HealthWatch::new(WatchThresholds::default(), 8);
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
        let w = HealthWatch::new(WatchThresholds::default(), 8);
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

    #[test]
    fn json_export_carries_series_and_alerts() {
        let w = HealthWatch::new(WatchThresholds::default(), 4);
        for e in 0..3 {
            let mut s = sample(e);
            if e == 2 {
                s.max_abs_u = 400.0;
            }
            w.ingest(s);
        }
        let j = w.to_json();
        assert_eq!(j.get("ingested").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("retained").and_then(Json::as_u64), Some(3));
        let alerts = j.get("alerts").and_then(Json::as_arr).unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].get("kind").and_then(Json::as_str), Some("wind"));
    }
}
