//! The telemetry plane: one shared hub tying histograms, trace-ID minting,
//! the health watch, and the SLO policy together.
//!
//! An [`ObsPlane`] is `Arc`-shared between the serving front-end (latency,
//! batch size, SLO evaluation), the simulation loop (epoch advance, health
//! samples), and the reporting bin (dashboard export). Every recording entry
//! point starts with a single relaxed atomic load of the `enabled` flag —
//! the disabled path is the same "one predictable branch" contract the
//! tracer pins, and `bench::obs` measures it against the serve p50 (gated
//! ≤ 1%).

use crate::hist::{HistSnapshot, Histogram};
use crate::slo::{SloPolicy, SloStatus};
use crate::watch::{Alert, HealthSample, HealthWatch, WatchThresholds};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use sunway_sim::{EventKind, Json, TraceSnapshot};

/// Dashboard schema tag emitted by [`ObsPlane::dashboard`].
pub const DASHBOARD_VERSION: &str = "grist-obs-v1";

/// The live telemetry hub. Cheap to share (`Arc<ObsPlane>`), wait-free to
/// record into, safe to snapshot from any thread at any time.
#[derive(Debug)]
pub struct ObsPlane {
    enabled: AtomicBool,
    next_trace_id: AtomicU64,
    /// Per-query serve latency, nanoseconds.
    serve_latency: Histogram,
    /// Per-dispatch batch size, queries.
    batch_size: Histogram,
    /// Per-epoch model advance wall time, nanoseconds.
    epoch_advance: Histogram,
    /// Per-event halo-wait stall, nanoseconds (fed from trace snapshots).
    halo_wait: Histogram,
    watch: HealthWatch,
    policy: SloPolicy,
    started: Instant,
    slo_evals: AtomicU64,
    slo_breaches: AtomicU64,
    last_status: Mutex<Option<SloStatus>>,
}

impl Default for ObsPlane {
    fn default() -> Self {
        Self::new(SloPolicy::default(), WatchThresholds::default())
    }
}

impl ObsPlane {
    /// An enabled plane with the given policy and health thresholds,
    /// keeping the last 4096 health samples.
    pub fn new(policy: SloPolicy, thresholds: WatchThresholds) -> Self {
        ObsPlane {
            enabled: AtomicBool::new(true),
            next_trace_id: AtomicU64::new(1),
            serve_latency: Histogram::new(),
            batch_size: Histogram::new(),
            epoch_advance: Histogram::new(),
            halo_wait: Histogram::new(),
            watch: HealthWatch::new(thresholds, 4096),
            policy,
            started: Instant::now(),
            slo_evals: AtomicU64::new(0),
            slo_breaches: AtomicU64::new(0),
            last_status: Mutex::new(None),
        }
    }

    /// A plane that records nothing until [`Self::set_enabled`] — the
    /// configuration whose per-call cost the overhead gate measures.
    pub fn disabled() -> Self {
        let p = Self::default();
        p.enabled.store(false, Ordering::Relaxed);
        p
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn policy(&self) -> SloPolicy {
        self.policy
    }

    pub fn watch(&self) -> &HealthWatch {
        &self.watch
    }

    /// Mint a request-scoped trace ID (monotone from 1). Returns 0 — the
    /// reserved "untraced" ID — when the plane is disabled, so flow events
    /// are suppressed end to end at one atomic load of cost.
    #[inline]
    pub fn mint_trace_id(&self) -> u64 {
        if !self.enabled.load(Ordering::Relaxed) {
            return 0;
        }
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    #[inline]
    pub fn record_serve_latency_ns(&self, ns: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.serve_latency.record(ns);
        }
    }

    #[inline]
    pub fn record_batch_size(&self, queries: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.batch_size.record(queries);
        }
    }

    #[inline]
    pub fn record_epoch_advance_ns(&self, ns: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.epoch_advance.record(ns);
        }
    }

    #[inline]
    pub fn record_halo_wait_ns(&self, ns: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.halo_wait.record(ns);
        }
    }

    /// Ingest one epoch's physics diagnostics; returns newly raised alerts.
    pub fn ingest_health(&self, sample: HealthSample) -> Vec<Alert> {
        if !self.enabled.load(Ordering::Relaxed) {
            return Vec::new();
        }
        self.watch.ingest(sample)
    }

    /// Feed every `HaloWait` stall in a trace snapshot into the halo-wait
    /// histogram (the tracer owns the timing; the plane owns the
    /// distribution).
    pub fn absorb_trace(&self, snap: &TraceSnapshot) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        for lane in &snap.lanes {
            for ev in &lane.events {
                if ev.kind == EventKind::HaloWait {
                    self.halo_wait.record(ev.dur_ns);
                }
            }
        }
    }

    pub fn serve_latency_snapshot(&self) -> HistSnapshot {
        self.serve_latency.snapshot()
    }

    pub fn batch_size_snapshot(&self) -> HistSnapshot {
        self.batch_size.snapshot()
    }

    pub fn epoch_advance_snapshot(&self) -> HistSnapshot {
        self.epoch_advance.snapshot()
    }

    pub fn halo_wait_snapshot(&self) -> HistSnapshot {
        self.halo_wait.snapshot()
    }

    /// Seconds since the plane was created — the qps window.
    pub fn window_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Evaluate the SLO policy against the current latency distribution and
    /// alert count. Called by the server after each batch and by
    /// `obs_report` at scenario end; every evaluation is tallied, breaches
    /// separately.
    pub fn evaluate_slo(&self) -> SloStatus {
        let status = self.policy.evaluate(
            &self.serve_latency.snapshot(),
            self.window_s(),
            self.watch.alert_count(),
        );
        self.slo_evals.fetch_add(1, Ordering::Relaxed);
        if !status.ok() {
            self.slo_breaches.fetch_add(1, Ordering::Relaxed);
        }
        *self.last_status.lock().expect("obs plane poisoned") = Some(status.clone());
        status
    }

    pub fn slo_evals(&self) -> u64 {
        self.slo_evals.load(Ordering::Relaxed)
    }

    pub fn slo_breaches(&self) -> u64 {
        self.slo_breaches.load(Ordering::Relaxed)
    }

    pub fn last_slo_status(&self) -> Option<SloStatus> {
        self.last_status.lock().expect("obs plane poisoned").clone()
    }

    fn hist_json(snap: &HistSnapshot) -> Json {
        // Percentiles are included for human readers; the contract is that
        // each one is recomputable bitwise from `buckets` alone (checked by
        // obs_report's reproducibility gate).
        let mut doc = snap.to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.push((
                "percentiles".into(),
                Json::Obj(vec![
                    ("p50".into(), Json::Num(snap.percentile(0.50) as f64)),
                    ("p90".into(), Json::Num(snap.percentile(0.90) as f64)),
                    ("p99".into(), Json::Num(snap.percentile(0.99) as f64)),
                ]),
            ));
        }
        doc
    }

    /// The machine-readable `grist-obs-v1` dashboard document.
    pub fn dashboard(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::Str(DASHBOARD_VERSION.into())),
            ("enabled".into(), Json::Bool(self.is_enabled())),
            ("window_s".into(), Json::Num(self.window_s())),
            (
                "trace_ids_minted".into(),
                Json::Num((self.next_trace_id.load(Ordering::Relaxed) - 1) as f64),
            ),
            (
                "histograms".into(),
                Json::Obj(vec![
                    (
                        "serve_latency_ns".into(),
                        Self::hist_json(&self.serve_latency.snapshot()),
                    ),
                    (
                        "batch_size".into(),
                        Self::hist_json(&self.batch_size.snapshot()),
                    ),
                    (
                        "epoch_advance_ns".into(),
                        Self::hist_json(&self.epoch_advance.snapshot()),
                    ),
                    (
                        "halo_wait_ns".into(),
                        Self::hist_json(&self.halo_wait.snapshot()),
                    ),
                ]),
            ),
            ("health".into(), self.watch.to_json()),
            (
                "slo".into(),
                Json::Obj(vec![
                    ("policy".into(), self.policy.to_json()),
                    ("evals".into(), Json::Num(self.slo_evals() as f64)),
                    ("breaches".into(), Json::Num(self.slo_breaches() as f64)),
                    (
                        "last".into(),
                        self.last_slo_status()
                            .map(|s| s.to_json())
                            .unwrap_or(Json::Null),
                    ),
                ]),
            ),
        ])
    }

    /// Human summary of the same state, Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("## Telemetry plane\n\n");
        out.push_str("| series | count | p50 | p90 | p99 | max |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        type Fmt<'a> = &'a dyn Fn(u64) -> String;
        let ms = |ns: u64| format!("{:.3} ms", ns as f64 / 1e6);
        let rows: [(&str, HistSnapshot, Fmt); 4] = [
            ("serve latency", self.serve_latency.snapshot(), &ms),
            ("batch size", self.batch_size.snapshot(), &|v| v.to_string()),
            ("epoch advance", self.epoch_advance.snapshot(), &ms),
            ("halo wait", self.halo_wait.snapshot(), &ms),
        ];
        for (name, snap, fmt) in rows {
            if snap.is_empty() {
                out.push_str(&format!("| {name} | 0 | – | – | – | – |\n"));
            } else {
                out.push_str(&format!(
                    "| {name} | {} | {} | {} | {} | {} |\n",
                    snap.count,
                    fmt(snap.percentile(0.50)),
                    fmt(snap.percentile(0.90)),
                    fmt(snap.percentile(0.99)),
                    fmt(snap.max),
                ));
            }
        }
        let alerts = self.watch.alerts();
        out.push_str(&format!(
            "\n**Health**: {} samples, {} alert(s)\n",
            self.watch.ingested(),
            alerts.len()
        ));
        for a in &alerts {
            out.push_str(&format!(
                "- ⚠ `{}` at epoch {}: {:.6e} (threshold {:.6e})\n",
                a.kind.name(),
                a.epoch,
                a.value,
                a.threshold
            ));
        }
        match self.last_slo_status() {
            Some(s) if s.ok() => out.push_str(&format!(
                "\n**SLO**: OK — p99 {:.3} ms, {:.1} qps, {} alert(s), {} eval(s)\n",
                s.p99_ms,
                s.qps,
                s.alerts,
                self.slo_evals()
            )),
            Some(s) => {
                let terms: Vec<&str> = s.violated.iter().map(|t| t.name()).collect();
                out.push_str(&format!(
                    "\n**SLO**: BREACHED ({}) — p99 {:.3} ms, {:.1} qps, {} alert(s)\n",
                    terms.join(", "),
                    s.p99_ms,
                    s.qps,
                    s.alerts
                ));
            }
            None => out.push_str("\n**SLO**: not yet evaluated\n"),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_records_nothing_and_mints_zero() {
        let p = ObsPlane::disabled();
        assert_eq!(p.mint_trace_id(), 0);
        p.record_serve_latency_ns(1_000_000);
        p.record_batch_size(8);
        p.record_epoch_advance_ns(5_000_000);
        p.record_halo_wait_ns(100);
        assert!(p
            .ingest_health(HealthSample {
                epoch: 0,
                mass: f64::NAN, // would alert if ingested
                energy: 0.0,
                cfl: 99.0,
                max_abs_u: 9e9,
                non_finite: 5,
                corrupt: true,
                trace_dropped: 3,
            })
            .is_empty());
        assert!(p.serve_latency_snapshot().is_empty());
        assert!(p.batch_size_snapshot().is_empty());
        assert!(p.epoch_advance_snapshot().is_empty());
        assert!(p.halo_wait_snapshot().is_empty());
        assert_eq!(p.watch().alert_count(), 0);
        // Re-enabling starts minting from 1.
        p.set_enabled(true);
        assert_eq!(p.mint_trace_id(), 1);
        assert_eq!(p.mint_trace_id(), 2);
    }

    #[test]
    fn slo_evaluation_tallies_evals_and_breaches() {
        let p = ObsPlane::new(
            SloPolicy {
                p99_latency_ms: 1.0,
                qps_floor: 0.0,
                alert_budget: 0,
                min_queries: 1,
            },
            WatchThresholds::default(),
        );
        p.record_serve_latency_ns(500_000); // 0.5 ms: ok
        assert!(p.evaluate_slo().ok());
        p.record_serve_latency_ns(50_000_000); // 50 ms p99: breach
        assert!(!p.evaluate_slo().ok());
        assert_eq!(p.slo_evals(), 2);
        assert_eq!(p.slo_breaches(), 1);
        let last = p.last_slo_status().expect("evaluated twice");
        assert!(last.p99_ms > 1.0);
    }

    #[test]
    fn dashboard_document_has_the_v1_shape() {
        let p = ObsPlane::default();
        p.record_serve_latency_ns(2_000_000);
        p.record_batch_size(4);
        p.evaluate_slo();
        let d = p.dashboard();
        assert_eq!(
            d.get("version").and_then(Json::as_str),
            Some(DASHBOARD_VERSION)
        );
        let hists = d.get("histograms").unwrap();
        for key in [
            "serve_latency_ns",
            "batch_size",
            "epoch_advance_ns",
            "halo_wait_ns",
        ] {
            let h = hists.get(key).unwrap_or_else(|| panic!("missing {key}"));
            assert_eq!(
                h.get("layout").and_then(Json::as_str),
                Some(crate::hist::HIST_LAYOUT)
            );
        }
        assert!(d
            .get("slo")
            .unwrap()
            .get("last")
            .unwrap()
            .get("ok")
            .is_some());
        // Parse/serialize round trip through the in-tree JSON writer.
        let text = d.pretty();
        assert!(Json::parse(&text).is_ok());
        // Markdown renders without panicking and names the SLO verdict.
        assert!(p.to_markdown().contains("**SLO**"));
    }
}
