//! SLO policy: the contract the serving stack is held to.
//!
//! An [`SloPolicy`] is three numbers — a p99 latency ceiling, a throughput
//! floor, and an alert budget — and [`SloPolicy::evaluate`] turns a latency
//! histogram, the window it was recorded over and a health-alert count into
//! an [`SloStatus`] listing every violated term. It is a pure function of
//! its arguments: nothing on the request path evaluates it. `grist obs`
//! evaluates it once, on the registry snapshot at the end of a traffic
//! scenario, and gates CI on the result.

use sunway_sim::Histogram;

/// Serving-stack service-level objectives.
#[derive(Debug, Clone, Copy)]
pub struct SloPolicy {
    /// p99 per-query serve latency ceiling, milliseconds.
    pub p99_latency_ms: f64,
    /// Sustained throughput floor, queries per second. Only enforced once
    /// at least [`Self::min_queries`] queries have been observed, so an
    /// idle or warming-up server is not a breach.
    pub qps_floor: f64,
    /// Health-watch alerts tolerated before the SLO is breached.
    pub alert_budget: u64,
    /// Minimum observed queries before latency/qps terms are enforced.
    pub min_queries: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        // CI smoke defaults: generous enough that a loaded shared runner
        // passes comfortably, tight enough that a real serving regression
        // (an order of magnitude, a stall, a physics alert) fails loudly.
        SloPolicy {
            p99_latency_ms: 2_500.0,
            qps_floor: 1.0,
            alert_budget: 0,
            min_queries: 16,
        }
    }
}

/// One term of the policy that a status can report as violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloTerm {
    P99Latency,
    QpsFloor,
    AlertBudget,
}

impl SloTerm {
    pub fn name(self) -> &'static str {
        match self {
            SloTerm::P99Latency => "p99_latency",
            SloTerm::QpsFloor => "qps_floor",
            SloTerm::AlertBudget => "alert_budget",
        }
    }
}

/// The outcome of one policy evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Queries observed at evaluation time.
    pub queries: u64,
    /// Observed p99 latency in ms (0 when no queries yet).
    pub p99_ms: f64,
    /// Observed throughput in queries/s.
    pub qps: f64,
    /// Health alerts charged against the budget.
    pub alerts: u64,
    /// Terms violated; empty means the SLO holds.
    pub violated: Vec<SloTerm>,
}

impl SloStatus {
    pub fn ok(&self) -> bool {
        self.violated.is_empty()
    }
}

impl SloPolicy {
    /// Evaluate against a latency histogram, the wall-clock window it was
    /// recorded over, and the health-alert count.
    pub fn evaluate(&self, latency: &Histogram, window_s: f64, alerts: u64) -> SloStatus {
        let queries = latency.count;
        let p99_ms = latency.percentile_ms(0.99);
        let qps = if window_s > 0.0 {
            queries as f64 / window_s
        } else {
            0.0
        };
        let mut violated = Vec::new();
        if queries >= self.min_queries {
            if p99_ms > self.p99_latency_ms {
                violated.push(SloTerm::P99Latency);
            }
            if qps < self.qps_floor {
                violated.push(SloTerm::QpsFloor);
            }
        }
        if alerts > self.alert_budget {
            violated.push(SloTerm::AlertBudget);
        }
        SloStatus {
            queries,
            p99_ms,
            qps,
            alerts,
            violated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latencies(ns: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &v in ns {
            h.record(v);
        }
        h
    }

    #[test]
    fn holding_slo_reports_ok() {
        let policy = SloPolicy::default();
        let snap = latencies(&vec![2_000_000u64; 64]); // 2 ms each
        let st = policy.evaluate(&snap, 4.0, 0);
        assert!(st.ok(), "{:?}", st.violated);
        assert_eq!(st.queries, 64);
        assert_eq!(st.qps, 16.0);
        assert!(st.p99_ms < 2.1);
    }

    #[test]
    fn each_term_can_violate_independently() {
        let policy = SloPolicy {
            p99_latency_ms: 1.0,
            qps_floor: 100.0,
            alert_budget: 0,
            min_queries: 4,
        };
        // Slow and sparse: both latency and qps terms trip.
        let st = policy.evaluate(&latencies(&[5_000_000u64; 8]), 8.0, 0);
        assert_eq!(st.violated, vec![SloTerm::P99Latency, SloTerm::QpsFloor]);
        // Fast and dense but over alert budget.
        let st = policy.evaluate(&latencies(&vec![100_000u64; 1_000]), 1.0, 2);
        assert_eq!(st.violated, vec![SloTerm::AlertBudget]);
        assert!(!st.ok());
    }

    #[test]
    fn warmup_exempts_latency_and_qps_but_not_alerts() {
        let policy = SloPolicy {
            p99_latency_ms: 0.001,
            qps_floor: 1e9,
            alert_budget: 0,
            min_queries: 100,
        };
        let st = policy.evaluate(&latencies(&[9_000_000u64; 5]), 1e6, 0);
        assert!(st.ok(), "below min_queries: perf terms not enforced");
        let st = policy.evaluate(&latencies(&[9_000_000u64; 5]), 1e6, 1);
        assert_eq!(st.violated, vec![SloTerm::AlertBudget]);
    }
}
