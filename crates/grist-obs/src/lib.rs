//! # grist-obs — the live telemetry plane
//!
//! The registries that already exist answer post-hoc questions: `Metrics`
//! totals what happened, `Tracer` replays when. At 34M-core scale (and at
//! serving scale) the operative questions are *live*: what is the p99 right
//! now, is the physics drifting, did a ring drop events, is the SLO still
//! holding. This crate layers that plane on top without touching the hot
//! paths' disabled-cost contract:
//!
//! - [`hist`] — lock-free log-bucketed streaming histograms (`log16-v1`
//!   layout, pinned by tests) with exact p50/p90/p99/max readout and
//!   mergeable, JSON-round-trippable snapshots.
//! - [`watch`] — ring-buffered physics health time series (mass/energy
//!   drift, CFL margin, NaN census, tracer drops) with edge-triggered typed
//!   alerts.
//! - [`slo`] — an `SloPolicy` (p99 ceiling, qps floor, alert budget)
//!   evaluated continuously against the live distributions.
//! - [`plane`] — the [`ObsPlane`] hub the server, the model loop, and the
//!   `obs_report` bin all share.
//!
//! Request-scoped trace IDs are minted here ([`ObsPlane::mint_trace_id`])
//! and carried through the serving stack into the tracer's `flow` events
//! (see `sunway_sim::trace`), joining a served answer to its kernel spans in
//! the Perfetto export.

pub mod hist;
pub mod plane;
pub mod slo;
pub mod watch;

pub use hist::{
    bucket_hi, bucket_index, bucket_lo, HistSnapshot, Histogram, HIST_BUCKETS, HIST_LAYOUT,
};
pub use plane::{ObsPlane, DASHBOARD_VERSION};
pub use slo::{SloPolicy, SloStatus, SloTerm};
pub use watch::{Alert, AlertKind, HealthSample, HealthThresholds, HealthWatch, WatchThresholds};

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use std::sync::Arc;

    /// Satellite: N threads × M records — total count, exact bucket sums,
    /// and merge(snapshot_a, snapshot_b) == snapshot_combined.
    #[test]
    fn concurrent_recording_loses_nothing_and_merges_exactly() {
        const THREADS: u64 = 8;
        const RECORDS: u64 = 20_000;

        // Deterministic per-thread value stream (xorshift); thread t records
        // values(t). We rebuild the expected bucket sums serially.
        fn values(t: u64) -> impl Iterator<Item = u64> {
            let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1) | 1;
            (0..RECORDS).map(move |_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 100_000_000 // ns-scale, spans many octaves
            })
        }

        let shared = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for v in values(t) {
                        h.record(v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = shared.snapshot();

        // Serial reference over the identical value streams.
        let reference = Histogram::new();
        for t in 0..THREADS {
            for v in values(t) {
                reference.record(v);
            }
        }
        let expect = reference.snapshot();

        assert_eq!(snap.count, THREADS * RECORDS, "total count");
        assert_eq!(snap, expect, "bucket-exact equality under contention");

        // Partition the same population across two histograms; the merged
        // snapshot must equal the combined one bucket for bucket.
        let (a, b) = (Histogram::new(), Histogram::new());
        for t in 0..THREADS {
            let h = if t % 2 == 0 { &a } else { &b };
            for v in values(t) {
                h.record(v);
            }
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), expect);
    }
}
