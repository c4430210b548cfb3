//! # grist-obs — health watch and SLO policy
//!
//! The measurements themselves live in the registry every substrate already
//! shares: `sunway_sim::Metrics` counts, times kernels and spans, and keeps
//! named `log16-v1` histograms (`serve.latency_ns`, `serve.batch_size`); its
//! tracer records the timeline and mints request-scoped flow IDs. This crate
//! holds the two verdicts read off those measurements:
//!
//! - [`watch`] — one model's physics health stream (mass/energy drift
//!   against the model's first sample, the health scan's verdict, NaN
//!   census, tracer ring drops) with edge-triggered typed alerts; an
//!   ensemble keeps one watch per member.
//! - [`slo`] — an `SloPolicy` (p99 ceiling, qps floor, alert budget) and its
//!   evaluation, a pure function of a latency histogram, a window and an
//!   alert count.

pub mod slo;
pub mod watch;

pub use slo::{SloPolicy, SloStatus, SloTerm};
pub use watch::{Alert, AlertKind, HealthSample, HealthWatch, WatchThresholds};
