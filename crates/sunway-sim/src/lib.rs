//! # sunway-sim
//!
//! The host runtime every GRIST-rs kernel runs through, shaped after the
//! SWGOMP offload model of the paper (§3.3, Fig. 5). It measures the host;
//! the modeled SW26010P (chip constants, LDCache, allocator, DMA engine,
//! roofline and scaling models) is the `sunway-model` crate, which no run
//! reaches:
//!
//! * [`substrate`] — the kernel dispatch layer: serial or CPE-team
//!   execution, named write sets, fault retry, per-kernel accounting.
//! * [`swgomp`] — the SWGOMP job-server thread hierarchy (Fig. 5): MPE
//!   spawns team heads, team heads spawn team members, on real threads.
//! * [`descriptor`] — the size-free cost descriptor each dycore dispatch
//!   declares beside itself.
//! * [`metrics`] — the unified observability registry: hierarchical trace
//!   spans, per-kernel stats, hardware-model counters and named
//!   [`hist`] distributions, shared by every clone of a
//!   [`substrate::Substrate`].
//! * [`json`] — the dependency-free JSON reader/writer behind the
//!   `BENCH_*.json` benchmark baselines (the workspace builds offline, so
//!   serde is unavailable).
//! * [`fault`] — seeded deterministic fault injection (stalled dispatches,
//!   corrupt DMA payloads, truncated halo messages) feeding the substrate's
//!   retry/degrade recovery ladder.
//! * [`trace`] — event-level timelines behind the aggregated registry:
//!   bounded per-thread ring buffers, Chrome/Perfetto `trace_event` export
//!   with per-rank/per-CPE lanes, and the roofline attribution report.

pub mod descriptor;
pub mod fault;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod substrate;
pub mod swgomp;
pub mod trace;

pub use descriptor::{IterSpace, KernelSpec};
pub use fault::{dispatch_fault_key, FaultError, FaultPlan, FaultSite};
pub use hist::{bucket_hi, bucket_index, bucket_lo, Histogram, HIST_BUCKETS, HIST_LAYOUT};
pub use json::{Json, JsonError};
pub use metrics::{KernelStats, Metrics, MetricsSnapshot, SpanGuard, SpanStats};
pub use substrate::{
    format_kernel_report, kernel_report_rows, over, ColumnsMut, ExecTargetKind, IndexSet,
    KernelReportRow, Over, Substrate,
};
pub use swgomp::{JobServer, JobStats};
pub use trace::{
    analyze, flow_scope, validate_chrome, ChromeStats, EventKind, FlowScope, RooflineInputs,
    TraceEvent, TraceReport, TraceSnapshot, Tracer,
};
