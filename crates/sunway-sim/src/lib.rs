//! # sunway-sim
//!
//! A simulated SW26010P / next-generation-Sunway substrate (§3.3, §4.1 of
//! the paper), standing in for hardware this reproduction cannot access:
//!
//! * [`arch`] — the chip/system constants (6 CGs × (1 MPE + 64 CPEs), 256 KB
//!   LDM, 51.2 GB/s DDR per CG, 107,520 nodes, 16:3 fat tree).
//! * [`ldcache`] — a 4-way set-associative LDCache simulator reproducing the
//!   Fig. 6 thrashing analysis.
//! * [`distributor`] — the memory-address-distributing pool allocator that
//!   fixes the thrashing (§3.3.3).
//! * [`swgomp`] — the SWGOMP job-server thread hierarchy (Fig. 5): MPE
//!   spawns team heads, team heads spawn team members, on real threads.
//! * [`omnicopy`](mod@omnicopy) — LDM scratch arena + DMA-aware copy (§3.3.2).
//! * [`perf`] — the roofline model behind Fig. 9 (compute-bound MPE,
//!   bandwidth-bound CPE cluster, f32 traffic halving).
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

pub mod arch;
pub mod distributor;
pub mod dma;
pub mod fault;
pub mod hist;
pub mod json;
pub mod ldcache;
pub mod metrics;
pub mod omnicopy;
pub mod perf;
pub mod substrate;
pub mod swgomp;
pub mod trace;

pub use arch::SunwaySpec;
pub use distributor::{AllocPolicy, PoolAllocator};
pub use dma::{
    amortization_threshold, effective_bandwidth, simulate_dma_batch, DmaCompletion, DmaRequest,
};
pub use fault::{dispatch_fault_key, FaultError, FaultPlan, FaultSite};
pub use hist::{bucket_hi, bucket_index, bucket_lo, Histogram, HIST_BUCKETS, HIST_LAYOUT};
pub use json::{Json, JsonError};
pub use ldcache::{simulate_streams, Access, LdCache};
pub use metrics::{KernelStats, Metrics, MetricsSnapshot, SpanGuard, SpanStats};
pub use omnicopy::{omnicopy, CopyStats, LdmArena, LdmOverflow, Space};
pub use perf::{
    fig9_table, kernel_time, stream_hit_ratio, Domain, ExecTarget, IterSpace, KernelSpec,
};
pub use substrate::{
    format_kernel_report, kernel_report_rows, ColumnsMut, ExecTargetKind, KernelReportRow,
    Substrate,
};
pub use swgomp::{JobServer, JobStats};
pub use trace::{
    analyze, flow_scope, validate_chrome, ChromeStats, EventKind, FlowScope, RooflineInputs,
    TraceEvent, TraceReport, TraceSnapshot, Tracer,
};
