//! # sunway-model
//!
//! The modeled SW26010P / next-generation Sunway system (§3.3, §4.1 of the
//! paper), standing in for hardware this reproduction cannot access. Every
//! number it produces is a projection: Fig. 9's speedups, Figs. 10–11's
//! SDPD, the LDCache / allocator / DMA counters of the smoke pin. No run of
//! the model reaches this crate; the runtime it prices is `sunway-sim`,
//! whose [`KernelSpec`](sunway_sim::KernelSpec) descriptors it reads.
//!
//! * [`arch`] — the chip/system constants (6 CGs × (1 MPE + 64 CPEs), 256 KB
//!   LDM, 51.2 GB/s DDR per CG, 107,520 nodes, 16:3 fat tree).
//! * [`ldcache`] — a 4-way set-associative LDCache simulator reproducing the
//!   Fig. 6 thrashing analysis.
//! * [`distributor`] — the memory-address-distributing pool allocator that
//!   fixes the thrashing (§3.3.3).
//! * [`dma`] — the CG's DMA engine: descriptor amortization and 64-way
//!   contention.
//! * [`perf`] — the roofline model behind Fig. 9 (compute-bound MPE,
//!   bandwidth-bound CPE cluster, f32 traffic halving) and the roofline
//!   inputs of the trace attribution report.
//! * [`fattree`] — the 16:3-oversubscribed fat-tree network model.
//! * [`scaling`] — the SDPD projection behind Figs. 10–11 and Tables 2–3.

pub mod arch;
pub mod distributor;
pub mod dma;
pub mod fattree;
pub mod ldcache;
pub mod perf;
pub mod scaling;

pub use arch::SunwaySpec;
pub use distributor::{AllocPolicy, PoolAllocator};
pub use dma::{
    amortization_threshold, effective_bandwidth, simulate_dma_batch, DmaCompletion, DmaRequest,
};
pub use fattree::{boundary_fraction, exchange_time, ExchangeProfile, ExchangeTime};
pub use ldcache::{simulate_streams, Access, LdCache};
pub use perf::{fig9_table, kernel_time, roofline_inputs, stream_hit_ratio, Domain, ExecTarget};
pub use scaling::{
    grid_by_label, table2_grids, weak_scaling_efficiencies, weak_scaling_ladder, GridSpec,
    MeasuredCosts, ScalingError, Scheme, SdpdModel, SdpdModelConfig, SdpdResult,
};
