//! # grist-runtime
//!
//! The parallelization facilitation layer (§3.1.3) of the GRIST-rs
//! reproduction: an in-process message-passing rank world (the MPI
//! stand-in), the linked-list gathered halo exchange, the 16:3-oversubscribed
//! fat-tree network model, and the SDPD scaling projection behind
//! Figs. 10–11.

// Indexed loops mirror the Fortran stencil kernels they reproduce and are
// clearer than iterator chains for staggered-grid code.
#![allow(clippy::needless_range_loop)]
pub mod comm;
pub mod exchange;
pub mod fattree;
pub mod scaling;

pub use comm::{run_world, CommStats, RankCtx};
pub use exchange::{
    exchange_gathered, halo_fault_key, ExchangeCtx, ExchangeError, ExchangeReceipt,
    PendingExchange, VarList,
};
pub use fattree::{boundary_fraction, exchange_time, ExchangeProfile, ExchangeTime};
pub use scaling::{
    grid_by_label, table2_grids, weak_scaling_efficiencies, weak_scaling_ladder, GridSpec,
    MeasuredCosts, ScalingError, Scheme, SdpdModel, SdpdModelConfig, SdpdResult,
};
