//! # grist-runtime
//!
//! The parallelization facilitation layer (§3.1.3) of the GRIST-rs
//! reproduction: an in-process message-passing rank world (the MPI
//! stand-in) and the linked-list gathered halo exchange. The fat-tree
//! network model and the SDPD scaling projection behind Figs. 10–11 model
//! the Sunway machine, not this host; they live in `sunway-model`.

// Indexed loops mirror the Fortran stencil kernels they reproduce and are
// clearer than iterator chains for staggered-grid code.
#![allow(clippy::needless_range_loop)]
pub mod comm;
pub mod exchange;

pub use comm::{run_world, CommStats, RankCtx};
pub use exchange::{
    exchange_gathered, halo_fault_key, ExchangeCtx, ExchangeError, ExchangeReceipt,
    PendingExchange, VarList,
};
