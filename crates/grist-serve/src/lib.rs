//! # grist-serve
//!
//! The operational face of the reproduction: a forecast *service* answering
//! point/region queries (column state, derived products like precip/t2m)
//! against a **running** ensemble, without external dependencies — the
//! front-end is a plain thread pool draining an mpsc channel, so the crate
//! builds fully offline like the rest of the workspace.
//!
//! The design splits into four pieces (DESIGN.md §12):
//!
//! * [`SnapshotStore`] — epoch-tagged, [`Checkpoint`](grist_core::Checkpoint)-
//!   backed views published by the simulation side between `advance` calls.
//!   Views are immutable once published, so a query holding one can never
//!   observe torn state mid-step; the epoch is the model's `dyn_steps`.
//! * [`QueryEngine`] — per-member serving replicas restored from the latest
//!   view on demand, with an extracted-column + derived-product cache that
//!   invalidates when the member's epoch moves. Concurrent queries gather
//!   into **one** batched `MlSuite::step_columns` dispatch (the same
//!   `ScratchPool`-backed GEMM path the ML physics uses), against the
//!   per-query reference path [`QueryEngine::serve_one_percol`].
//! * [`ForecastServer`] — the thread-pool front-end: clients `submit` and
//!   get a [`PendingResponse`]; workers drain the queue, forming batches
//!   opportunistically up to `max_batch`.
//! * [`run_ensemble`]/[`spawn_ensemble`] — members sharded across rank
//!   pools via [`run_world`](grist_runtime::run_world), publishing a view
//!   per member per epoch.
//!
//! The stack is instrumented for the live telemetry plane (DESIGN.md §13):
//! a [`ForecastServer`] started on an engine with a plane attached
//! ([`QueryEngine::with_obs`]) mints request-scoped trace IDs and records
//! per-query latency / per-batch size into the shared
//! [`ObsPlane`](grist_obs::ObsPlane), re-evaluating its SLO policy after
//! every batch, and [`run_ensemble`] under an [`EnsembleConfig`] carrying
//! the same plane streams per-epoch physics health into it.

pub mod engine;
pub mod ensemble;
pub mod server;
pub mod store;

pub use engine::{
    default_suite, derive, ColumnState, Derived, Product, ProductData, Query, QueryEngine,
    Response, Select, ServeError,
};
pub use ensemble::{
    run_ensemble, spawn_ensemble, EnsembleConfig, EnsembleHandle, PoolTarget, RankReport,
};
pub use server::{ForecastServer, PendingResponse, ServeConfig};
pub use store::{EpochView, SnapshotStore};
