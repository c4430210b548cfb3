//! # grist-serve
//!
//! The operational face of the reproduction: a forecast *service* answering
//! point/region queries (column state, derived products like precip/t2m)
//! against a **running** ensemble, without external dependencies — the
//! front-end is a plain thread pool draining an mpsc channel and answering
//! through one-shot reply slots, so the crate builds fully offline like the
//! rest of the workspace.
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
//!   opportunistically up to `max_batch`, and fill each query's reply slot
//!   (one small allocation, no channel), waking its client only if it is
//!   parked.
//! * [`run_ensemble`]/[`spawn_ensemble`] — members sharded across rank
//!   pools via [`run_world`](grist_runtime::run_world), publishing a view
//!   per member per epoch.
//!
//! Telemetry lives in the registry and tracer the engine's substrate already
//! owns (DESIGN.md §13): a [`ForecastServer`] records per-query queue wait
//! and latency and per-batch size as histograms in the engine's `Metrics`,
//! and takes its request-scoped flow IDs from the engine's tracer, so
//! turning tracing on is the one switch that joins a served answer to its
//! kernel spans.
//! [`run_ensemble`] samples every member's physics health into that
//! member's own `HealthWatch` and returns the alerts in its [`RankReport`]s.

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

/// Lock `m`, taking the data even if a holder panicked: no critical section
/// in this crate can panic with its data torn. Store members: `publish`
/// asserts before it mutates; `latest` / `get` read. Store log: a `push` or
/// a clone. Engine replicas: the replica restores before it replaces
/// `rep.cache`, and a stale cache's epoch differs from the store's latest,
/// so the next call re-restores. Server queue: `recv` / `try_recv` only.
/// Reply slots: assignments only.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
