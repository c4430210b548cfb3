//! The execution-target layer: one handle threaded through every model hot
//! loop, deciding *where* a kernel's iterations run.
//!
//! The paper offloads every dycore/physics loop to the 64 CPEs of a core
//! group through SWGOMP's job server (§3.3.1, Fig. 4–5), with the
//! memory-address-distributing pool allocator (§3.3.3) assigned per core
//! group. [`Substrate`] packages that choice: either the loop runs serially
//! on the "MPE" (the calling thread), or it is shipped through
//! [`JobServer::target_parallel_for`] — the `!$omp target` path — chunked to
//! emulate CPE teams.
//!
//! Kernels are *named* at the dispatch site; the substrate records wall
//! time, invocation counts, dispatched items, and attributed DMA bytes per
//! name in a shared [`Metrics`] registry, under the trace-span path the
//! driver currently has open (e.g. `step/dycore/hevi_mass_flux`). That feeds
//! the Fig. 9-style measured table, `GristModel::kernel_report()`, and the
//! machine-readable `GristModel::metrics_json()` consumed by the
//! `BENCH_*.json` baseline pipeline.
//!
//! Cloning a `Substrate` is cheap and shares the job server *and* the
//! metrics registry, so a solver and the model driver holding clones of the
//! same substrate accumulate into one report.

use crate::fault::{FaultError, FaultPlan, FaultSite};
use crate::metrics::{Metrics, SpanGuard};
use crate::swgomp::JobServer;
use crate::trace::{self, EventKind};
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where loop iterations execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTargetKind {
    /// Run on the calling thread (the MPE), no offload.
    Serial,
    /// Offload through the SWGOMP job server to emulated CPE teams.
    CpeTeams,
}

/// One row of a kernel report, ready for display. `name` is the full
/// span-qualified kernel path (e.g. `step/dycore/hevi_mass_flux`).
#[derive(Debug, Clone)]
pub struct KernelReportRow {
    pub name: String,
    pub calls: u64,
    pub total_ms: f64,
    pub mean_us: f64,
}

/// Turn the registry's kernel table into display rows, sorted by total time
/// descending (the Fig. 9 convention: hottest kernel first).
pub fn kernel_report_rows(metrics: &Metrics) -> Vec<KernelReportRow> {
    let mut rows: Vec<KernelReportRow> = metrics
        .kernel_snapshot()
        .into_iter()
        .map(|(name, s)| KernelReportRow {
            name,
            calls: s.calls,
            total_ms: s.nanos as f64 / 1e6,
            mean_us: if s.calls == 0 {
                0.0
            } else {
                s.nanos as f64 / 1e3 / s.calls as f64
            },
        })
        .collect();
    rows.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
    rows
}

/// Format report rows as an aligned text table.
pub fn format_kernel_report(rows: &[KernelReportRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>10} {:>12} {:>12}\n",
        "kernel", "calls", "total ms", "mean us"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<26} {:>10} {:>12.3} {:>12.3}\n",
            r.name, r.calls, r.total_ms, r.mean_us
        ));
    }
    out
}

struct SubstrateInner {
    kind: ExecTargetKind,
    server: Option<JobServer>,
    metrics: Metrics,
    /// Armed chaos schedule, shared by every clone. `None` (the default)
    /// keeps the dispatch path infallible and fault-free.
    fault: Mutex<Option<FaultPlan>>,
}

impl SubstrateInner {
    fn new(kind: ExecTargetKind, server: Option<JobServer>, metrics: Metrics) -> Self {
        SubstrateInner {
            kind,
            server,
            metrics,
            fault: Mutex::new(None),
        }
    }
}

/// A cheap-to-clone handle selecting the execution target for named kernels.
///
/// Held by `SweSolver`, the HEVI `NhSolver`, and the physics suites; all
/// clones share one [`JobServer`] and one [`Metrics`] registry.
#[derive(Clone)]
pub struct Substrate {
    inner: Arc<SubstrateInner>,
}

impl fmt::Debug for Substrate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Substrate")
            .field("kind", &self.inner.kind)
            .field("n_cpes", &self.n_cpes())
            .finish()
    }
}

impl Default for Substrate {
    fn default() -> Self {
        Substrate::serial()
    }
}

impl Substrate {
    /// The fallback target: every kernel runs on the calling thread.
    pub fn serial() -> Self {
        Substrate::serial_with_metrics(Metrics::default())
    }

    /// Serial target recording into an existing (shared) registry — the
    /// multi-rank idiom: every rank builds its own substrate over one cloned
    /// [`Metrics`], so kernel stats, counters, and the event trace merge
    /// into a single world-wide view.
    pub fn serial_with_metrics(metrics: Metrics) -> Self {
        Substrate {
            inner: Arc::new(SubstrateInner::new(ExecTargetKind::Serial, None, metrics)),
        }
    }

    /// Offload target: a persistent [`JobServer`] with `n_cpes` workers.
    pub fn cpe_teams(n_cpes: usize) -> Self {
        Substrate::cpe_teams_with_metrics(n_cpes, Metrics::default())
    }

    /// [`Self::cpe_teams`] recording into an existing (shared) registry;
    /// see [`Self::serial_with_metrics`].
    pub fn cpe_teams_with_metrics(n_cpes: usize, metrics: Metrics) -> Self {
        Substrate {
            inner: Arc::new(SubstrateInner::new(
                ExecTargetKind::CpeTeams,
                Some(JobServer::new(n_cpes)),
                metrics,
            )),
        }
    }

    pub fn kind(&self) -> ExecTargetKind {
        self.inner.kind
    }

    /// Worker count of the offload target; 1 for the serial target (the
    /// MPE itself).
    pub fn n_cpes(&self) -> usize {
        self.inner.server.as_ref().map_or(1, |s| s.n_cpes)
    }

    /// The shared observability registry: per-kernel stats, trace spans,
    /// and hardware-model counters.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Open a trace span on the shared registry; kernels dispatched while
    /// the guard lives are attributed under it (see [`Metrics::span`]).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.inner.metrics.span(name)
    }

    /// Dispatch `0..n_items`, untimed. Serial target runs in order on the
    /// calling thread; CpeTeams ships one team-head job whose team works the
    /// loop in chunks of `n / (4 · n_cpes)` (the workshare chunking idiom).
    pub fn parallel_for<F: Fn(usize) + Sync>(&self, n_items: usize, f: &F) {
        match &self.inner.server {
            None => {
                for i in 0..n_items {
                    f(i);
                }
            }
            Some(server) => {
                let chunk = n_items.div_ceil(4 * server.n_cpes).max(1);
                server.target_parallel_for(n_items, chunk, f);
            }
        }
    }

    /// Arm a seeded [`FaultPlan`] on this substrate (and every clone of it).
    /// Subsequent offload dispatches consult the plan and may fail, retry,
    /// or degrade to serial execution; see [`Self::run_with_bytes`].
    pub fn arm_faults(&self, plan: FaultPlan) {
        *self.inner.fault.lock().unwrap() = Some(plan);
    }

    /// Remove the armed fault plan, returning it (with its event counters
    /// still live) if one was armed.
    pub fn disarm_faults(&self) -> Option<FaultPlan> {
        self.inner.fault.lock().unwrap().take()
    }

    /// Dispatch `0..n_items` as the named kernel, recording wall time, the
    /// invocation, and the item count in the shared registry.
    pub fn run<F: Fn(usize) + Sync>(&self, name: &'static str, n_items: usize, f: F) {
        self.run_with_bytes(name, n_items, 0, f);
    }

    /// [`Self::run`] with a per-item DMA payload estimate: a kernel that
    /// streams `k` arrays of `e`-byte elements per iteration passes
    /// `bytes_per_item = k·e`, and the dispatch attributes `n_items·k·e`
    /// modeled DMA bytes to the kernel *and* the global `dma.bytes` /
    /// `dma.transactions` counters (one transaction per dispatched CPE
    /// chunk, matching the omnicopy batching granularity). Offload targets
    /// only — the serial MPE path does scalar loads, not DMA.
    ///
    /// If a [`FaultPlan`] is armed and the dispatch fails through its whole
    /// retry budget (see [`Self::try_run_with_bytes`]), this infallible
    /// entry point *degrades*: the kernel runs serially on the calling MPE
    /// thread — bitwise identical results, no DMA attribution — and the
    /// `fault.degradations` counter ticks. Model hot loops therefore always
    /// complete; chaos only changes where the work ran.
    pub fn run_with_bytes<F: Fn(usize) + Sync>(
        &self,
        name: &'static str,
        n_items: usize,
        bytes_per_item: usize,
        f: F,
    ) {
        if let Err(_fault) = self.try_run_with_bytes(name, n_items, bytes_per_item, &f) {
            let metrics = &self.inner.metrics;
            metrics.counter_add("fault.degradations", 1);
            let t0 = Instant::now();
            for i in 0..n_items {
                f(i);
            }
            let nanos = t0.elapsed().as_nanos() as u64;
            if metrics.tracer().is_enabled() {
                metrics.tracer().record_complete(
                    EventKind::Kernel,
                    &metrics.qualified_kernel(name),
                    t0,
                    n_items as u64,
                    0,
                );
            }
            metrics.record_kernel(name, nanos, n_items as u64, 0);
        }
    }

    /// Fallible dispatch: consult the armed [`FaultPlan`] (if any) before
    /// offloading. A transient fault is retried up to the plan's
    /// `max_retries` (ticking `fault.injected` per fire and `fault.retries`
    /// per re-issue); a fault that persists through the budget returns the
    /// typed [`FaultError`] *without* running the kernel, leaving the
    /// degrade decision to the caller. Dispatches carrying a DMA payload
    /// (`bytes_per_item > 0`) are classified [`FaultSite::Dma`], compute-only
    /// dispatches [`FaultSite::Dispatch`]. The serial target never consults
    /// the plan — stalled dispatches and corrupt DMA are offload failure
    /// modes (the recovery ladder's terminal rung *is* serial execution).
    pub fn try_run_with_bytes<F: Fn(usize) + Sync>(
        &self,
        name: &'static str,
        n_items: usize,
        bytes_per_item: usize,
        f: &F,
    ) -> Result<(), FaultError> {
        if self.inner.server.is_some() {
            let plan = self.inner.fault.lock().unwrap().clone();
            if let Some(plan) = plan {
                let (site, key) = if bytes_per_item > 0 {
                    (FaultSite::Dma, plan.next_dma_key())
                } else {
                    (FaultSite::Dispatch, plan.next_dispatch_key(name))
                };
                let metrics = &self.inner.metrics;
                let mut attempt = 0u32;
                while plan.should_fail(site, key, attempt) {
                    metrics.counter_add("fault.injected", 1);
                    if attempt >= plan.max_retries() {
                        return Err(FaultError {
                            site,
                            key,
                            attempts: attempt + 1,
                        });
                    }
                    metrics.counter_add("fault.retries", 1);
                    attempt += 1;
                }
            }
        }
        self.dispatch_recorded(name, n_items, bytes_per_item, f);
        Ok(())
    }

    /// The clean dispatch path: execute on the configured target and record
    /// kernel stats plus offload/DMA counters. With tracing enabled this
    /// also emits one [`EventKind::Kernel`] event on the dispatching thread,
    /// per-chunk [`EventKind::Chunk`] events on the worker lanes (attributed
    /// to the dispatcher's rank), and a [`EventKind::Dma`] instant carrying
    /// the modeled payload.
    fn dispatch_recorded<F: Fn(usize) + Sync>(
        &self,
        name: &'static str,
        n_items: usize,
        bytes_per_item: usize,
        f: &F,
    ) {
        let metrics = &self.inner.metrics;
        let tracer = metrics.tracer();
        let traced = tracer.is_enabled();
        let qualified = if traced {
            Some(metrics.qualified_kernel(name))
        } else {
            None
        };
        let t0 = Instant::now();
        match (&self.inner.server, &qualified) {
            (Some(server), Some(qname)) if n_items > 0 => {
                // Traced offload: wrap the body so each worker opens a chunk
                // timer at its chunk's first index and closes it at the last
                // (same chunk arithmetic as `parallel_for`).
                let chunk = n_items.div_ceil(4 * server.n_cpes).max(1);
                let rank = trace::thread_rank();
                let wrapped = |i: usize| {
                    if i.is_multiple_of(chunk) {
                        trace::chunk_begin();
                    }
                    f(i);
                    if (i + 1).is_multiple_of(chunk) || i + 1 == n_items {
                        let items = (i % chunk + 1) as u64;
                        tracer.record_chunk_end(qname, rank, items);
                    }
                };
                server.target_parallel_for(n_items, chunk, &wrapped);
            }
            _ => self.parallel_for(n_items, f),
        }
        let nanos = t0.elapsed().as_nanos() as u64;
        let mut bytes = 0u64;
        let mut transactions = 0u64;
        if let Some(server) = &self.inner.server {
            metrics.counter_add("substrate.dispatches", 1);
            metrics.counter_add("substrate.items", n_items as u64);
            if bytes_per_item > 0 {
                bytes = (n_items * bytes_per_item) as u64;
                let chunk = n_items.div_ceil(4 * server.n_cpes).max(1);
                transactions = n_items.div_ceil(chunk) as u64;
                metrics.counter_add("dma.bytes", bytes);
                metrics.counter_add("dma.transactions", transactions);
            }
        }
        if let Some(qname) = &qualified {
            tracer.record_complete(EventKind::Kernel, qname, t0, n_items as u64, bytes);
            if bytes > 0 {
                tracer.record_instant(EventKind::Dma, qname, transactions, bytes);
            }
            // Stamp any request flow IDs active on this thread (see
            // `trace::flow_scope`) so served queries join their kernels.
            tracer.record_scoped_flows(qname);
        }
        metrics.record_kernel(name, nanos, n_items as u64, bytes);
    }

    /// Report rows for every kernel dispatched through this substrate (or
    /// any clone of it), hottest first.
    pub fn kernel_report(&self) -> Vec<KernelReportRow> {
        kernel_report_rows(&self.inner.metrics)
    }

    pub fn reset_profile(&self) {
        self.inner.metrics.reset();
    }
}

/// Hands out disjoint `&mut` column views of one flat slice to concurrently
/// running loop iterations.
///
/// The model's `Field2` layout is level-fastest (`col * nlev + lev`), so a
/// per-column kernel writes the contiguous window `[col*stride, (col+1)*stride)`.
/// `ColumnsMut` erases the slice to a raw base pointer (making it `Sync`) and
/// reconstitutes per-column sub-slices on demand.
pub struct ColumnsMut<'a, T> {
    ptr: *mut T,
    stride: usize,
    n_cols: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: `ColumnsMut` only exposes element access through `col`/`at`, whose
// safety contract requires callers to touch disjoint indices; the underlying
// data is owned by a `&mut [T]` the caller keeps borrowed for 'a.
unsafe impl<T: Send> Send for ColumnsMut<'_, T> {}
unsafe impl<T: Send> Sync for ColumnsMut<'_, T> {}

impl<'a, T> ColumnsMut<'a, T> {
    /// View `data` as `data.len() / stride` columns of length `stride`.
    pub fn new(data: &'a mut [T], stride: usize) -> Self {
        assert!(stride > 0, "column stride must be positive");
        assert_eq!(
            data.len() % stride,
            0,
            "slice length must be a multiple of the stride"
        );
        ColumnsMut {
            ptr: data.as_mut_ptr(),
            stride,
            n_cols: data.len() / stride,
            _marker: PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.n_cols
    }

    pub fn is_empty(&self) -> bool {
        self.n_cols == 0
    }

    /// Mutable view of column `c`.
    ///
    /// # Safety
    /// Concurrent callers must pass distinct `c`; each column may be borrowed
    /// by at most one loop iteration at a time. The substrate's dispatchers
    /// guarantee this when `c` is the (unique) loop index.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn col(&self, c: usize) -> &mut [T] {
        debug_assert!(c < self.n_cols);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(c * self.stride), self.stride) }
    }

    /// Mutable reference to flat element `i` (range `0..stride*len`).
    ///
    /// # Safety
    /// Concurrent callers must pass distinct `i` (same discipline as [`Self::col`]).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn at(&self, i: usize) -> &mut T {
        debug_assert!(i < self.n_cols * self.stride);
        unsafe { &mut *self.ptr.add(i) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::dispatch_fault_key;

    #[test]
    fn serial_and_cpe_teams_produce_identical_results() {
        let n = 10_000;
        let run_on = |sub: &Substrate| {
            let mut out = vec![0.0f64; n];
            {
                let cols = ColumnsMut::new(&mut out, 1);
                sub.run("square_root_scale", n, |i| {
                    // SAFETY: each index visited exactly once.
                    *unsafe { cols.at(i) } = (i as f64).sqrt() * 3.5 + 1.0;
                });
            }
            out
        };
        let serial = run_on(&Substrate::serial());
        let teams = run_on(&Substrate::cpe_teams(8));
        assert_eq!(serial, teams, "per-index kernels must be bitwise identical");
    }

    #[test]
    fn profiler_counts_calls_and_time() {
        let sub = Substrate::serial();
        for _ in 0..5 {
            sub.run("noop_kernel", 100, |_| {});
        }
        sub.run("other_kernel", 10, |_| {});
        let rows = sub.kernel_report();
        assert_eq!(rows.len(), 2);
        let noop = rows.iter().find(|r| r.name == "noop_kernel").unwrap();
        assert_eq!(noop.calls, 5);
        let other = rows.iter().find(|r| r.name == "other_kernel").unwrap();
        assert_eq!(other.calls, 1);
        sub.reset_profile();
        assert!(sub.kernel_report().is_empty());
    }

    #[test]
    fn clones_share_the_profiler() {
        let sub = Substrate::cpe_teams(4);
        let clone = sub.clone();
        clone.run("from_the_clone", 64, |_| {});
        let rows = sub.kernel_report();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "from_the_clone");
        assert_eq!(rows[0].calls, 1);
    }

    #[test]
    fn columns_hand_out_disjoint_windows() {
        let nlev = 7;
        let ncols = 300;
        let mut data = vec![0.0f64; nlev * ncols];
        {
            let cols = ColumnsMut::new(&mut data, nlev);
            assert_eq!(cols.len(), ncols);
            let sub = Substrate::cpe_teams(8);
            sub.run("fill_columns", ncols, |c| {
                // SAFETY: each column index visited exactly once.
                let col = unsafe { cols.col(c) };
                for (k, v) in col.iter_mut().enumerate() {
                    *v = (c * nlev + k) as f64;
                }
            });
        }
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as f64);
        }
    }

    #[test]
    fn spans_qualify_kernel_names_and_bytes_feed_dma_counters() {
        let sub = Substrate::cpe_teams(4);
        {
            let _step = sub.span("step");
            let _dy = sub.span("dycore");
            sub.run_with_bytes("streamed", 1000, 48, |_| {});
        }
        let rows = sub.kernel_report();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "step/dycore/streamed");
        let m = sub.metrics();
        assert_eq!(m.counter("dma.bytes"), 48_000);
        assert!(m.counter("dma.transactions") >= 1);
        assert_eq!(m.counter("substrate.dispatches"), 1);
        assert_eq!(m.counter("substrate.items"), 1000);
        let snap = m.snapshot();
        assert_eq!(snap.kernels["step/dycore/streamed"].bytes, 48_000);
        assert_eq!(snap.spans["step/dycore"].calls, 1);
    }

    #[test]
    fn serial_target_attributes_no_dma_traffic() {
        let sub = Substrate::serial();
        sub.run_with_bytes("streamed", 100, 48, |_| {});
        assert_eq!(sub.metrics().counter("dma.bytes"), 0);
        assert_eq!(sub.metrics().counter("substrate.dispatches"), 0);
        let snap = sub.metrics().snapshot();
        assert_eq!(snap.kernels["streamed"].items, 100);
        assert_eq!(snap.kernels["streamed"].bytes, 0);
    }

    #[test]
    fn report_formats_into_a_table() {
        let sub = Substrate::serial();
        sub.run("alpha", 10, |_| {});
        let text = format_kernel_report(&sub.kernel_report());
        assert!(text.contains("kernel"));
        assert!(text.contains("alpha"));
    }

    #[test]
    fn pinned_dispatch_fault_degrades_to_serial_with_identical_results() {
        let n = 4096;
        let run_on = |sub: &Substrate| {
            let mut out = vec![0.0f64; n];
            {
                let cols = ColumnsMut::new(&mut out, 1);
                sub.run("faultable", n, |i| {
                    // SAFETY: each index visited exactly once.
                    *unsafe { cols.at(i) } = (i as f64).ln_1p() * 2.0;
                });
            }
            out
        };
        let clean = run_on(&Substrate::cpe_teams(4));

        let sub = Substrate::cpe_teams(4);
        // The kernel's first dispatch fails every attempt.
        sub.arm_faults(
            FaultPlan::new(1)
                .pin(FaultSite::Dispatch, dispatch_fault_key("faultable", 0))
                .with_max_retries(2),
        );
        let chaotic = run_on(&sub);
        assert_eq!(clean, chaotic, "degraded serial run must match bitwise");
        let m = sub.metrics();
        assert_eq!(m.counter("fault.injected"), 3, "initial try + 2 retries");
        assert_eq!(m.counter("fault.retries"), 2);
        assert_eq!(m.counter("fault.degradations"), 1);
        // The degraded dispatch never reached the offload path.
        assert_eq!(m.counter("substrate.dispatches"), 0);
        assert_eq!(m.snapshot().kernels["faultable"].calls, 1);
    }

    #[test]
    fn try_run_surfaces_a_typed_error_instead_of_panicking() {
        let sub = Substrate::cpe_teams(4);
        sub.arm_faults(FaultPlan::new(0).pin(FaultSite::Dma, 0).with_max_retries(1));
        let err = sub
            .try_run_with_bytes("dma_kernel", 128, 8, &|_| {})
            .unwrap_err();
        assert_eq!(err.site, FaultSite::Dma);
        assert_eq!(err.key, 0);
        assert_eq!(err.attempts, 2);
        // Subsequent DMA dispatches draw fresh keys and succeed.
        assert!(sub
            .try_run_with_bytes("dma_kernel", 128, 8, &|_| {})
            .is_ok());
        assert_eq!(sub.metrics().counter("dma.bytes"), 128 * 8);
    }

    #[test]
    fn transient_fault_clears_on_retry_without_degrading() {
        // A pinned fault covers only attempt 0? No — pins persist. Use a
        // rate plan and find a seed/key where attempt 0 fires and attempt 1
        // clears, exercising the retry path deterministically.
        let mut chosen = None;
        let key = dispatch_fault_key("retryable", 0);
        'outer: for seed in 0..64 {
            let p = FaultPlan::new(seed).with_rate(FaultSite::Dispatch, 0.5);
            if p.should_fail(FaultSite::Dispatch, key, 0)
                && !p.should_fail(FaultSite::Dispatch, key, 1)
            {
                chosen = Some(seed);
                break 'outer;
            }
        }
        let seed = chosen.expect("some seed in 0..64 fires then clears");
        let sub = Substrate::cpe_teams(4);
        sub.arm_faults(FaultPlan::new(seed).with_rate(FaultSite::Dispatch, 0.5));
        sub.run("retryable", 256, |_| {});
        let m = sub.metrics();
        assert_eq!(m.counter("fault.injected"), 1);
        assert_eq!(m.counter("fault.retries"), 1);
        assert_eq!(m.counter("fault.degradations"), 0);
        assert_eq!(
            m.counter("substrate.dispatches"),
            1,
            "retry reached offload"
        );
    }

    #[test]
    fn disarm_restores_the_fault_free_path() {
        let sub = Substrate::cpe_teams(2);
        sub.arm_faults(FaultPlan::new(0).pin(FaultSite::Dispatch, dispatch_fault_key("calm", 0)));
        let plan = sub.disarm_faults().expect("was armed");
        assert_eq!(plan.seed(), 0);
        assert!(sub.disarm_faults().is_none());
        sub.run("calm", 64, |_| {});
        assert_eq!(sub.metrics().counter("fault.injected"), 0);
    }

    #[test]
    fn serial_target_ignores_the_fault_plan() {
        let sub = Substrate::serial();
        sub.arm_faults(
            FaultPlan::new(0)
                .pin(FaultSite::Dispatch, dispatch_fault_key("mpe_kernel", 0))
                .with_rate(FaultSite::Dispatch, 1.0),
        );
        sub.run("mpe_kernel", 64, |_| {});
        assert_eq!(sub.metrics().counter("fault.injected"), 0);
        assert_eq!(sub.metrics().snapshot().kernels["mpe_kernel"].calls, 1);
    }
}
