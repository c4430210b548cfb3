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
    fn parallel_for<F: Fn(usize) + Sync>(&self, n_items: usize, f: &F) {
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
    /// or degrade to serial execution; see [`Self::run_cols`].
    pub fn arm_faults(&self, plan: FaultPlan) {
        *self.inner.fault.lock().unwrap() = Some(plan);
    }

    /// Remove the armed fault plan, returning it (with its event counters
    /// still live) if one was armed.
    pub fn disarm_faults(&self) -> Option<FaultPlan> {
        self.inner.fault.lock().unwrap().take()
    }

    /// Dispatch `0..n_items` as the named kernel, recording wall time, the
    /// invocation, and the item count in the shared registry. For bodies
    /// that write nothing through the substrate (atomics, counters, probes);
    /// a kernel with outputs names them with [`Self::run_cols`].
    pub fn run<F: Fn(usize) + Sync>(&self, name: &'static str, n_items: usize, f: F) {
        self.run_with_bytes(name, n_items, 0, f);
    }

    /// Dispatch the named kernel once per item of the write set `out`,
    /// handing the body each dispatched index with that index's own part of
    /// every output view. `out` is one of
    ///
    /// * a [`ColumnsMut`] — index `i` gets column `i` as `&mut [T]`;
    /// * a `&mut [T]` — index `i` gets element `i` as `&mut T`;
    /// * an `Option` of either — `None` writes nothing, the body gets `None`;
    /// * a tuple of two to four of these — the body gets a tuple of parts;
    /// * [`over`]`(set, out)` — the dispatch runs over `set`'s indices only
    ///   and tells the body the index (`set[j]`), not the slot `j`.
    ///
    /// Every present view must hold the same number of items; that number
    /// is the dispatch length, and a mismatch panics before any body runs.
    ///
    /// **Disjoint writes.** The substrate alone chooses the indices: each
    /// index of a dispatch runs exactly once, and this call returns only
    /// after every index has finished. That holds on all three loops a
    /// dispatch can take — the serial loop, the team loop (traced or not:
    /// the chunk timers wrap the same body), and the serial degrade loop
    /// after a fault (a fault fires before the body runs, so a retried or
    /// degraded dispatch has run no index yet). So no two live parts ever
    /// share an index, and kernel bodies write through plain `&mut`.
    ///
    /// `bytes_per_item` is the per-item DMA payload estimate: a kernel that
    /// streams `k` arrays of `e`-byte elements per item passes `k·e`, and
    /// the dispatch attributes `n·k·e` modeled DMA bytes to the kernel
    /// *and* the global `dma.bytes` / `dma.transactions` counters (one
    /// transaction per dispatched CPE chunk: a chunk's columns stream in
    /// one DMA batch). Offload targets only — the serial MPE path does scalar
    /// loads, not DMA. Pass 0 for a compute-only kernel.
    ///
    /// With a [`FaultPlan`] armed, an offload dispatch may fail; a transient
    /// fault is retried (`fault.injected`, `fault.retries`), and one that
    /// persists through the plan's retry budget *degrades*: the kernel runs
    /// serially on the calling MPE thread — bitwise identical results, no
    /// DMA attribution — and `fault.degradations` ticks. Dispatches carrying
    /// a DMA payload are classified [`FaultSite::Dma`], compute-only ones
    /// [`FaultSite::Dispatch`]; the serial target never consults the plan.
    /// Model hot loops therefore always complete; chaos only changes where
    /// the work ran.
    pub fn run_cols<W, F>(&self, name: &'static str, bytes_per_item: usize, out: W, body: F)
    where
        W: WriteSet,
        F: Fn(usize, W::Col) + Sync,
    {
        let split = out.split();
        let n_items = W::count(&split).expect("a write set needs at least one present view");
        self.run_with_bytes(name, n_items, bytes_per_item, |slot| {
            // SAFETY: `slot < n_items`, and every slot runs once before the
            // dispatch returns (the disjoint-write argument above).
            body(W::index(&split, slot), unsafe { W::col(&split, slot) })
        });
    }

    /// The infallible dispatch behind [`Self::run`] and [`Self::run_cols`]:
    /// [`Self::try_run_with_bytes`], then the serial degrade loop if the
    /// armed fault plan exhausted its retries.
    fn run_with_bytes<F: Fn(usize) + Sync>(
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
    /// offloading, retrying a transient fault; one that persists through
    /// the budget returns the typed [`FaultError`] *without* running the
    /// kernel. The serial target, the ladder's last rung, never consults it.
    fn try_run_with_bytes<F: Fn(usize) + Sync>(
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

/// One flat slice viewed as columns for [`Substrate::run_cols`]: column `c`
/// is the window `[c·stride, (c+1)·stride)`, and the last column may be
/// shorter when `stride` does not divide the length. A dispatch over the
/// view hands index `c` column `c` as a plain `&mut [T]`.
///
/// The model's `Field2` layout is level-fastest (`col * nlev + lev`), so a
/// field's columns are a `ColumnsMut` of stride `nlev` (`Field2::cols_mut`).
pub struct ColumnsMut<'a, T> {
    ptr: *mut T,
    len: usize,
    stride: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: a `ColumnsMut` holds the `&'a mut [T]` it was built from, and its
// only accessor is `WriteSet::col`, which `Substrate::run_cols` calls once
// per dispatched index (the disjoint-write argument there) — so sharing the
// view shares no element between threads.
unsafe impl<T: Send> Sync for ColumnsMut<'_, T> {}

impl<'a, T> ColumnsMut<'a, T> {
    /// View `data` as `⌈len / stride⌉` columns of length `stride`.
    pub fn new(data: &'a mut [T], stride: usize) -> Self {
        assert!(stride > 0, "column stride must be positive");
        ColumnsMut {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            stride,
            _marker: PhantomData,
        }
    }
}

/// A strictly increasing list of indices: no index twice, so a dispatch
/// [`over`] it hands each index out once. Checked once, when built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSet(Vec<u32>);

impl IndexSet {
    /// Panics unless `indices` is strictly increasing.
    pub fn new(indices: Vec<u32>) -> Self {
        let increasing = indices.windows(2).all(|w| w[0] < w[1]);
        assert!(increasing, "an index set must be strictly increasing");
        IndexSet(indices)
    }

    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }
}

/// The write set `out` dispatched over `set`'s indices only: dispatch slot
/// `j` writes, and tells the body, index `set[j]`. The dispatch checks that
/// `set`'s last index is inside `out`.
pub fn over<W: Member>(set: &IndexSet, out: W) -> Over<'_, W> {
    Over { set, out }
}

/// See [`over`].
pub struct Over<'s, W> {
    set: &'s IndexSet,
    out: W,
}

/// The sealed write-set traits: public so they can bound
/// [`Substrate::run_cols`], in a private module so no other crate can
/// implement or call them.
mod write_set {
    /// Output views a dispatch writes, split per dispatched index.
    pub trait WriteSet {
        /// The views with their borrow held as raw parts, shared by the
        /// workers.
        type Split: Sync;
        /// What one dispatched index gets: its column, its element, or a
        /// tuple of those.
        type Col;
        fn split(self) -> Self::Split;
        /// The dispatch length; `None` when no view is present.
        fn count(split: &Self::Split) -> Option<usize>;
        /// The index the body is told for dispatch slot `slot`.
        fn index(_split: &Self::Split, slot: usize) -> usize {
            slot
        }
        /// Slot `slot`'s part of every view.
        ///
        /// # Safety
        /// `slot < count(split)`, and no slot is passed twice for one split.
        unsafe fn col(split: &Self::Split, slot: usize) -> Self::Col;
    }

    /// A write set that may stand in a tuple or an `Option`: every one but
    /// [`super::Over`], whose index map its siblings would not follow.
    pub trait Member: WriteSet {}
}
pub(crate) use write_set::{Member, WriteSet};

impl<'a, T: Send> WriteSet for ColumnsMut<'a, T> {
    type Split = Self;
    type Col = &'a mut [T];
    fn split(self) -> Self {
        self
    }
    fn count(s: &Self) -> Option<usize> {
        Some(s.len.div_ceil(s.stride))
    }
    unsafe fn col(s: &Self, c: usize) -> &'a mut [T] {
        let start = c * s.stride;
        debug_assert!(start < s.len);
        // SAFETY: the window lies inside the slice (`c < count`) and, by the
        // caller's contract, is handed out once.
        unsafe { std::slice::from_raw_parts_mut(s.ptr.add(start), s.stride.min(s.len - start)) }
    }
}
impl<T: Send> Member for ColumnsMut<'_, T> {}

impl<'a, T: Send> WriteSet for &'a mut [T] {
    type Split = ColumnsMut<'a, T>;
    type Col = &'a mut T;
    fn split(self) -> ColumnsMut<'a, T> {
        ColumnsMut::new(self, 1)
    }
    fn count(s: &ColumnsMut<'a, T>) -> Option<usize> {
        Some(s.len)
    }
    unsafe fn col(s: &ColumnsMut<'a, T>, i: usize) -> &'a mut T {
        debug_assert!(i < s.len);
        // SAFETY: `i < len` and, by the caller's contract, handed out once.
        unsafe { &mut *s.ptr.add(i) }
    }
}
impl<T: Send> Member for &mut [T] {}

impl<W: Member> WriteSet for Option<W> {
    type Split = Option<W::Split>;
    type Col = Option<W::Col>;
    fn split(self) -> Self::Split {
        self.map(W::split)
    }
    fn count(s: &Self::Split) -> Option<usize> {
        s.as_ref().and_then(W::count)
    }
    unsafe fn col(s: &Self::Split, i: usize) -> Self::Col {
        // SAFETY: the caller's contract, passed on.
        s.as_ref().map(|s| unsafe { W::col(s, i) })
    }
}
impl<W: Member> Member for Option<W> {}

/// The common count of a tuple's present views.
fn same_count(counts: &[Option<usize>]) -> Option<usize> {
    let mut present = counts.iter().flatten();
    let n = present.next().copied();
    if present.any(|&m| Some(m) != n) {
        panic!("every view of a write set must hold the same number of items: {counts:?}");
    }
    n
}

macro_rules! tuple_write_set {
    ($($w:ident $i:tt),+) => {
        impl<$($w: Member),+> WriteSet for ($($w,)+) {
            type Split = ($($w::Split,)+);
            type Col = ($($w::Col,)+);
            fn split(self) -> Self::Split {
                ($(self.$i.split(),)+)
            }
            fn count(s: &Self::Split) -> Option<usize> {
                same_count(&[$($w::count(&s.$i)),+])
            }
            unsafe fn col(s: &Self::Split, i: usize) -> Self::Col {
                // SAFETY: the caller's contract, passed on to every member.
                unsafe { ($($w::col(&s.$i, i),)+) }
            }
        }
        impl<$($w: Member),+> Member for ($($w,)+) {}
    };
}
tuple_write_set!(A 0, B 1);
tuple_write_set!(A 0, B 1, C 2);
tuple_write_set!(A 0, B 1, C 2, D 3);

impl<'s, W: Member> WriteSet for Over<'s, W> {
    type Split = (&'s [u32], W::Split);
    type Col = W::Col;
    fn split(self) -> Self::Split {
        (self.set.as_slice(), self.out.split())
    }
    fn count((set, out): &Self::Split) -> Option<usize> {
        if let (Some(&last), Some(n)) = (set.last(), W::count(out)) {
            assert!(
                (last as usize) < n,
                "index {last} is outside a write set of {n} items"
            );
        }
        Some(set.len())
    }
    fn index((set, _): &Self::Split, slot: usize) -> usize {
        set[slot] as usize
    }
    unsafe fn col(s: &Self::Split, slot: usize) -> W::Col {
        // SAFETY: an `IndexSet` is strictly increasing and its last index is
        // inside the views (`count`), so distinct slots name distinct
        // in-range indices.
        unsafe { W::col(&s.1, Self::index(s, slot)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::dispatch_fault_key;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// Calls per index of one dispatch of `n` items on `sub`, through a
    /// write set that records which index each slot was handed.
    fn calls_per_index(sub: &Substrate, name: &'static str, n: usize) -> Vec<u64> {
        let calls: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let mut seen = vec![usize::MAX; n];
        sub.run_cols(name, 0, &mut seen[..], |i, slot| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            *slot = i;
        });
        assert!(seen.iter().enumerate().all(|(i, &s)| s == i));
        calls.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// A dispatch over `out` must panic before any body runs.
    fn assert_refused<W: WriteSet>(out: W, why: &str) {
        let ran = AtomicU64::new(0);
        let sub = Substrate::cpe_teams(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sub.run_cols("refused", 0, out, |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "{why}");
        assert_eq!(ran.load(Ordering::Relaxed), 0, "{why}");
    }

    #[test]
    fn every_index_runs_exactly_once_serial_and_on_teams() {
        // The fault paths are counted in the fault tests below.
        let n = 1_003; // not a multiple of any chunk
        assert_eq!(
            calls_per_index(&Substrate::serial(), "serial", n),
            [1; 1_003]
        );
        let teams = Substrate::cpe_teams(8);
        assert_eq!(calls_per_index(&teams, "untraced", n), [1; 1_003]);
        teams.metrics().tracer().enable();
        assert_eq!(calls_per_index(&teams, "traced", n), [1; 1_003]);
        teams.metrics().tracer().disable();
    }

    #[test]
    fn serial_and_teams_write_the_same_bytes_through_a_ragged_view() {
        let (n, stride) = (1_000, 32); // 31 full columns and one of 8
        let f = |i: usize| (i as f32).sqrt() * 3.5 + 1.0;
        for sub in [Substrate::serial(), Substrate::cpe_teams(8)] {
            let mut out = vec![0.0f32; n];
            sub.run_cols("ragged", 0, ColumnsMut::new(&mut out, stride), |c, col| {
                for (k, v) in col.iter_mut().enumerate() {
                    *v = f(c * stride + k);
                }
            });
            assert_eq!(sub.metrics().snapshot().kernels["ragged"].items, 32);
            assert!(out
                .iter()
                .enumerate()
                .all(|(i, v)| v.to_bits() == f(i).to_bits()));
        }
    }

    #[test]
    fn an_option_view_may_be_absent_or_present() {
        let sub = Substrate::cpe_teams(4);
        let (mut x, mut sum) = (vec![0u32; 64], vec![7u32; 64]);
        sub.run_cols(
            "absent",
            0,
            (&mut x[..], None::<&mut [u32]>),
            |i, (x, s)| {
                assert!(s.is_none());
                *x = i as u32;
            },
        );
        sub.run_cols(
            "present",
            0,
            (&mut x[..], Some(&mut sum[..])),
            |_, (x, s)| {
                *s.expect("present view") += *x;
            },
        );
        assert!(sum.iter().enumerate().all(|(i, &s)| s == 7 + i as u32));
    }

    #[test]
    fn bad_write_sets_are_refused_before_any_body_runs() {
        let (mut a, mut b) = (vec![0u8; 10], vec![0u8; 11]);
        assert_refused((&mut a[..], &mut b[..]), "a 10-item and an 11-item view");
        let outside = IndexSet::new(vec![3, 10]);
        assert_refused(over(&outside, &mut a[..]), "index 10 of 10 items");
        let repeated = std::panic::catch_unwind(|| IndexSet::new(vec![3, 3, 7]));
        assert!(repeated.is_err(), "an index set with a repeated index");
    }

    #[test]
    fn a_subset_dispatch_tells_the_body_the_index() {
        let mut out = vec![0u32; 10];
        let set = IndexSet::new(vec![1, 4, 9]);
        let sub = Substrate::cpe_teams(2);
        sub.run_cols("subset", 0, over(&set, &mut out[..]), |i, x| {
            *x = i as u32 + 1
        });
        assert_eq!(out, [0, 2, 0, 0, 5, 0, 0, 0, 0, 10]);
    }

    #[test]
    fn spans_qualify_kernel_names_and_bytes_feed_dma_counters() {
        let sub = Substrate::cpe_teams(4);
        {
            let _step = sub.span("step");
            let _dy = sub.span("dycore");
            let mut buf = [0u8; 1000];
            sub.run_cols("streamed", 48, &mut buf[..], |_, _| {});
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
        let mut buf = [0u8; 100];
        sub.run_cols("streamed", 48, &mut buf[..], |_, _| {});
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
    fn pinned_dispatch_fault_degrades_to_serial_running_each_index_once() {
        let sub = Substrate::cpe_teams(4);
        // The kernel's first dispatch fails every attempt.
        sub.arm_faults(
            FaultPlan::new(1)
                .pin(FaultSite::Dispatch, dispatch_fault_key("faultable", 0))
                .with_max_retries(2),
        );
        assert_eq!(calls_per_index(&sub, "faultable", 4096), [1; 4096]);
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
    fn transient_fault_clears_on_retry_running_each_index_once() {
        // Pins persist, so use a rate plan and find a seed where attempt 0
        // fires and attempt 1 clears, exercising the retry path
        // deterministically.
        let key = dispatch_fault_key("retryable", 0);
        let seed = (0..64)
            .find(|&seed| {
                let p = FaultPlan::new(seed).with_rate(FaultSite::Dispatch, 0.5);
                p.should_fail(FaultSite::Dispatch, key, 0)
                    && !p.should_fail(FaultSite::Dispatch, key, 1)
            })
            .expect("some seed in 0..64 fires then clears");
        let sub = Substrate::cpe_teams(4);
        sub.arm_faults(FaultPlan::new(seed).with_rate(FaultSite::Dispatch, 0.5));
        assert_eq!(calls_per_index(&sub, "retryable", 256), [1; 256]);
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
