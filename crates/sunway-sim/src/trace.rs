//! Event-level tracing: per-thread timelines behind the aggregated
//! [`Metrics`](crate::metrics::Metrics) registry.
//!
//! The registry answers "how much" (total nanoseconds per kernel); it cannot
//! answer "when", "in what order", or "who waited on whom" — the questions
//! behind the paper's Fig. 9 attribution, the SDPD throughput budget, and
//! the halo-wait/rank-imbalance diagnosis. This module records *timestamped
//! events* — spans, kernel dispatches, per-CPE chunk executions, halo
//! exchanges and their per-message waits, fault injections, retries,
//! degradations, checkpoints, and restores — into bounded per-thread ring
//! buffers, and turns them into:
//!
//! * a Chrome/Perfetto `trace_event` JSON timeline
//!   ([`TraceSnapshot::to_chrome_json`]) with one process lane per rank and
//!   one thread lane per recording thread (driver "MPE" plus the `cpe-N`
//!   job-server workers), loadable at <https://ui.perfetto.dev>;
//! * an attribution report ([`analyze`]) of what the host measured:
//!   per-kernel time and critical-path share, achieved GFLOP/s where the
//!   caller supplies exact FLOP totals, the halo wait-vs-transfer split and
//!   the rank load-imbalance factor. No modeled machine enters it.
//!
//! # Cost model
//!
//! Tracing is **off by default** and toggled at runtime ([`Tracer::enable`]
//! / [`Tracer::disable`]). Every recording entry point first does one
//! relaxed atomic load and returns — no lock, no allocation, no clock read
//! — so instrumented hot loops pay ~1 ns per *would-be* event when tracing
//! is disabled (`grist gate smoke` measures this in-run and fails at 1% of
//! the smoke window). When enabled, each event
//! costs one clock read, one sequence-counter bump, and one push into the
//! recording thread's own ring under an uncontended mutex; a thread-local
//! cache keeps the lane lookup off the hot path.
//!
//! # Clock, epoch, and bounds
//!
//! Timestamps are nanoseconds on the host monotonic clock, relative to the
//! origin captured by the *enable* call, paired with the logical model step
//! ([`Tracer::set_step`]) so wall time can always be mapped back to
//! simulation progress. Each `enable` bumps an **epoch**: thread-local lane
//! caches are invalidated, previous events are discarded, and late events
//! from guards created under an older epoch are dropped rather than
//! misfiled. Rings hold at most `capacity` events per thread
//! ([`Tracer::enable_with_capacity`], default [`DEFAULT_RING_CAPACITY`]);
//! on overflow the *oldest whole events* are evicted (counted in
//! [`TraceSnapshot::dropped`]) so the exported timeline stays balanced —
//! begin/end pairs are derived from complete events at export time and can
//! never be orphaned by eviction.
//!
//! # Rank attribution
//!
//! The simulated-MPI rank threads in `grist-runtime` call
//! [`set_thread_rank`] once at startup; every event a thread records lands
//! in the `(rank, thread)` lane. Job-server workers inherit the
//! dispatching driver's rank per chunk, so CPE lanes file under the right
//! process in a multi-rank trace.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-thread ring capacity (events). At the smoke-model event rate
/// this holds several thousand model steps per lane.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// What an event describes. Duration kinds export as Chrome `B`/`E` pairs;
/// point kinds ([`EventKind::is_instant`]) export as `i` instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A [`Metrics::span`](crate::metrics::Metrics::span) region; the event
    /// name is the full span path (`step/dycore`).
    Span,
    /// One substrate kernel dispatch; the name is the span-qualified kernel
    /// path (`step/dycore/hevi_mass_flux`).
    Kernel,
    /// One CPE-chunk execution on a job-server worker thread.
    Chunk,
    /// One gathered halo-exchange round on a rank thread.
    HaloExchange,
    /// The blocking receive of one halo message within a round.
    HaloWait,
    /// A fault-plan injection fired (`fault.injected`).
    Fault,
    /// A faulted dispatch was re-issued (`fault.retries`).
    Retry,
    /// A dispatch exhausted its retry budget and ran serially
    /// (`fault.degradations`).
    Degradation,
    /// A resilience checkpoint was captured (`checkpoint.captures`).
    Checkpoint,
    /// A checkpoint was restored after corruption (`recovery.restores`).
    Restore,
    /// A request-scoped flow opened: a trace ID was minted for a submitted
    /// query (`items` carries the flow ID; exports as Chrome `s`).
    FlowBegin,
    /// The flow passed through a stage on another lane — the serving batch,
    /// then each substrate dispatch under it (exports as Chrome `t`).
    FlowStep,
    /// The flow's answer was delivered (exports as Chrome `f`).
    FlowEnd,
}

impl EventKind {
    /// Chrome `cat` label (also the grouping key in reports).
    pub fn category(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Kernel => "kernel",
            EventKind::Chunk => "chunk",
            EventKind::HaloExchange => "halo",
            EventKind::HaloWait => "halo_wait",
            EventKind::Fault => "fault",
            EventKind::Retry => "retry",
            EventKind::Degradation => "degrade",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Restore => "restore",
            EventKind::FlowBegin | EventKind::FlowStep | EventKind::FlowEnd => "flow",
        }
    }

    /// Point-in-time kinds (exported as Chrome `i` events).
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            EventKind::Fault
                | EventKind::Retry
                | EventKind::Degradation
                | EventKind::Checkpoint
                | EventKind::Restore
        )
    }

    /// Flow-arrow kinds (exported as Chrome `s`/`t`/`f` events carrying a
    /// numeric flow `id` in [`TraceEvent::items`]).
    fn is_flow(self) -> bool {
        matches!(
            self,
            EventKind::FlowBegin | EventKind::FlowStep | EventKind::FlowEnd
        )
    }

    /// The Chrome `ph` letter for a flow kind (`None` otherwise).
    fn flow_ph(self) -> Option<&'static str> {
        match self {
            EventKind::FlowBegin => Some("s"),
            EventKind::FlowStep => Some("t"),
            EventKind::FlowEnd => Some("f"),
            _ => None,
        }
    }
}

/// One recorded event. Complete (begin + duration) rather than split
/// begin/end records, so ring eviction can never orphan half a pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub kind: EventKind,
    pub name: String,
    /// Start, nanoseconds since the tracer's enable origin.
    pub t0_ns: u64,
    /// Duration; 0 for instant kinds.
    pub dur_ns: u64,
    /// Logical model step at record time (see [`Tracer::set_step`]).
    pub step: u64,
    /// Kind-specific count (loop items, messages, …).
    pub items: u64,
    /// Kind-specific payload bytes.
    pub bytes: u64,
    /// Global record order within the epoch (ties broken deterministically).
    pub seq: u64,
}

impl TraceEvent {
    pub fn end_ns(&self) -> u64 {
        self.t0_ns + self.dur_ns
    }
}

#[derive(Debug)]
struct Ring {
    events: Vec<TraceEvent>,
    /// Index of the oldest retained event once the ring has wrapped.
    start: usize,
    cap: usize,
    dropped: u64,
    label: String,
}

impl Ring {
    fn new(cap: usize, label: String) -> Self {
        Ring {
            events: Vec::new(),
            start: 0,
            cap: cap.max(1),
            dropped: 0,
            label,
        }
    }

    fn push(&mut self, e: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(e);
        } else {
            self.events[self.start] = e;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events oldest-first (un-rotating the ring).
    fn ordered(&self) -> Vec<TraceEvent> {
        let n = self.events.len();
        (0..n)
            .map(|i| self.events[(self.start + i) % n].clone())
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Thread identity
// ---------------------------------------------------------------------------

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

struct CachedLane {
    tracer_id: u64,
    epoch: u64,
    rank: u32,
    origin: Instant,
    ring: Arc<Mutex<Ring>>,
}

thread_local! {
    static LANE: Cell<u32> = const { Cell::new(u32::MAX) };
    static RANK: Cell<u32> = const { Cell::new(0) };
    static CACHED: RefCell<Option<CachedLane>> = const { RefCell::new(None) };
    static CHUNK_T0: Cell<Option<Instant>> = const { Cell::new(None) };
    static FLOW_IDS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Stable per-thread lane id (process-global, assigned on first use).
pub fn thread_lane() -> u32 {
    LANE.with(|l| {
        let v = l.get();
        if v != u32::MAX {
            v
        } else {
            let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(id);
            id
        }
    })
}

/// Declare the simulated-MPI rank of the calling thread; subsequent events
/// it records file under this rank's process lane. Defaults to rank 0.
pub fn set_thread_rank(rank: u32) {
    RANK.with(|r| r.set(rank));
}

/// The calling thread's declared rank (see [`set_thread_rank`]).
pub fn thread_rank() -> u32 {
    RANK.with(|r| r.get())
}

/// Mark the start of a CPE chunk on the calling worker thread (paired with
/// [`Tracer::record_chunk_end`]). Used by the substrate's traced dispatch
/// wrapper; a plain thread-local store, no atomics.
pub fn chunk_begin() {
    CHUNK_T0.with(|c| c.set(Some(Instant::now())));
}

/// RAII guard restoring the calling thread's flow scope on drop (see
/// [`flow_scope`]).
#[must_use = "the scope ends when the guard drops"]
pub struct FlowScope {
    prev_len: usize,
}

/// Install request-scoped flow IDs on the calling thread for the lifetime
/// of the returned guard. While the guard lives, every
/// [`Tracer::record_scoped_flows`] call on this thread emits one
/// [`EventKind::FlowStep`] per active ID — this is how a batch of request
/// IDs rides from the serving worker into the substrate dispatch without
/// widening any kernel signature. Scopes nest (inner guards extend the set);
/// the reserved "untraced" ID 0 is filtered out. Plain thread-local pushes,
/// no atomics.
pub fn flow_scope(ids: &[u64]) -> FlowScope {
    FLOW_IDS.with(|f| {
        let mut v = f.borrow_mut();
        let prev_len = v.len();
        v.extend(ids.iter().copied().filter(|&id| id != 0));
        FlowScope { prev_len }
    })
}

impl Drop for FlowScope {
    fn drop(&mut self) {
        FLOW_IDS.with(|f| f.borrow_mut().truncate(self.prev_len));
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct TracerShared {
    origin: Instant,
    capacity: usize,
    lanes: BTreeMap<(u32, u32), Arc<Mutex<Ring>>>,
}

/// The event recorder owned by a [`Metrics`](crate::metrics::Metrics)
/// registry (one per substrate-clone family). Disabled by default; see the
/// [module docs](self) for the cost model and epoch semantics.
#[derive(Debug)]
pub struct Tracer {
    id: u64,
    enabled: AtomicBool,
    epoch: AtomicU64,
    step: AtomicU64,
    seq: AtomicU64,
    /// The next request-scoped flow ID [`Self::mint_flow_id`] hands out.
    next_flow: AtomicU64,
    shared: Mutex<TracerShared>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            step: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            next_flow: AtomicU64::new(1),
            shared: Mutex::new(TracerShared {
                origin: Instant::now(),
                capacity: DEFAULT_RING_CAPACITY,
                lanes: BTreeMap::new(),
            }),
        }
    }
}

impl Tracer {
    /// Process-unique identity of this tracer — and so of the registry that
    /// owns it: what the per-thread caches are keyed on.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The disabled-path check every recording entry point starts with.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start a fresh recording epoch with the default ring capacity.
    pub fn enable(&self) {
        self.enable_with_capacity(DEFAULT_RING_CAPACITY);
    }

    /// Start a fresh recording epoch: clears previous lanes, re-zeroes the
    /// clock origin and sequence counter, bumps the epoch (invalidating
    /// thread-local lane caches), and turns recording on. Each recording
    /// thread keeps at most `capacity` events (oldest evicted first).
    pub fn enable_with_capacity(&self, capacity: usize) {
        {
            let mut sh = self.shared.lock().expect("tracer poisoned");
            sh.lanes.clear();
            sh.capacity = capacity.max(1);
            sh.origin = Instant::now();
        }
        self.seq.store(0, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Stop recording (events already in the rings are kept for
    /// [`Self::snapshot`]; a later [`Self::enable`] discards them).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
    }

    /// The current recording epoch (bumped by every enable).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Publish the logical model step stamped onto subsequent events. In a
    /// multi-driver (multi-rank, shared-registry) run the stamp is advisory:
    /// concurrent drivers race on one cell, which only blurs the step label,
    /// never timestamps.
    pub fn set_step(&self, step: u64) {
        self.step.store(step, Ordering::Relaxed);
    }

    /// Capture a begin timestamp if tracing is on (the cheap guard pattern:
    /// `let t0 = tracer.begin(); … if let Some(t0) = t0 { tracer.record_complete(...) }`).
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record a duration event spanning `t0..now` on the calling thread's
    /// lane. No-op when disabled.
    pub fn record_complete(
        &self,
        kind: EventKind,
        name: &str,
        t0: Instant,
        items: u64,
        bytes: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let dur = t0.elapsed().as_nanos() as u64;
        self.push(kind, name, Some(t0), dur, items, bytes);
    }

    /// Record a point event at the current time on the calling thread's
    /// lane. No-op when disabled.
    pub fn record_instant(&self, kind: EventKind, name: &str, items: u64) {
        if !self.is_enabled() {
            return;
        }
        self.push(kind, name, None, 0, items, 0);
    }

    /// Close the chunk opened by [`chunk_begin`] on this worker thread as a
    /// [`EventKind::Chunk`] event attributed to `rank`.
    pub fn record_chunk_end(&self, name: &str, rank: u32, items: u64) {
        if !self.is_enabled() {
            return;
        }
        if let Some(t0) = CHUNK_T0.with(|c| c.take()) {
            set_thread_rank(rank);
            let dur = t0.elapsed().as_nanos() as u64;
            self.push(EventKind::Chunk, name, Some(t0), dur, items, 0);
        }
    }

    /// Mint a request-scoped flow ID (monotone from 1 over the tracer's
    /// lifetime), or the reserved "untraced" ID 0 while tracing is off — so
    /// a request that arrives untraced records no flow event end to end, at
    /// the cost of one relaxed load.
    #[inline]
    pub fn mint_flow_id(&self) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        self.next_flow.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one flow-arrow point event (`kind` must be a flow kind; the
    /// flow `id` lands in [`TraceEvent::items`]). No-op when disabled or for
    /// the reserved "untraced" ID 0.
    pub fn record_flow(&self, kind: EventKind, name: &str, id: u64) {
        debug_assert!(kind.is_flow(), "record_flow wants a flow kind");
        if id == 0 || !self.is_enabled() {
            return;
        }
        self.push(kind, name, None, 0, id, 0);
    }

    /// Emit one [`EventKind::FlowStep`] per flow ID active on the calling
    /// thread (see [`flow_scope`]) — called by the substrate's traced
    /// dispatch right after the kernel event, so the step files on the same
    /// lane at the dispatch position. No-op when disabled or out of scope.
    pub fn record_scoped_flows(&self, name: &str) {
        if !self.is_enabled() {
            return;
        }
        let ids = FLOW_IDS.with(|f| f.borrow().clone());
        for id in ids {
            self.push(EventKind::FlowStep, name, None, 0, id, 0);
        }
    }

    /// Events evicted from full rings so far, summed across lanes — the
    /// live counterpart of [`TraceSnapshot::dropped`], surfaced as the
    /// `trace.dropped_events` counter in the metrics JSON.
    pub fn dropped_total(&self) -> u64 {
        let sh = self.shared.lock().expect("tracer poisoned");
        sh.lanes
            .values()
            .map(|ring| ring.lock().expect("ring poisoned").dropped)
            .sum()
    }

    fn push(
        &self,
        kind: EventKind,
        name: &str,
        t0: Option<Instant>,
        dur_ns: u64,
        items: u64,
        bytes: u64,
    ) {
        let epoch = self.epoch.load(Ordering::Acquire);
        let lane = thread_lane();
        let rank = thread_rank();
        CACHED.with(|slot| {
            let mut slot = slot.borrow_mut();
            let hit = matches!(
                &*slot,
                Some(c) if c.tracer_id == self.id && c.epoch == epoch && c.rank == rank
            );
            if !hit {
                let mut sh = self.shared.lock().expect("tracer poisoned");
                let cap = sh.capacity;
                let origin = sh.origin;
                let ring = sh
                    .lanes
                    .entry((rank, lane))
                    .or_insert_with(|| {
                        let label = std::thread::current()
                            .name()
                            .map(str::to_string)
                            .unwrap_or_else(|| format!("thread-{lane}"));
                        Arc::new(Mutex::new(Ring::new(cap, label)))
                    })
                    .clone();
                *slot = Some(CachedLane {
                    tracer_id: self.id,
                    epoch,
                    rank,
                    origin,
                    ring,
                });
            }
            let cached = slot.as_ref().expect("lane cached above");
            let t0_ns = match t0 {
                Some(t) => t.saturating_duration_since(cached.origin).as_nanos() as u64,
                None => cached.origin.elapsed().as_nanos() as u64,
            };
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            cached.ring.lock().expect("ring poisoned").push(TraceEvent {
                kind,
                name: name.to_string(),
                t0_ns,
                dur_ns,
                step: self.step.load(Ordering::Relaxed),
                items,
                bytes,
                seq,
            });
        });
    }

    /// Freeze every lane into a [`TraceSnapshot`] (recording may continue;
    /// the snapshot sees events recorded so far).
    pub fn snapshot(&self) -> TraceSnapshot {
        let sh = self.shared.lock().expect("tracer poisoned");
        let mut lanes = Vec::new();
        let mut dropped = 0u64;
        for (&(rank, thread), ring) in &sh.lanes {
            let r = ring.lock().expect("ring poisoned");
            dropped += r.dropped;
            lanes.push(LaneTrace {
                rank,
                thread,
                label: r.label.clone(),
                events: r.ordered(),
            });
        }
        TraceSnapshot {
            lanes,
            dropped,
            step: self.step.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot + Chrome export
// ---------------------------------------------------------------------------

/// One thread's timeline within a snapshot.
#[derive(Debug, Clone)]
pub struct LaneTrace {
    /// Simulated-MPI rank (Chrome `pid`).
    pub rank: u32,
    /// Process-global thread lane id (Chrome `tid`).
    pub thread: u32,
    /// Thread name at first record (`main`, `cpe-3`, …).
    pub label: String,
    /// Events oldest-first in record order.
    pub events: Vec<TraceEvent>,
}

/// A frozen copy of every lane, exportable to Chrome `trace_event` JSON and
/// consumable by [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Lanes sorted by `(rank, thread)`.
    pub lanes: Vec<LaneTrace>,
    /// Events evicted from full rings across all lanes.
    pub dropped: u64,
    /// Logical step at snapshot time.
    pub step: u64,
}

impl TraceSnapshot {
    pub fn total_events(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// Count events of one kind across all lanes.
    pub fn count_kind(&self, kind: EventKind) -> usize {
        self.lanes
            .iter()
            .flat_map(|l| &l.events)
            .filter(|e| e.kind == kind)
            .count()
    }

    /// Ranks present in the snapshot.
    pub fn ranks(&self) -> BTreeSet<u32> {
        self.lanes.iter().map(|l| l.rank).collect()
    }

    /// Export as a Chrome/Perfetto `trace_event` document: `pid` = rank,
    /// `tid` = thread lane, with `process_name`/`thread_name` metadata,
    /// duration kinds as balanced `B`/`E` pairs and instant kinds as `i`
    /// events, timestamps in microseconds, monotone per lane.
    pub fn to_chrome_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        let mut ranks_seen: BTreeSet<u32> = BTreeSet::new();
        for lane in &self.lanes {
            if ranks_seen.insert(lane.rank) {
                events.push(meta_event(
                    lane.rank,
                    lane.thread,
                    "process_name",
                    &format!("rank {}", lane.rank),
                ));
            }
            events.push(meta_event(
                lane.rank,
                lane.thread,
                "thread_name",
                &lane.label,
            ));
        }
        for lane in &self.lanes {
            lane_chrome_events(lane, &mut events);
        }
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }

    /// Pretty-printed [`Self::to_chrome_json`] document.
    pub fn to_chrome_string(&self) -> String {
        self.to_chrome_json().pretty()
    }
}

fn meta_event(pid: u32, tid: u32, kind: &str, name: &str) -> Json {
    Json::Obj(vec![
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::Num(pid as f64)),
        ("tid".into(), Json::Num(tid as f64)),
        ("name".into(), Json::Str(kind.into())),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(name.into()))]),
        ),
    ])
}

fn ts_us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1e3)
}

fn event_args(e: &TraceEvent) -> Json {
    Json::Obj(vec![
        ("step".into(), Json::Num(e.step as f64)),
        ("items".into(), Json::Num(e.items as f64)),
        ("bytes".into(), Json::Num(e.bytes as f64)),
    ])
}

/// Emit one lane's events as monotone, balanced Chrome records. Complete
/// events are sorted by start (ties: longer first, then record order) and
/// unwound through a stack so `B`/`E` pairs nest; end timestamps are clamped
/// monotone so clock-granularity ties can never reorder a lane.
fn lane_chrome_events(lane: &LaneTrace, out: &mut Vec<Json>) {
    let mut evs: Vec<&TraceEvent> = lane.events.iter().collect();
    evs.sort_by(|a, b| {
        a.t0_ns
            .cmp(&b.t0_ns)
            .then(b.end_ns().cmp(&a.end_ns()))
            .then(a.seq.cmp(&b.seq))
    });
    let pid = Json::Num(lane.rank as f64);
    let tid = Json::Num(lane.thread as f64);
    let mut stack: Vec<&TraceEvent> = Vec::new();
    let mut last_ts = 0u64;
    let close = |e: &TraceEvent, last_ts: &mut u64, out: &mut Vec<Json>| {
        let ts = e.end_ns().max(*last_ts);
        *last_ts = ts;
        out.push(Json::Obj(vec![
            ("ph".into(), Json::Str("E".into())),
            ("pid".into(), pid.clone()),
            ("tid".into(), tid.clone()),
            ("ts".into(), ts_us(ts)),
            ("name".into(), Json::Str(e.name.clone())),
        ]));
    };
    for e in evs {
        while let Some(&top) = stack.last() {
            if top.end_ns() <= e.t0_ns {
                stack.pop();
                close(top, &mut last_ts, out);
            } else {
                break;
            }
        }
        let ts = e.t0_ns.max(last_ts);
        last_ts = ts;
        if let Some(ph) = e.kind.flow_ph() {
            // Flow arrows: point records carrying the request's flow `id`,
            // named uniformly so Perfetto joins s → t… → f across lanes.
            let mut fields = vec![
                ("ph".into(), Json::Str(ph.into())),
                ("pid".into(), pid.clone()),
                ("tid".into(), tid.clone()),
                ("ts".into(), ts_us(ts)),
                ("name".into(), Json::Str(e.name.clone())),
                ("cat".into(), Json::Str(e.kind.category().into())),
                ("id".into(), Json::Num(e.items as f64)),
            ];
            if e.kind == EventKind::FlowEnd {
                // Bind the arrow head to the enclosing slice.
                fields.push(("bp".into(), Json::Str("e".into())));
            }
            out.push(Json::Obj(fields));
            continue;
        }
        let mut fields = vec![
            (
                "ph".into(),
                Json::Str(if e.kind.is_instant() { "i" } else { "B" }.into()),
            ),
            ("pid".into(), pid.clone()),
            ("tid".into(), tid.clone()),
            ("ts".into(), ts_us(ts)),
            ("name".into(), Json::Str(e.name.clone())),
            ("cat".into(), Json::Str(e.kind.category().into())),
        ];
        if e.kind.is_instant() {
            fields.push(("s".into(), Json::Str("t".into())));
            fields.push(("args".into(), event_args(e)));
            out.push(Json::Obj(fields));
        } else {
            fields.push(("args".into(), event_args(e)));
            out.push(Json::Obj(fields));
            stack.push(e);
        }
    }
    while let Some(top) = stack.pop() {
        close(top, &mut last_ts, out);
    }
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

/// What [`validate_chrome`] verified.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeStats {
    pub events: usize,
    pub begins: usize,
    pub ends: usize,
    pub instants: usize,
    /// Flow-arrow records (`s`/`t`/`f`).
    pub flows: usize,
    pub metadata: usize,
    /// Distinct `(pid, tid)` lanes.
    pub lanes: usize,
    /// Distinct `pid` (rank) processes.
    pub ranks: usize,
}

/// Validate a Chrome `trace_event` document: every event carries
/// `ph`/`pid`/`tid`/`ts`, timestamps are finite, non-negative, and
/// non-decreasing per lane, every lane's `B`/`E` events are balanced with
/// matching names, and every flow record (`s`/`t`/`f`) carries a numeric
/// `id`. Returns counting stats on success.
pub fn validate_chrome(doc: &Json) -> Result<ChromeStats, String> {
    let evs = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("document has no traceEvents array")?;
    let mut stats = ChromeStats::default();
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut ranks: BTreeSet<u64> = BTreeSet::new();
    for (i, e) in evs.iter().enumerate() {
        stats.events += 1;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            stats.metadata += 1;
            continue;
        }
        let pid = e
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad timestamp {ts}"));
        }
        let key = (pid, tid);
        ranks.insert(pid);
        if let Some(&prev) = last_ts.get(&key) {
            if ts < prev {
                return Err(format!(
                    "event {i}: lane ({pid},{tid}) timestamp regressed {prev} -> {ts}"
                ));
            }
        }
        last_ts.insert(key, ts);
        match ph {
            "B" => {
                let name = e
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: B without a name"))?;
                stacks.entry(key).or_default().push(name.to_string());
                stats.begins += 1;
            }
            "E" => {
                let open = stacks
                    .get_mut(&key)
                    .and_then(Vec::pop)
                    .ok_or_else(|| format!("event {i}: E on lane ({pid},{tid}) with no open B"))?;
                if let Some(name) = e.get("name").and_then(Json::as_str) {
                    if name != open {
                        return Err(format!(
                            "event {i}: E named {name:?} closes B named {open:?}"
                        ));
                    }
                }
                stats.ends += 1;
            }
            "i" => stats.instants += 1,
            "s" | "t" | "f" => {
                e.get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: flow {ph:?} without a numeric id"))?;
                stats.flows += 1;
            }
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    for ((pid, tid), st) in &stacks {
        if !st.is_empty() {
            return Err(format!(
                "lane ({pid},{tid}): {} B event(s) never closed (first open: {:?})",
                st.len(),
                st[0]
            ));
        }
    }
    stats.lanes = last_ts.len();
    stats.ranks = ranks.len();
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Attribution analysis
// ---------------------------------------------------------------------------

/// Per-kernel attribution row (one per distinct span-qualified kernel path).
#[derive(Debug, Clone)]
pub struct KernelAttribution {
    /// Span-qualified kernel path (`step/ml/ml_physics_blocks`).
    pub name: String,
    pub calls: u64,
    pub total_ns: u64,
    pub items: u64,
    /// Share of summed kernel time across every lane (the Fig. 9 column).
    pub share_busy: f64,
    /// Share of the critical rank's busy time spent in this kernel — the
    /// critical rank is the busiest one, whose timeline bounds the step, so
    /// this is each kernel's stake in the end-to-end critical path.
    pub cp_share: f64,
    /// Exact FLOPs, when the leaf name is a key of the FLOP map handed to
    /// [`analyze`].
    pub flops: Option<u64>,
    /// Achieved throughput \[GFLOP/s\] over the kernel's own wall time.
    pub gflops: Option<f64>,
}

/// Halo-exchange wait/transfer split summed over rank lanes.
#[derive(Debug, Clone, Copy, Default)]
pub struct HaloAttribution {
    /// Exchange rounds traced.
    pub exchanges: u64,
    /// Individual message waits traced.
    pub waits: u64,
    /// Total round duration.
    pub total_ns: u64,
    /// Time blocked in receives.
    pub wait_ns: u64,
    /// Round time outside receives (pack/send/unpack).
    pub transfer_ns: u64,
}

/// One rank's busy time (kernel + halo durations; CPE chunk events are the
/// same work seen from the worker side and are excluded to avoid double
/// counting).
#[derive(Debug, Clone, Copy)]
pub struct RankLoad {
    pub rank: u32,
    pub busy_ns: u64,
    pub events: u64,
}

/// The attribution report computed by [`analyze`].
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Trace extent: last event end minus first event start.
    pub wall_ns: u64,
    /// Kernel rows, hottest first.
    pub kernels: Vec<KernelAttribution>,
    pub halo: HaloAttribution,
    /// Per-rank busy time, rank order.
    pub ranks: Vec<RankLoad>,
    /// The busiest (critical-path) rank.
    pub critical_rank: u32,
    /// Max over mean rank busy time (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Events evicted from full rings (attribution below is partial if > 0).
    pub dropped: u64,
}

/// Compute the attribution report from a snapshot: per-kernel totals and
/// critical-path shares, the halo wait/transfer split, rank imbalance, and
/// achieved GFLOP/s for every kernel `flops_by_kernel` covers.
///
/// `flops_by_kernel` holds exact FLOP totals keyed by *leaf* kernel name
/// (the last path segment) — e.g. the `MlSuite` FLOP counters, keyed by the
/// kernel that spent them. A leaf claimed by more than one distinct kernel
/// path is left unattributed (the total cannot be split).
pub fn analyze(snap: &TraceSnapshot, flops_by_kernel: &BTreeMap<String, u64>) -> TraceReport {
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    struct KernelAcc {
        calls: u64,
        total_ns: u64,
        items: u64,
        cp_ns: u64,
    }
    let mut kernels: BTreeMap<String, KernelAcc> = BTreeMap::new();
    let mut halo = HaloAttribution::default();
    let mut rank_busy: BTreeMap<u32, RankLoad> = BTreeMap::new();
    for lane in &snap.lanes {
        for e in &lane.events {
            t_min = t_min.min(e.t0_ns);
            t_max = t_max.max(e.end_ns());
            match e.kind {
                EventKind::Kernel => {
                    let acc = kernels.entry(e.name.clone()).or_insert(KernelAcc {
                        calls: 0,
                        total_ns: 0,
                        items: 0,
                        cp_ns: 0,
                    });
                    acc.calls += 1;
                    acc.total_ns += e.dur_ns;
                    acc.items += e.items;
                }
                EventKind::HaloExchange => {
                    halo.exchanges += 1;
                    halo.total_ns += e.dur_ns;
                }
                EventKind::HaloWait => {
                    halo.waits += 1;
                    halo.wait_ns += e.dur_ns;
                }
                _ => {}
            }
            if matches!(e.kind, EventKind::Kernel | EventKind::HaloExchange) {
                let load = rank_busy.entry(lane.rank).or_insert(RankLoad {
                    rank: lane.rank,
                    busy_ns: 0,
                    events: 0,
                });
                load.busy_ns += e.dur_ns;
                load.events += 1;
            }
        }
    }
    halo.transfer_ns = halo.total_ns.saturating_sub(halo.wait_ns);
    let wall_ns = if t_min == u64::MAX { 0 } else { t_max - t_min };

    let ranks: Vec<RankLoad> = rank_busy.values().copied().collect();
    let critical_rank = ranks
        .iter()
        .max_by_key(|r| r.busy_ns)
        .map(|r| r.rank)
        .unwrap_or(0);
    let imbalance = if ranks.is_empty() {
        1.0
    } else {
        let max = ranks.iter().map(|r| r.busy_ns).max().unwrap_or(0) as f64;
        let mean = ranks.iter().map(|r| r.busy_ns as f64).sum::<f64>() / ranks.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    };

    // Second pass: kernel time on the critical rank only.
    for lane in snap.lanes.iter().filter(|l| l.rank == critical_rank) {
        for e in lane.events.iter().filter(|e| e.kind == EventKind::Kernel) {
            if let Some(acc) = kernels.get_mut(&e.name) {
                acc.cp_ns += e.dur_ns;
            }
        }
    }
    let busy_total: u64 = kernels.values().map(|a| a.total_ns).sum();
    let cp_busy: u64 = kernels.values().map(|a| a.cp_ns).sum();

    // FLOP attribution by leaf name — only when the leaf maps to exactly one
    // kernel path, since a shared counter cannot be split between paths.
    let mut leaf_count: BTreeMap<&str, u32> = BTreeMap::new();
    for name in kernels.keys() {
        *leaf_count.entry(leaf(name)).or_insert(0) += 1;
    }
    let mut rows: Vec<KernelAttribution> = kernels
        .iter()
        .map(|(name, acc)| {
            let flops = flops_by_kernel
                .get(leaf(name))
                .copied()
                .filter(|_| leaf_count.get(leaf(name)) == Some(&1));
            let gflops = flops.map(|f| {
                if acc.total_ns > 0 {
                    f as f64 / acc.total_ns as f64
                } else {
                    0.0
                }
            });
            KernelAttribution {
                name: name.clone(),
                calls: acc.calls,
                total_ns: acc.total_ns,
                items: acc.items,
                share_busy: if busy_total > 0 {
                    acc.total_ns as f64 / busy_total as f64
                } else {
                    0.0
                },
                cp_share: if cp_busy > 0 {
                    acc.cp_ns as f64 / cp_busy as f64
                } else {
                    0.0
                },
                flops,
                gflops,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));

    TraceReport {
        wall_ns,
        kernels: rows,
        halo,
        ranks,
        critical_rank,
        imbalance,
        dropped: snap.dropped,
    }
}

fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn opt_num(v: Option<f64>) -> Json {
    match v {
        Some(x) if x.is_finite() => Json::Num(x),
        _ => Json::Null,
    }
}

impl TraceReport {
    /// Structured form (schema `grist-trace-report-v2`) for CI diffing.
    pub fn to_json(&self) -> Json {
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(k.name.clone())),
                    ("calls".into(), Json::Num(k.calls as f64)),
                    ("total_ns".into(), Json::Num(k.total_ns as f64)),
                    ("items".into(), Json::Num(k.items as f64)),
                    ("share_busy".into(), Json::Num(k.share_busy)),
                    ("cp_share".into(), Json::Num(k.cp_share)),
                    (
                        "flops".into(),
                        k.flops.map_or(Json::Null, |f| Json::Num(f as f64)),
                    ),
                    ("gflops".into(), opt_num(k.gflops)),
                ])
            })
            .collect();
        let ranks = self
            .ranks
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("rank".into(), Json::Num(r.rank as f64)),
                    ("busy_ns".into(), Json::Num(r.busy_ns as f64)),
                    ("events".into(), Json::Num(r.events as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("grist-trace-report-v2".into())),
            ("wall_ns".into(), Json::Num(self.wall_ns as f64)),
            ("kernels".into(), Json::Arr(kernels)),
            (
                "halo".into(),
                Json::Obj(vec![
                    ("exchanges".into(), Json::Num(self.halo.exchanges as f64)),
                    ("waits".into(), Json::Num(self.halo.waits as f64)),
                    ("total_ns".into(), Json::Num(self.halo.total_ns as f64)),
                    ("wait_ns".into(), Json::Num(self.halo.wait_ns as f64)),
                    (
                        "transfer_ns".into(),
                        Json::Num(self.halo.transfer_ns as f64),
                    ),
                ]),
            ),
            ("ranks".into(), Json::Arr(ranks)),
            ("critical_rank".into(), Json::Num(self.critical_rank as f64)),
            ("imbalance".into(), Json::Num(self.imbalance)),
            ("dropped".into(), Json::Num(self.dropped as f64)),
        ])
    }

    /// Fig. 9-style aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace report  wall {:.3} ms  ranks {}  imbalance {:.3}  critical rank {}  dropped {}\n",
            self.wall_ns as f64 / 1e6,
            self.ranks.len(),
            self.imbalance,
            self.critical_rank,
            self.dropped
        ));
        out.push_str(&format!(
            "halo          {} rounds  {} waits  wait {:.3} ms  transfer {:.3} ms\n",
            self.halo.exchanges,
            self.halo.waits,
            self.halo.wait_ns as f64 / 1e6,
            self.halo.transfer_ns as f64 / 1e6,
        ));
        out.push_str(&format!(
            "{:<34} {:>7} {:>11} {:>7} {:>7} {:>9}\n",
            "kernel", "calls", "total ms", "busy%", "cp%", "GFLOP/s"
        ));
        for k in &self.kernels {
            let gf = k.gflops.map_or("-".to_string(), |v| format!("{v:.3}"));
            out.push_str(&format!(
                "{:<34} {:>7} {:>11.3} {:>6.1}% {:>6.1}% {:>9}\n",
                k.name,
                k.calls,
                k.total_ns as f64 / 1e6,
                k.share_busy * 100.0,
                k.cp_share * 100.0,
                gf,
            ));
        }
        for r in &self.ranks {
            out.push_str(&format!(
                "rank {:<3} busy {:>11.3} ms  ({} events)\n",
                r.rank,
                r.busy_ns as f64 / 1e6,
                r.events
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ev(kind: EventKind, name: &str, t0: u64, dur: u64, items: u64, bytes: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name: name.into(),
            t0_ns: t0,
            dur_ns: dur,
            step: 0,
            items,
            bytes,
            seq: t0,
        }
    }

    fn lane(rank: u32, thread: u32, events: Vec<TraceEvent>) -> LaneTrace {
        LaneTrace {
            rank,
            thread,
            label: format!("t{thread}"),
            events,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        assert!(!t.is_enabled());
        assert!(t.begin().is_none());
        t.record_instant(EventKind::Fault, "x", 1);
        t.record_complete(EventKind::Kernel, "k", Instant::now(), 1, 0);
        assert_eq!(t.snapshot().total_events(), 0);
    }

    #[test]
    fn enable_records_and_reenable_starts_a_fresh_epoch() {
        let t = Tracer::default();
        t.enable();
        let e0 = t.epoch();
        let t0 = t.begin().expect("enabled");
        t.record_complete(EventKind::Kernel, "k", t0, 10, 0);
        t.record_instant(EventKind::Checkpoint, "checkpoint.captures", 1);
        let snap = t.snapshot();
        assert_eq!(snap.total_events(), 2);
        assert_eq!(snap.count_kind(EventKind::Kernel), 1);
        assert_eq!(snap.count_kind(EventKind::Checkpoint), 1);
        // Re-enable discards history and bumps the epoch.
        t.enable();
        assert!(t.epoch() > e0);
        assert_eq!(t.snapshot().total_events(), 0);
        t.disable();
        t.record_instant(EventKind::Fault, "x", 1);
        assert_eq!(t.snapshot().total_events(), 0);
    }

    #[test]
    fn ring_keeps_the_newest_events_and_counts_drops() {
        let t = Tracer::default();
        t.enable_with_capacity(4);
        for i in 0..10u64 {
            t.record_instant(EventKind::Fault, &format!("d{i}"), i);
        }
        let snap = t.snapshot();
        assert_eq!(snap.total_events(), 4);
        assert_eq!(snap.dropped, 6);
        let names: Vec<&str> = snap.lanes[0]
            .events
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names, ["d6", "d7", "d8", "d9"], "oldest evicted first");
        // Sequence numbers stay ordered after un-rotation.
        let seqs: Vec<u64> = snap.lanes[0].events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn flow_ids_are_minted_only_while_tracing() {
        let t = Tracer::default();
        assert_eq!(t.mint_flow_id(), 0, "off: the untraced id");
        t.enable();
        assert_eq!((t.mint_flow_id(), t.mint_flow_id()), (1, 2));
        t.disable();
        assert_eq!(t.mint_flow_id(), 0);
        t.enable();
        assert_eq!(t.mint_flow_id(), 3, "unique over the tracer's lifetime");
    }

    #[test]
    fn flow_events_export_as_joined_arrows_and_validate() {
        let t = Tracer::default();
        t.enable();
        // One request's life: begin on the server thread, step on the
        // worker (batch + dispatch via flow scope), end back on the server.
        t.record_flow(EventKind::FlowBegin, "request", 42);
        t.record_flow(EventKind::FlowStep, "serve", 42);
        {
            let _scope = flow_scope(&[42, 0]); // 0 is filtered out
            t.record_scoped_flows("serve/step_columns");
        }
        t.record_scoped_flows("after-scope"); // out of scope: no event
        t.record_flow(EventKind::FlowEnd, "request", 42);
        t.record_flow(EventKind::FlowBegin, "request", 0); // untraced id: dropped

        let snap = t.snapshot();
        assert_eq!(snap.count_kind(EventKind::FlowBegin), 1);
        assert_eq!(snap.count_kind(EventKind::FlowStep), 2);
        assert_eq!(snap.count_kind(EventKind::FlowEnd), 1);
        let ids: Vec<u64> = snap.lanes[0]
            .events
            .iter()
            .filter(|e| e.kind.is_flow())
            .map(|e| e.items)
            .collect();
        assert!(ids.iter().all(|&id| id == 42));

        let doc = snap.to_chrome_json();
        let stats = validate_chrome(&doc).expect("flow document validates");
        assert_eq!(stats.flows, 4);
        // Every flow record carries ph s/t/f, cat "flow", and the id.
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let flows: Vec<&Json> = evs
            .iter()
            .filter(|e| {
                matches!(
                    e.get("ph").and_then(Json::as_str),
                    Some("s") | Some("t") | Some("f")
                )
            })
            .collect();
        assert_eq!(flows.len(), 4);
        for f in &flows {
            assert_eq!(f.get("cat").and_then(Json::as_str), Some("flow"));
            assert_eq!(f.get("id").and_then(Json::as_u64), Some(42));
        }
        assert_eq!(
            flows
                .iter()
                .filter(|f| f.get("bp").and_then(Json::as_str) == Some("e"))
                .count(),
            1,
            "exactly the FlowEnd binds to the enclosing slice end"
        );
    }

    #[test]
    fn nested_flow_scopes_stack_and_unwind() {
        let t = Tracer::default();
        t.enable();
        let _outer = flow_scope(&[1, 2]);
        {
            let _inner = flow_scope(&[3]);
            t.record_scoped_flows("k");
        }
        t.record_scoped_flows("k");
        let snap = t.snapshot();
        let ids: Vec<u64> = snap.lanes[0].events.iter().map(|e| e.items).collect();
        assert_eq!(ids, [1, 2, 3, 1, 2], "inner scope extends, then unwinds");
    }

    #[test]
    fn validate_chrome_rejects_flow_records_without_ids() {
        let doc = Json::Obj(vec![(
            "traceEvents".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("ph".into(), Json::Str("s".into())),
                ("pid".into(), Json::Num(0.0)),
                ("tid".into(), Json::Num(0.0)),
                ("ts".into(), Json::Num(1.0)),
                ("name".into(), Json::Str("request".into())),
            ])]),
        )]);
        let err = validate_chrome(&doc).unwrap_err();
        assert!(err.contains("without a numeric id"), "{err}");
    }

    #[test]
    fn dropped_total_tracks_ring_evictions_live() {
        let t = Tracer::default();
        t.enable_with_capacity(2);
        assert_eq!(t.dropped_total(), 0);
        for i in 0..5u64 {
            t.record_instant(EventKind::Fault, &format!("d{i}"), i);
        }
        assert_eq!(t.dropped_total(), 3);
        assert_eq!(t.snapshot().dropped, 3, "live count matches snapshot");
    }

    #[test]
    fn events_carry_step_and_rank_lanes() {
        let t = Tracer::default();
        t.enable();
        t.set_step(7);
        t.record_instant(EventKind::Restore, "recovery.restores", 1);
        let snap = t.snapshot();
        assert_eq!(snap.lanes.len(), 1);
        assert_eq!(snap.lanes[0].events[0].step, 7);
        // This test thread declared no rank: lane files under rank 0.
        assert_eq!(snap.lanes[0].rank, thread_rank());
    }

    #[test]
    fn multi_thread_recording_gets_one_lane_per_thread() {
        let t = Arc::new(Tracer::default());
        t.enable();
        let mut handles = Vec::new();
        for r in 0..3u32 {
            let t = Arc::clone(&t);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ranker-{r}"))
                    .spawn(move || {
                        set_thread_rank(r);
                        let t0 = t.begin().unwrap();
                        std::thread::sleep(Duration::from_micros(50));
                        t.record_complete(EventKind::Kernel, "work", t0, 10, 80);
                    })
                    .unwrap(),
            );
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = t.snapshot();
        assert_eq!(snap.lanes.len(), 3);
        assert_eq!(snap.ranks().len(), 3);
        for lane in &snap.lanes {
            assert!(lane.label.starts_with("ranker-"), "label: {}", lane.label);
            assert_eq!(lane.events.len(), 1);
            assert!(lane.events[0].dur_ns >= 50_000);
        }
    }

    #[test]
    fn chrome_export_is_balanced_nested_and_validates() {
        let snap = TraceSnapshot {
            lanes: vec![lane(
                0,
                0,
                vec![
                    ev(EventKind::Span, "step", 0, 100, 0, 0),
                    ev(EventKind::Kernel, "step/flux", 10, 30, 64, 0),
                    ev(EventKind::Retry, "fault.retries", 40, 0, 1, 0),
                    ev(EventKind::Kernel, "step/adv", 50, 40, 64, 0),
                ],
            )],
            dropped: 0,
            step: 1,
        };
        let doc = snap.to_chrome_json();
        let stats = validate_chrome(&doc).expect("well-formed trace");
        assert_eq!(stats.begins, 3);
        assert_eq!(stats.ends, 3);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.lanes, 1);
        assert_eq!(stats.ranks, 1);
        assert_eq!(stats.metadata, 2, "process_name + thread_name");
        // B/E nesting: the span must close after both kernels.
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let phs: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .filter(|p| *p != "M")
            .collect();
        // flux ends at 40, exactly where the retry instant sits: the E is
        // emitted first (close-on-tie), then the instant, then adv.
        assert_eq!(phs, ["B", "B", "E", "i", "B", "E", "E"]);
    }

    #[test]
    fn chrome_export_clamps_overlap_to_monotone_timestamps() {
        // Pathological overlap (clock-granularity ties): must still validate.
        let snap = TraceSnapshot {
            lanes: vec![lane(
                0,
                0,
                vec![
                    ev(EventKind::Kernel, "a", 0, 50, 0, 0),
                    ev(EventKind::Kernel, "b", 10, 60, 0, 0),
                ],
            )],
            dropped: 0,
            step: 0,
        };
        let doc = snap.to_chrome_json();
        validate_chrome(&doc).expect("clamped export must stay monotone and balanced");
    }

    #[test]
    fn validator_rejects_unbalanced_and_regressing_documents() {
        let b = |ts: f64, name: &str| {
            Json::Obj(vec![
                ("ph".into(), Json::Str("B".into())),
                ("pid".into(), Json::Num(0.0)),
                ("tid".into(), Json::Num(0.0)),
                ("ts".into(), Json::Num(ts)),
                ("name".into(), Json::Str(name.into())),
            ])
        };
        let e = |ts: f64, name: &str| {
            Json::Obj(vec![
                ("ph".into(), Json::Str("E".into())),
                ("pid".into(), Json::Num(0.0)),
                ("tid".into(), Json::Num(0.0)),
                ("ts".into(), Json::Num(ts)),
                ("name".into(), Json::Str(name.into())),
            ])
        };
        let doc = |evs: Vec<Json>| Json::Obj(vec![("traceEvents".into(), Json::Arr(evs))]);

        assert!(
            validate_chrome(&Json::Obj(vec![])).is_err(),
            "no traceEvents"
        );
        let unclosed = doc(vec![b(0.0, "x")]);
        assert!(validate_chrome(&unclosed)
            .unwrap_err()
            .contains("never closed"));
        let orphan = doc(vec![e(1.0, "x")]);
        assert!(validate_chrome(&orphan).unwrap_err().contains("no open B"));
        let regress = doc(vec![b(5.0, "x"), e(1.0, "x")]);
        assert!(validate_chrome(&regress).unwrap_err().contains("regressed"));
        let mismatch = doc(vec![b(0.0, "x"), e(1.0, "y")]);
        assert!(validate_chrome(&mismatch).unwrap_err().contains("closes B"));
        assert!(validate_chrome(&doc(vec![b(0.0, "x"), e(1.0, "x")])).is_ok());
    }

    #[test]
    fn analyze_attributes_kernels_halo_and_imbalance() {
        // Rank 0: 300ns of flux + a halo round (100ns, 60ns waiting).
        // Rank 1: 100ns of flux. Imbalance = 400 / 250 = 1.6.
        let snap = TraceSnapshot {
            lanes: vec![
                lane(
                    0,
                    0,
                    vec![
                        ev(EventKind::Kernel, "step/flux", 0, 300, 64, 0),
                        ev(EventKind::HaloExchange, "halo_exchange", 300, 100, 2, 160),
                        ev(EventKind::HaloWait, "halo_wait<-1", 310, 60, 1, 80),
                        ev(EventKind::Fault, "fault.injected", 350, 0, 1, 0),
                    ],
                ),
                lane(
                    1,
                    1,
                    vec![ev(EventKind::Kernel, "step/flux", 0, 100, 64, 0)],
                ),
            ],
            dropped: 0,
            step: 3,
        };
        let flops = BTreeMap::from([("flux".to_string(), 4000)]);
        let rep = analyze(&snap, &flops);
        assert_eq!(rep.wall_ns, 400);
        assert_eq!(rep.critical_rank, 0);
        assert!((rep.imbalance - 1.6).abs() < 1e-12, "{}", rep.imbalance);
        assert_eq!(rep.halo.exchanges, 1);
        assert_eq!(rep.halo.waits, 1);
        assert_eq!(rep.halo.wait_ns, 60);
        assert_eq!(rep.halo.transfer_ns, 40);
        assert_eq!(rep.kernels.len(), 1);
        let k = &rep.kernels[0];
        assert_eq!(k.calls, 2);
        assert_eq!(k.total_ns, 400);
        assert_eq!(k.flops, Some(4000));
        // GFLOP/s = 4000 FLOP / 400 ns = 10.
        assert!((k.gflops.unwrap() - 10.0).abs() < 1e-12);
        assert_eq!(k.share_busy, 1.0, "only kernel");
        assert_eq!(k.cp_share, 1.0, "only kernel on the critical rank");
        // Report serializes and renders.
        let j = rep.to_json();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("grist-trace-report-v2")
        );
        let text = rep.to_text();
        assert!(text.contains("step/flux"), "{text}");
        assert!(text.contains("imbalance 1.600"), "{text}");
    }

    #[test]
    fn analyze_leaves_ambiguous_leaves_unattributed() {
        let snap = TraceSnapshot {
            lanes: vec![lane(
                0,
                0,
                vec![
                    ev(EventKind::Kernel, "a/work", 0, 10, 1, 0),
                    ev(EventKind::Kernel, "b/work", 10, 10, 1, 0),
                    ev(EventKind::Kernel, "solo", 20, 10, 1, 0),
                ],
            )],
            dropped: 0,
            step: 0,
        };
        let flops = BTreeMap::from([("work".to_string(), 100), ("solo".to_string(), 100)]);
        let rep = analyze(&snap, &flops);
        let get = |n: &str| rep.kernels.iter().find(|k| k.name == n).unwrap();
        // "work" appears under two paths: the shared counter is not split.
        assert_eq!(get("a/work").flops, None);
        assert_eq!(get("b/work").flops, None);
        // "solo" has one path: its FLOPs and throughput are attributed.
        let solo = get("solo");
        assert_eq!(solo.flops, Some(100));
        assert!((solo.gflops.unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_analyzes_and_exports_cleanly() {
        let snap = TraceSnapshot::default();
        let rep = analyze(&snap, &BTreeMap::new());
        assert_eq!(rep.wall_ns, 0);
        assert_eq!(rep.imbalance, 1.0);
        assert!(rep.kernels.is_empty());
        let stats = validate_chrome(&snap.to_chrome_json()).expect("empty trace valid");
        assert_eq!(stats.events, 0);
    }
}
