//! The unified observability registry: hierarchical trace spans, per-kernel
//! wall-time/call accounting, and named hardware-model counters — the
//! measurement spine behind the paper's evaluation (Figs. 9–11 all depend on
//! per-kernel and per-exchange attribution).
//!
//! One [`Metrics`] is shared by every clone of a
//! [`Substrate`](crate::substrate::Substrate): the model driver opens spans
//! (`step` → `dycore`/`physics`/`ml`), every named kernel dispatch records
//! under the currently open span path, and the hardware-model counters
//! (the substrate's byte-carrying dispatches, the halo exchange in
//! `grist-runtime`, and the LDCache, allocator and DMA simulators of
//! `sunway-model`) feed counters like
//! `dma.bytes`, `ldcache.misses`, and `halo.messages`. Distributions —
//! the serving front-end's `serve.{latency_ns,queue_ns,batch_size}` — are
//! named [`Histogram`]s recorded through [`Metrics::record_hist`] into the
//! same per-thread lanes. [`MetricsSnapshot`] freezes the whole registry and
//! round-trips through JSON; its counters and kernel call/item/byte counts
//! are what the `BENCH_*.json` pins hold exactly (`grist gate`).

use crate::hist::Histogram;
use crate::json::Json;
use crate::trace::{self, EventKind, Tracer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Accumulated cost of one named kernel (keyed by its full span path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Dispatch count.
    pub calls: u64,
    /// Total wall time across all dispatches.
    pub nanos: u64,
    /// Total loop iterations (cells/edges/columns) dispatched.
    pub items: u64,
    /// Modeled DMA payload bytes attributed to this kernel (only kernels
    /// dispatched with an explicit per-item byte cost report nonzero).
    pub bytes: u64,
}

/// Accumulated cost of one span (keyed by its full path, e.g. `step/dycore`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    pub calls: u64,
    pub nanos: u64,
}

#[derive(Debug, Default)]
struct MetricsState {
    counters: BTreeMap<String, u64>,
    /// Every thread that has opened a span, dispatched a kernel or recorded
    /// a histogram on this registry, by its [`trace::thread_lane`].
    lanes: BTreeMap<u32, Arc<Mutex<Lane>>>,
}

/// One thread's share of the kernel, span and histogram tables. A dispatch
/// (or a histogram record) touches only its own thread's lane — found
/// through a thread-local cache, its mutex contended by nothing but
/// [`Metrics::snapshot`] and [`Metrics::reset`] — and
/// [`Metrics::snapshot`] merges the lanes by key. Span paths and kernel
/// keys are built once, the first time the lane sees them: a repeated
/// dispatch finds its slot by name and adds four integers.
///
/// In a shared-registry multi-rank run each driver thread keeps its own
/// span stack here, so concurrent spans cannot corrupt each other's kernel
/// paths.
#[derive(Debug)]
struct Lane {
    /// Currently open spans, innermost last, as indices into `nodes`.
    stack: Vec<usize>,
    /// Every span path this lane has opened; `nodes[0]` is the root (no
    /// span open, empty path).
    nodes: Vec<SpanNode>,
    /// Named distributions recorded on this thread (not span-qualified).
    hists: Vec<(&'static str, Histogram)>,
}

#[derive(Debug, Default)]
struct SpanNode {
    /// Full path, e.g. `step/dycore`.
    path: String,
    stats: SpanStats,
    /// Spans opened directly under this one, by name.
    children: Vec<(&'static str, usize)>,
    /// Kernels dispatched directly under this span.
    kernels: Vec<KernelSlot>,
}

#[derive(Debug)]
struct KernelSlot {
    name: &'static str,
    /// The registry key, `<span path>/<name>`.
    key: String,
    stats: KernelStats,
}

impl Default for Lane {
    fn default() -> Self {
        Lane {
            stack: Vec::new(),
            nodes: vec![SpanNode::default()],
            hists: Vec::new(),
        }
    }
}

impl Lane {
    /// The innermost open span (the root when none is).
    fn current(&self) -> usize {
        self.stack.last().copied().unwrap_or(0)
    }

    /// `<path of the innermost open span>/<name>`.
    fn qualify(&self, name: &str) -> String {
        let path = &self.nodes[self.current()].path;
        if path.is_empty() {
            name.to_string()
        } else {
            format!("{path}/{name}")
        }
    }

    /// Open `name` under the innermost open span.
    fn push(&mut self, name: &'static str) {
        let parent = self.current();
        let known = self.nodes[parent].children.iter().find(|c| c.0 == name);
        let node = match known {
            Some(&(_, node)) => node,
            None => {
                let path = self.qualify(name);
                self.nodes.push(SpanNode {
                    path,
                    ..SpanNode::default()
                });
                let node = self.nodes.len() - 1;
                self.nodes[parent].children.push((name, node));
                node
            }
        };
        self.stack.push(node);
    }

    /// The stats of kernel `name` under the innermost open span.
    fn kernel(&mut self, name: &'static str) -> &mut KernelStats {
        let node = self.current();
        let slot = match self.nodes[node].kernels.iter().position(|k| k.name == name) {
            Some(slot) => slot,
            None => {
                let key = self.qualify(name);
                let kernels = &mut self.nodes[node].kernels;
                kernels.push(KernelSlot {
                    name,
                    key,
                    stats: KernelStats::default(),
                });
                kernels.len() - 1
            }
        };
        &mut self.nodes[node].kernels[slot].stats
    }

    /// The histogram named `name`, created empty on first use.
    fn hist(&mut self, name: &'static str) -> &mut Histogram {
        let slot = match self.hists.iter().position(|h| h.0 == name) {
            Some(slot) => slot,
            None => {
                self.hists.push((name, Histogram::default()));
                self.hists.len() - 1
            }
        };
        &mut self.hists[slot].1
    }
}

thread_local! {
    /// The calling thread's lane in the registry it last recorded on, keyed
    /// by that registry's tracer id.
    static CACHED_LANE: RefCell<Option<(u64, Arc<Mutex<Lane>>)>> = const { RefCell::new(None) };
}

#[derive(Debug, Default)]
struct MetricsInner {
    state: Mutex<MetricsState>,
    trace: Tracer,
}

/// The shared metrics registry. Interior-mutable and cheaply cloneable:
/// recording takes `&self`, clones share one registry (`Arc` inside), so a
/// substrate's clones, solvers, physics suites — and, via
/// [`Substrate::serial_with_metrics`](crate::substrate::Substrate::serial_with_metrics),
/// whole rank worlds — all accumulate into the same registry concurrently.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

/// RAII guard returned by [`Metrics::span`]; closes the span (recording its
/// wall time) on drop.
pub struct SpanGuard<'a> {
    metrics: &'a Metrics,
    lane: Arc<Mutex<Lane>>,
    started: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let nanos = self.started.elapsed().as_nanos() as u64;
        let tracer = &self.metrics.inner.trace;
        let traced_path = {
            let mut lane = self.lane.lock().expect("metrics lane poisoned");
            let node = lane.stack.pop().unwrap_or(0);
            let node = &mut lane.nodes[node];
            node.stats.calls += 1;
            node.stats.nanos += nanos;
            tracer.is_enabled().then(|| node.path.clone())
        };
        if let Some(path) = traced_path {
            tracer.record_complete(EventKind::Span, &path, self.started, 0, 0);
        }
    }
}

/// Counters whose ticks double as trace events: resilience-ladder state
/// transitions, mirrored as instant markers on the recording thread's lane.
fn counter_trace_kind(name: &str) -> Option<EventKind> {
    match name {
        "fault.injected" => Some(EventKind::Fault),
        "fault.retries" => Some(EventKind::Retry),
        "fault.degradations" => Some(EventKind::Degradation),
        "checkpoint.captures" => Some(EventKind::Checkpoint),
        "recovery.restores" => Some(EventKind::Restore),
        _ => None,
    }
}

impl Metrics {
    /// Open a trace span **on the calling thread**; kernels this thread
    /// dispatches while the guard lives are attributed under
    /// `<open spans>/<name>/<kernel>`. Spans nest; the guard records its own
    /// wall time on drop.
    ///
    /// # Merge semantics (pinned)
    ///
    /// Span paths are *names*, not occurrences: identically-named sibling
    /// spans under the same parent — and repeated openings of the same span,
    /// like `step` once per model step — merge into one [`SpanStats`] entry
    /// and one kernel key. That is deliberate: the registry answers "how
    /// much per kind of work", keeping keys stable across step counts so
    /// `BENCH_*.json` baselines compare run-to-run. Distinguishing
    /// *occurrences* (this `step` vs. the previous one) is the job of the
    /// [`trace`] timeline, where every span guard emits its
    /// own timestamped event.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let lane = self.lane();
        lane.lock().expect("metrics lane poisoned").push(name);
        SpanGuard {
            metrics: self,
            lane,
            started: Instant::now(),
        }
    }

    /// The calling thread's lane, created on its first use of this registry.
    fn lane(&self) -> Arc<Mutex<Lane>> {
        let id = self.inner.trace.id();
        CACHED_LANE.with_borrow_mut(|slot| match slot {
            Some((cached, lane)) if *cached == id => Arc::clone(lane),
            _ => {
                let mut st = self.inner.state.lock().expect("metrics poisoned");
                let lane = Arc::clone(st.lanes.entry(trace::thread_lane()).or_default());
                *slot = Some((id, Arc::clone(&lane)));
                lane
            }
        })
    }

    /// The event tracer sharing this registry's lifetime (disabled by
    /// default; see [`trace::Tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.inner.trace
    }

    /// The calling thread's span-qualified key for `name` (what
    /// [`Self::record_kernel`] would file under right now).
    pub fn qualified_kernel(&self, name: &str) -> String {
        let lane = self.lane();
        let lane = lane.lock().expect("metrics lane poisoned");
        lane.qualify(name)
    }

    /// Record one dispatch of the named kernel under the calling thread's
    /// open span path.
    pub fn record_kernel(&self, name: &'static str, nanos: u64, items: u64, bytes: u64) {
        let lane = self.lane();
        let mut lane = lane.lock().expect("metrics lane poisoned");
        let e = lane.kernel(name);
        e.calls += 1;
        e.nanos += nanos;
        e.items += items;
        e.bytes += bytes;
    }

    /// Record `(name, value)` samples into the calling thread's named
    /// histograms, all under one lock of its lane: a caller with several
    /// values per event (the serving front-end: one batch size and one
    /// latency per query) pays one lock for the lot.
    pub fn record_hist(&self, samples: &[(&'static str, u64)]) {
        let lane = self.lane();
        let mut lane = lane.lock().expect("metrics lane poisoned");
        for &(name, v) in samples {
            lane.hist(name).record(v);
        }
    }

    /// Add `delta` to the named counter (created at zero on first use).
    /// Resilience counters (`fault.*`, `checkpoint.captures`,
    /// `recovery.restores`) also emit an instant trace event when tracing
    /// is enabled.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        {
            let mut st = self.inner.state.lock().expect("metrics poisoned");
            match st.counters.get_mut(name) {
                Some(v) => *v += delta,
                None => {
                    st.counters.insert(name.to_string(), delta);
                }
            }
        }
        if self.inner.trace.is_enabled() {
            if let Some(kind) = counter_trace_kind(name) {
                self.inner.trace.record_instant(kind, name, delta, 0);
            }
        }
    }

    /// Current value of a counter (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .state
            .lock()
            .expect("metrics poisoned")
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Freeze every kernel, span, counter and histogram into a snapshot: the
    /// lanes merged by key, entries nothing has been recorded on left out.
    /// Tracer
    /// ring evictions surface here as a synthetic `trace.dropped_events`
    /// counter (only when non-zero, so untraced runs keep their exact
    /// counter sets).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let trace_dropped = self.inner.trace.dropped_total();
        let st = self.inner.state.lock().expect("metrics poisoned");
        let mut counters = st.counters.clone();
        if trace_dropped > 0 {
            counters.insert("trace.dropped_events".to_string(), trace_dropped);
        }
        let mut kernels: BTreeMap<String, KernelStats> = BTreeMap::new();
        let mut spans: BTreeMap<String, SpanStats> = BTreeMap::new();
        let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
        for lane in st.lanes.values() {
            let lane = lane.lock().expect("metrics lane poisoned");
            for (name, h) in &lane.hists {
                match histograms.get_mut(*name) {
                    Some(merged) => merged.merge(h),
                    None => {
                        histograms.insert(name.to_string(), h.clone());
                    }
                }
            }
            for node in &lane.nodes {
                if node.stats.calls > 0 {
                    let e = spans.entry(node.path.clone()).or_default();
                    e.calls += node.stats.calls;
                    e.nanos += node.stats.nanos;
                }
                for k in node.kernels.iter().filter(|k| k.stats.calls > 0) {
                    let e = kernels.entry(k.key.clone()).or_default();
                    e.calls += k.stats.calls;
                    e.nanos += k.stats.nanos;
                    e.items += k.stats.items;
                    e.bytes += k.stats.bytes;
                }
            }
        }
        MetricsSnapshot {
            kernels,
            spans,
            counters,
            histograms,
        }
    }

    /// Per-kernel stats only (the legacy profiler view).
    pub(crate) fn kernel_snapshot(&self) -> Vec<(String, KernelStats)> {
        self.snapshot().kernels.into_iter().collect()
    }

    /// Clear all kernels, spans, counters and histograms (open spans stay
    /// open: the per-thread stacks are preserved so guards still pop
    /// correctly).
    pub fn reset(&self) {
        let mut st = self.inner.state.lock().expect("metrics poisoned");
        st.counters.clear();
        for lane in st.lanes.values() {
            let mut lane = lane.lock().expect("metrics lane poisoned");
            lane.hists.clear();
            for node in &mut lane.nodes {
                node.stats = SpanStats::default();
                for k in &mut node.kernels {
                    k.stats = KernelStats::default();
                }
            }
        }
    }
}

/// An immutable copy of the registry, serializable to/from JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub kernels: BTreeMap<String, KernelStats>,
    pub spans: BTreeMap<String, SpanStats>,
    pub counters: BTreeMap<String, u64>,
    /// Named distributions, `log16-v1` buckets (see [`crate::hist`]).
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// As a JSON value with `kernels`/`spans`/`counters` objects and, when
    /// any histogram was recorded, a `histograms` object (stable, sorted key
    /// order — BTreeMap iteration). A registry that recorded no histogram
    /// writes no `histograms` key at all.
    pub fn to_json_value(&self) -> Json {
        let kernels = self
            .kernels
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("calls".into(), Json::Num(s.calls as f64)),
                        ("nanos".into(), Json::Num(s.nanos as f64)),
                        ("items".into(), Json::Num(s.items as f64)),
                        ("bytes".into(), Json::Num(s.bytes as f64)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("calls".into(), Json::Num(s.calls as f64)),
                        ("nanos".into(), Json::Num(s.nanos as f64)),
                    ]),
                )
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, &v)| (name.clone(), Json::Num(v as f64)))
            .collect();
        let mut doc = vec![
            ("kernels".into(), Json::Obj(kernels)),
            ("spans".into(), Json::Obj(spans)),
            ("counters".into(), Json::Obj(counters)),
        ];
        if !self.histograms.is_empty() {
            let histograms = self
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.to_json()))
                .collect();
            doc.push(("histograms".into(), Json::Obj(histograms)));
        }
        Json::Obj(doc)
    }

    /// Pretty JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    /// Rebuild from a JSON value of the [`Self::to_json_value`] shape.
    /// Missing sections are treated as empty; malformed entries and
    /// duplicate keys within a section are descriptive errors (a duplicated
    /// kernel would otherwise silently shadow the earlier stats).
    fn from_json_value(v: &Json) -> Result<Self, String> {
        let mut snap = MetricsSnapshot::default();
        if let Some(fields) = v.get("kernels").and_then(Json::as_obj) {
            for (name, entry) in fields {
                let get = |k: &str| -> Result<u64, String> {
                    entry
                        .get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("kernel {name:?}: bad or missing field {k:?}"))
                };
                let stats = KernelStats {
                    calls: get("calls")?,
                    nanos: get("nanos")?,
                    items: get("items")?,
                    bytes: get("bytes")?,
                };
                if snap.kernels.insert(name.clone(), stats).is_some() {
                    return Err(format!("kernel {name:?}: duplicate key"));
                }
            }
        }
        if let Some(fields) = v.get("spans").and_then(Json::as_obj) {
            for (name, entry) in fields {
                let get = |k: &str| -> Result<u64, String> {
                    entry
                        .get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("span {name:?}: bad or missing field {k:?}"))
                };
                let stats = SpanStats {
                    calls: get("calls")?,
                    nanos: get("nanos")?,
                };
                if snap.spans.insert(name.clone(), stats).is_some() {
                    return Err(format!("span {name:?}: duplicate key"));
                }
            }
        }
        if let Some(fields) = v.get("counters").and_then(Json::as_obj) {
            for (name, entry) in fields {
                let v = entry
                    .as_u64()
                    .ok_or_else(|| format!("counter {name:?}: not a non-negative integer"))?;
                if snap.counters.insert(name.clone(), v).is_some() {
                    return Err(format!("counter {name:?}: duplicate key"));
                }
            }
        }
        if let Some(fields) = v.get("histograms").and_then(Json::as_obj) {
            for (name, entry) in fields {
                let h = Histogram::from_json(entry).map_err(|e| format!("{name:?}: {e}"))?;
                if snap.histograms.insert(name.clone(), h).is_some() {
                    return Err(format!("histogram {name:?}: duplicate key"));
                }
            }
        }
        Ok(snap)
    }

    /// Parse a JSON document produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json_value(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_nest_under_open_spans() {
        let m = Metrics::default();
        m.record_kernel("bare", 10, 1, 0);
        {
            let _step = m.span("step");
            {
                let _dy = m.span("dycore");
                m.record_kernel("flux", 5, 100, 800);
                m.record_kernel("flux", 7, 100, 800);
            }
            m.record_kernel("exchange", 3, 1, 0);
        }
        let snap = m.snapshot();
        assert_eq!(snap.kernels["bare"].calls, 1);
        let flux = &snap.kernels["step/dycore/flux"];
        assert_eq!(
            (flux.calls, flux.nanos, flux.items, flux.bytes),
            (2, 12, 200, 1600)
        );
        assert_eq!(snap.kernels["step/exchange"].calls, 1);
        // Both spans closed and recorded their own wall time.
        assert_eq!(snap.spans["step"].calls, 1);
        assert_eq!(snap.spans["step/dycore"].calls, 1);
        assert!(snap.spans["step"].nanos >= snap.spans["step/dycore"].nanos);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let m = Metrics::default();
        m.counter_add("dma.bytes", 100);
        m.counter_add("dma.bytes", 28);
        m.counter_add("halo.messages", 3);
        m.counter_add("never.incremented", 0); // no-op: not materialized
        assert_eq!(m.counter("dma.bytes"), 128);
        assert_eq!(m.counter("absent"), 0);
        let snap = m.snapshot();
        assert_eq!(snap.counters.len(), 2);
        m.reset();
        assert_eq!(m.counter("dma.bytes"), 0);
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn snapshot_json_round_trips_exactly() {
        let m = Metrics::default();
        {
            let _s = m.span("step");
            m.record_kernel("k1", 123_456_789, 42, 7);
        }
        m.record_kernel("k2", 1, 1, 0);
        m.counter_add("ldcache.misses", 987_654_321);
        let snap = m.snapshot();
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).expect("parse back");
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_rejects_malformed_entries() {
        assert!(MetricsSnapshot::from_json("{").is_err());
        let bad = r#"{"kernels": {"k": {"calls": -1, "nanos": 0, "items": 0, "bytes": 0}}}"#;
        let e = MetricsSnapshot::from_json(bad).unwrap_err();
        assert!(e.contains("calls"), "{e}");
        let missing = r#"{"counters": {"c": "not a number"}}"#;
        assert!(MetricsSnapshot::from_json(missing).is_err());
        // Missing sections are fine.
        assert_eq!(
            MetricsSnapshot::from_json("{}").unwrap(),
            MetricsSnapshot::default()
        );
    }

    #[test]
    fn from_json_truncated_inputs_error_descriptively_never_panic() {
        // Every prefix of a valid document must parse-fail cleanly (or, for
        // the rare prefix that is itself valid JSON, build a snapshot).
        let m = Metrics::default();
        {
            let _s = m.span("step");
            m.record_kernel("k", 42, 7, 8);
        }
        m.counter_add("dma.bytes", 9);
        let full = m.snapshot().to_json();
        for cut in 0..full.len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            let prefix = &full[..cut];
            match MetricsSnapshot::from_json(prefix) {
                Ok(_) => {} // e.g. cut == 0 is not valid, but be permissive
                Err(e) => assert!(!e.is_empty(), "error message must be descriptive"),
            }
        }
        // A structurally truncated (but syntactically valid) entry errors
        // with the offending field named.
        let cut_field = r#"{"kernels": {"k": {"calls": 1, "nanos": 2}}}"#;
        let e = MetricsSnapshot::from_json(cut_field).unwrap_err();
        assert!(e.contains("items"), "{e}");
    }

    #[test]
    fn from_json_wrong_typed_values_error_descriptively() {
        for (doc, needle) in [
            (
                r#"{"kernels": {"k": {"calls": "3", "nanos": 0, "items": 0, "bytes": 0}}}"#,
                "calls",
            ),
            (
                r#"{"kernels": {"k": {"calls": 1.5, "nanos": 0, "items": 0, "bytes": 0}}}"#,
                "calls",
            ),
            (r#"{"kernels": {"k": [1, 2, 3, 4]}}"#, "calls"),
            (r#"{"spans": {"s": {"calls": true, "nanos": 0}}}"#, "calls"),
            (r#"{"spans": {"s": {"calls": 1, "nanos": null}}}"#, "nanos"),
            (r#"{"counters": {"c": -4}}"#, "non-negative"),
            (r#"{"counters": {"c": {}}}"#, "non-negative"),
        ] {
            let e = MetricsSnapshot::from_json(doc).unwrap_err();
            assert!(
                e.contains(needle),
                "doc {doc}: error {e:?} lacks {needle:?}"
            );
        }
    }

    #[test]
    fn from_json_duplicate_keys_are_rejected_not_last_wins() {
        let dup_kernel = r#"{"kernels": {
            "k": {"calls": 1, "nanos": 1, "items": 1, "bytes": 1},
            "k": {"calls": 2, "nanos": 2, "items": 2, "bytes": 2}}}"#;
        let e = MetricsSnapshot::from_json(dup_kernel).unwrap_err();
        assert!(e.contains("duplicate") && e.contains('k'), "{e}");
        let dup_span =
            r#"{"spans": {"s": {"calls": 1, "nanos": 1}, "s": {"calls": 1, "nanos": 1}}}"#;
        assert!(MetricsSnapshot::from_json(dup_span)
            .unwrap_err()
            .contains("duplicate"));
        let dup_counter = r#"{"counters": {"c": 1, "c": 2}}"#;
        assert!(MetricsSnapshot::from_json(dup_counter)
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn sibling_spans_with_one_name_merge_by_contract() {
        // The pinned merge semantics (see `Metrics::span` docs): same-named
        // sibling spans — and re-opened spans — share one key; occurrence
        // identity lives in the trace timeline instead.
        let m = Metrics::default();
        m.tracer().enable();
        {
            let _step = m.span("step");
            {
                let _a = m.span("physics");
                m.record_kernel("work", 5, 1, 0);
            }
            {
                let _b = m.span("physics"); // identically-named sibling
                m.record_kernel("work", 7, 1, 0);
            }
        }
        let snap = m.snapshot();
        assert_eq!(snap.spans["step/physics"].calls, 2, "siblings merge");
        let w = &snap.kernels["step/physics/work"];
        assert_eq!((w.calls, w.nanos), (2, 12), "one merged kernel key");
        // ...but the trace distinguishes the two occurrences in time.
        let tr = m.tracer().snapshot();
        let phys: Vec<_> = tr
            .lanes
            .iter()
            .flat_map(|l| &l.events)
            .filter(|e| e.kind == crate::trace::EventKind::Span && e.name == "step/physics")
            .collect();
        assert_eq!(phys.len(), 2, "two span events, one per occurrence");
        assert!(phys[0].t0_ns <= phys[1].t0_ns);
    }

    #[test]
    fn span_stacks_are_per_thread_under_a_shared_registry() {
        // Two concurrent "rank drivers" sharing one registry must not leak
        // span paths into each other's kernel keys.
        let m = Metrics::default();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let spawn = |name: &'static str, kernel: &'static str| {
            let m = m.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let _outer = m.span(name);
                barrier.wait(); // both spans open concurrently
                m.record_kernel(kernel, 1, 1, 0);
                barrier.wait();
            })
        };
        let a = spawn("alpha", "ka");
        let b = spawn("beta", "kb");
        a.join().unwrap();
        b.join().unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.kernels["alpha/ka"].calls, 1);
        assert_eq!(snap.kernels["beta/kb"].calls, 1);
        assert_eq!(snap.spans["alpha"].calls, 1);
        assert_eq!(snap.spans["beta"].calls, 1);
    }

    #[test]
    fn lanes_merge_by_key_and_one_thread_keeps_two_registries_apart() {
        // Two threads recording the same kernel under the same span path
        // accumulate in their own lanes; the snapshot shows one entry.
        let m = Metrics::default();
        std::thread::scope(|s| {
            for nanos in [5, 7] {
                let m = &m;
                s.spawn(move || {
                    let _step = m.span("step");
                    m.record_kernel("work", nanos, 10, 1);
                });
            }
        });
        let snap = m.snapshot();
        let w = &snap.kernels["step/work"];
        assert_eq!((w.calls, w.nanos, w.items, w.bytes), (2, 12, 20, 2));
        assert_eq!(snap.spans["step"].calls, 2);
        assert_eq!(snap.kernels.len(), 1);

        // One thread alternating between two registries: each dispatch
        // files under the spans open on the registry it was made on.
        let (a, b) = (Metrics::default(), Metrics::default());
        let _sa = a.span("alpha");
        let _sb = b.span("beta");
        for _ in 0..3 {
            a.record_kernel("k", 1, 1, 0);
            b.record_kernel("k", 1, 1, 0);
        }
        assert_eq!(a.snapshot().kernels["alpha/k"].calls, 3);
        assert_eq!(b.snapshot().kernels["beta/k"].calls, 3);

        // A reset under an open span leaves nothing behind — no zeroed
        // entries — and what follows still files under the open path.
        a.reset();
        assert_eq!(a.snapshot(), MetricsSnapshot::default());
        a.record_kernel("k", 2, 1, 0);
        assert_eq!(a.snapshot().kernels["alpha/k"].nanos, 2);
        assert!(a.snapshot().spans.is_empty(), "alpha is still open");
    }

    #[test]
    fn ring_evictions_surface_as_a_dropped_events_counter() {
        let m = Metrics::default();
        // Untraced (and traced-but-unfull) registries keep their counter
        // set untouched — no synthetic zero entry.
        assert!(!m.snapshot().counters.contains_key("trace.dropped_events"));
        m.tracer().enable_with_capacity(2);
        for i in 0..6u64 {
            m.tracer()
                .record_instant(EventKind::Fault, &format!("f{i}"), 1, 0);
        }
        let snap = m.snapshot();
        assert_eq!(snap.counters.get("trace.dropped_events"), Some(&4));
        // And it rides into the JSON export next to ordinary counters.
        let json = snap.to_json_value();
        assert_eq!(
            json.get("counters")
                .and_then(|c| c.get("trace.dropped_events"))
                .and_then(Json::as_u64),
            Some(4)
        );
    }

    #[test]
    fn resilience_counters_mirror_into_trace_events() {
        use crate::trace::EventKind;
        let m = Metrics::default();
        m.counter_add("fault.injected", 1); // tracing off: counter only
        m.tracer().enable();
        m.counter_add("fault.injected", 2);
        m.counter_add("fault.retries", 1);
        m.counter_add("fault.degradations", 1);
        m.counter_add("checkpoint.captures", 1);
        m.counter_add("recovery.restores", 1);
        m.counter_add("dma.bytes", 4096); // not a resilience counter
        let snap = m.tracer().snapshot();
        assert_eq!(snap.count_kind(EventKind::Fault), 1);
        assert_eq!(snap.count_kind(EventKind::Retry), 1);
        assert_eq!(snap.count_kind(EventKind::Degradation), 1);
        assert_eq!(snap.count_kind(EventKind::Checkpoint), 1);
        assert_eq!(snap.count_kind(EventKind::Restore), 1);
        assert_eq!(snap.total_events(), 5, "dma.bytes emits no event");
        let fault = snap
            .lanes
            .iter()
            .flat_map(|l| &l.events)
            .find(|e| e.kind == EventKind::Fault)
            .unwrap();
        assert_eq!(fault.items, 2, "delta rides on the event");
        assert_eq!(m.counter("fault.injected"), 3);
    }

    #[test]
    fn concurrent_hist_records_lose_nothing_and_merge_exactly() {
        const THREADS: u64 = 8;
        const RECORDS: u64 = 20_000;

        // Deterministic per-thread value stream (xorshift); thread t records
        // values(t), and the references are rebuilt serially from the same
        // streams.
        fn values(t: u64) -> impl Iterator<Item = u64> {
            let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1) | 1;
            (0..RECORDS).map(move |_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 100_000_000 // ns-scale, spans many octaves
            })
        }

        let m = Metrics::default();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let m = &m;
                s.spawn(move || {
                    for v in values(t) {
                        m.record_hist(&[("lat", v)]);
                    }
                });
            }
        });
        let snap = m.snapshot();

        let mut reference = Histogram::default();
        let (mut even, mut odd) = (Histogram::default(), Histogram::default());
        for t in 0..THREADS {
            let split = if t % 2 == 0 { &mut even } else { &mut odd };
            for v in values(t) {
                reference.record(v);
                split.record(v);
            }
        }
        assert_eq!(snap.histograms.len(), 1);
        let got = &snap.histograms["lat"];
        assert_eq!(got.count, THREADS * RECORDS, "total count");
        assert_eq!(*got, reference, "lanes merge bucket for bucket");
        even.merge(&odd);
        assert_eq!(even, reference, "a split population merges exactly");
    }

    #[test]
    fn histograms_round_trip_and_leave_a_histogram_free_document_unchanged() {
        // A registry that recorded no histogram writes no `histograms` key
        // at all: the three-section document, byte for byte.
        let mut snap = MetricsSnapshot::default();
        snap.kernels.insert(
            "step/dycore/flux".into(),
            KernelStats {
                calls: 2,
                nanos: 1_500,
                items: 84,
                bytes: 672,
            },
        );
        snap.spans.insert(
            "step".into(),
            SpanStats {
                calls: 1,
                nanos: 9_000,
            },
        );
        snap.counters.insert("halo.messages".into(), 3);
        assert_eq!(
            snap.to_json(),
            r#"{
  "kernels": {
    "step/dycore/flux": {
      "calls": 2,
      "nanos": 1500,
      "items": 84,
      "bytes": 672
    }
  },
  "spans": {
    "step": {
      "calls": 1,
      "nanos": 9000
    }
  },
  "counters": {
    "halo.messages": 3
  }
}
"#
        );

        // With histograms, the section rides along and reads back exactly,
        // an empty histogram (no `min`) included.
        let m = Metrics::default();
        m.record_hist(&[("serve.batch_size", 4), ("serve.latency_ns", 1_234_567)]);
        m.record_hist(&[("serve.latency_ns", 987_654_321), ("serve.latency_ns", 0)]);
        let mut with = m.snapshot();
        assert_eq!(with.histograms["serve.latency_ns"].count, 3);
        with.histograms.insert("idle".into(), Histogram::default());
        with.counters = snap.counters.clone();
        let text = with.to_json();
        assert!(text.contains("\"histograms\""));
        assert_eq!(MetricsSnapshot::from_json(&text).unwrap(), with);

        // Strict like every other section.
        let dup = r#"{"histograms": {
            "h": {"layout": "log16-v1", "count": 0, "sum": 0, "max": 0, "buckets": {}},
            "h": {"layout": "log16-v1", "count": 0, "sum": 0, "max": 0, "buckets": {}}}}"#;
        assert!(MetricsSnapshot::from_json(dup)
            .unwrap_err()
            .contains("duplicate"));
        let foreign = r#"{"histograms": {"h": {"layout": "log2-v0"}}}"#;
        assert!(MetricsSnapshot::from_json(foreign)
            .unwrap_err()
            .contains("layout"));

        // And reset clears them with everything else.
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn qualified_kernel_matches_record_kernel_keys() {
        let m = Metrics::default();
        assert_eq!(m.qualified_kernel("bare"), "bare");
        let _s = m.span("step");
        let _d = m.span("dycore");
        assert_eq!(m.qualified_kernel("flux"), "step/dycore/flux");
    }
}
