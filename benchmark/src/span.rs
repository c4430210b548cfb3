//! The benchmark's own spans: recorded around each call *into* a layer, from
//! outside, kept in memory, written out when the run ends.
//!
//! A [`Lane`] is one thread's span stack. Lanes of one run share an epoch
//! `Instant`, so spans from the generator, the collector and both ranks sit
//! on one time axis in `trace_<workload>.json`. A disabled lane costs one
//! branch per call, which is what lets the untraced and the traced pass run
//! the same driving code where a workload needs no replay.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::time::Instant;
use sunway_sim::Json;

/// One closed span. `parent` indexes the same lane's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub block: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Lane::enter`]; `None` on a disabled lane.
#[must_use = "an entered span must be exited"]
pub struct Open(Option<usize>);

pub struct Lane {
    epoch: Instant,
    enabled: bool,
    block: u32,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Lane {
    pub fn new(epoch: Instant, enabled: bool) -> Lane {
        Lane {
            epoch,
            enabled,
            block: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag every span entered from here on with `block`.
    pub fn set_block(&mut self, block: u32) {
        self.block = block;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            block: self.block,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time one leaf call into a layer.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Record a span whose endpoints were stamped elsewhere (the collector
    /// stamps answers; the latency span starts at the *due* time, which no
    /// thread was executing at).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent: None,
            block: self.block,
        });
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between blocks (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled a lane inside an open span");
        self.enabled = enabled;
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        assert!(self.open.is_empty(), "lane finished with open spans");
        self.spans
    }
}

/// Self time of every span of one lane: its duration minus the part of that
/// interval its direct children cover (children of one lane never overlap).
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanRec::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Spans of blocks `>= first` (block 0 is warm-up), parents re-indexed into
/// the retained list.
pub fn retain_blocks(spans: &[SpanRec], first: u32) -> Vec<SpanRec> {
    let mut new_index = vec![None; spans.len()];
    let mut kept = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.block >= first {
            new_index[i] = Some(kept.len());
            kept.push(s.clone());
        }
    }
    for s in &mut kept {
        s.parent = s.parent.and_then(|p| new_index[p]);
    }
    kept
}

/// Per-name roll-up of one lane.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durs_ms: Vec<f64>,
}

impl LayerTime {
    pub fn p50_ms(&self) -> f64 {
        if self.durs_ms.is_empty() {
            0.0
        } else {
            crate::stats::median(&self.durs_ms)
        }
    }
}

pub fn by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerTime> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += own_ns;
        e.durs_ms.push(s.dur_ns() as f64 / 1e6);
    }
    out
}

/// The layer table of one lane as JSON: per name, calls, self time, its
/// share of `wall_ns`, and the call-duration summary.
pub fn layer_table_json(table: &BTreeMap<&'static str, LayerTime>, wall_ns: u64) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("calls".into(), Json::Num(t.calls as f64)),
                        ("self_ms".into(), Json::Num(t.self_ns as f64 / 1e6)),
                        (
                            "share".into(),
                            Json::Num(t.self_ns as f64 / wall_ns.max(1) as f64),
                        ),
                        ("call_ms".into(), Summary::of(&t.durs_ms).to_json()),
                    ]),
                )
            })
            .collect(),
    )
}

/// `trace_<workload>.json`: every span of every lane, flat.
pub fn trace_json(workload: &str, lanes: &[(&str, Vec<SpanRec>)]) -> Json {
    let mut spans = Vec::new();
    for (lane, recs) in lanes {
        for (id, s) in recs.iter().enumerate() {
            spans.push(Json::Obj(vec![
                ("lane".into(), Json::Str((*lane).into())),
                ("id".into(), Json::Num(id as f64)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("workload".into(), Json::Str(workload.into())),
                ("block".into(), Json::Num(f64::from(s.block))),
            ]));
        }
    }
    Json::Obj(vec![
        (
            "schema".into(),
            Json::Str("grist-benchmark-trace-v1".into()),
        ),
        ("workload".into(), Json::Str(workload.into())),
        ("spans".into(), Json::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            block: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // block [0,100) > step [10,40) > kernel [15,25); block > scan [50,70)
        let spans = vec![
            rec("block", 0, 100, None),
            rec("step", 10, 40, Some(0)),
            rec("kernel", 15, 25, Some(1)),
            rec("scan", 50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        let table = by_name(&spans);
        let total_self: u64 = table.values().map(|t| t.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
        assert_eq!(table["step"].total_ns, 30);
        assert_eq!(table["step"].self_ns, 20);
    }

    #[test]
    fn lane_nests_spans_and_a_disabled_lane_records_nothing() {
        let mut lane = Lane::new(Instant::now(), true);
        lane.set_block(3);
        let outer = lane.enter("block");
        let v = lane.time("leaf", || 7);
        lane.exit(outer);
        assert_eq!(v, 7);
        let spans = lane.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].block, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Lane::new(Instant::now(), false);
        let o = off.enter("block");
        assert_eq!(off.time("leaf", || 1), 1);
        off.exit(o);
        assert!(off.into_spans().is_empty());
    }
}
