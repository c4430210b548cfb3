//! Workloads 4 and 5: the forecast serving path, `ForecastServer::start`
//! (no telemetry plane) over one worker with `max_batch = 32`.
//!
//! * `serve_steady` — one epoch published, so after warm-up every answer is
//!   a cache hit: only queue, wake-up, batch assembly and reply are timed.
//! * `serve_churn` — the generator republishes both members every 200 ms
//!   (cycling eight captured views under fresh, increasing epochs), so each
//!   publish forces restore + hash-verify + `extract_columns` on the request
//!   path and an all-miss cache: batched GEMM and checkpoint reads dominate.
//!
//! Each run has an **open-loop** phase (independent users: queries are due
//! on a fixed 2000/s schedule whatever the server does, latency runs from the
//! due time, and how late the generator itself ran is reported) and a
//! **closed-loop** phase (64 outstanding, the next query is sent when the
//! oldest is answered: saturation throughput). The op is one query.
//!
//! Every response is checked against what the benchmark itself published;
//! one scalar answer in 64 is compared bitwise with a reference table built
//! in set-up by a private single-threaded engine over the eight views.

use crate::common::{ms, repeat_setup, time_calls_ms, Outcome, Params, Rng, Size};
use crate::openloop::{self, Target};
use crate::span::{by_name, layer_table_json, Lane, SpanRec};
use crate::stats::{self, median, percentile, samples_beyond};
use grist_core::{extract_columns, GristModel, RunConfig};
use grist_serve::{
    default_suite, EpochView, ForecastServer, PendingResponse, Product, ProductData, Query,
    QueryEngine, Response, Select, ServeConfig, ServeError, SnapshotStore,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sunway_sim::{Json, Substrate};

const FULL_SIZE: Size = Size { level: 3, nlev: 20 };
const MEMBERS: usize = 2;
const VIEWS: usize = 8;
const BASE_RATE_QPS: f64 = 2000.0;
const EXTRA_RATES_QPS: [f64; 2] = [8000.0, 32000.0];
const OUTSTANDING: usize = 64;
const PUBLISH_EVERY: Duration = Duration::from_millis(200);
/// Open- and closed-loop block: two publish periods.
const BLOCK: Duration = Duration::from_millis(400);
const DEEP_CHECK_EVERY: usize = 64;
const QUERY_POOL: usize = 1 << 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Churn,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Steady => "serve_steady",
            Kind::Churn => "serve_churn",
        }
    }

    /// p99 limit a rate must meet to count as sustained.
    fn p99_limit_ms(self) -> f64 {
        match self {
            Kind::Steady => 5.0,
            Kind::Churn => 25.0,
        }
    }
}

/// Reference answers of one member at one view, per cell.
struct RefAnswers {
    t2m: Vec<f64>,
    precip: Vec<f64>,
}

/// Everything built before the first timed query.
struct Fixture {
    cfg: RunConfig,
    views: Vec<Vec<EpochView>>,
    reference: Vec<Vec<RefAnswers>>,
    store: Arc<SnapshotStore>,
    engine: Arc<QueryEngine<f64>>,
    server: ForecastServer,
    queries: Vec<Query>,
    /// Publish rounds so far; round `r` published epoch `r` of both members.
    round: u64,
    /// Next query of the pool to send.
    cursor: usize,
    /// `serve_churn`: when the next publish round is due.
    next_publish: Option<Instant>,
}

fn engine_for(store: &Arc<SnapshotStore>, cfg: &RunConfig) -> QueryEngine<f64> {
    QueryEngine::new(
        Arc::clone(store),
        cfg.clone(),
        Substrate::serial(),
        default_suite(cfg.nlev),
    )
}

/// Member `member`'s eight views: the control (member 0) or a member nudged
/// by a seeded 1e-5 relative `theta_m` noise, captured every two dyn steps.
fn capture_views(
    cfg: &RunConfig,
    member: usize,
    seed: u64,
) -> (Vec<EpochView>, Vec<f64>, Vec<f64>) {
    let mut model = GristModel::<f64>::new(cfg.clone());
    if member > 0 {
        let mut rng = Rng::new(seed ^ (member as u64) << 32);
        let ncells = model.state.theta_m.ncols();
        for k in 0..cfg.nlev {
            for c in 0..ncells {
                let v = model.state.theta_m.at(k, c);
                model
                    .state
                    .theta_m
                    .set(k, c, v * (1.0 + 1e-5 * (2.0 * rng.unit() - 1.0)));
            }
        }
    }
    let views = (0..VIEWS)
        .map(|_| {
            model.advance(2.0 * cfg.dt_dyn);
            EpochView {
                member,
                epoch: 0, // stamped at publish time
                state_hash: model.state_hash(),
                checkpoint: model.checkpoint(),
            }
        })
        .collect();
    (views, model.lats.clone(), model.lons.clone())
}

/// The seeded traffic mix: 70 % `Cell`, 25 % `Point`, 5 % 15°×15° `Region`;
/// 10 % `ColumnState`, 50 % `T2m`, 40 % `Precip`; members uniform. Regions
/// that select no cell are redrawn, so no query can fail by construction.
fn make_queries(seed: u64, lats: &[f64], lons: &[f64]) -> Vec<Query> {
    let mut rng = Rng::new(seed);
    let half = 7.5f64.to_radians();
    let pi = std::f64::consts::PI;
    (0..QUERY_POOL)
        .map(|_| {
            let member = rng.below(MEMBERS);
            let product = match rng.unit() {
                u if u < 0.10 => Product::ColumnState,
                u if u < 0.60 => Product::T2m,
                _ => Product::Precip,
            };
            let select = match rng.unit() {
                u if u < 0.70 => Select::Cell(rng.below(lats.len())),
                u if u < 0.95 => Select::Point {
                    lat: (2.0 * rng.unit() - 1.0).asin(),
                    lon: pi * (2.0 * rng.unit() - 1.0),
                },
                _ => loop {
                    let lat0 = 60f64.to_radians() * (2.0 * rng.unit() - 1.0);
                    let lon0 = (pi - half) * (2.0 * rng.unit() - 1.0);
                    let (lat, lon) = ((lat0 - half, lat0 + half), (lon0 - half, lon0 + half));
                    let hit = lats
                        .iter()
                        .zip(lons)
                        .any(|(&la, &lo)| la >= lat.0 && la <= lat.1 && lo >= lon.0 && lo <= lon.1);
                    if hit {
                        break Select::Region { lat, lon };
                    }
                },
            };
            Query {
                member,
                select,
                product,
            }
        })
        .collect()
}

fn scalars(r: Result<Response, ServeError>) -> Vec<f64> {
    match r.expect("reference engine answers").data {
        ProductData::Scalars(v) => v,
        ProductData::Columns(_) => panic!("reference query returned columns"),
    }
}

/// The reference table: a private engine on this thread serves every cell's
/// `T2m` and `Precip` at each of the eight views.
fn build_reference(cfg: &RunConfig, views: &[Vec<EpochView>]) -> Vec<Vec<RefAnswers>> {
    let store = Arc::new(SnapshotStore::new(MEMBERS, 2));
    let engine = engine_for(&store, cfg);
    let mut table: Vec<Vec<RefAnswers>> = (0..MEMBERS).map(|_| Vec::new()).collect();
    for v in 0..VIEWS {
        for (member, member_views) in views.iter().enumerate() {
            store.publish(EpochView {
                epoch: v as u64 + 1,
                ..member_views[v].clone()
            });
            let all = |product| -> Vec<Query> {
                (0..engine.n_cells())
                    .map(|c| Query::cell(member, c, product))
                    .collect()
            };
            let flat = |product| -> Vec<f64> {
                engine
                    .serve_batch(&all(product))
                    .into_iter()
                    .flat_map(scalars)
                    .collect()
            };
            table[member].push(RefAnswers {
                t2m: flat(Product::T2m),
                precip: flat(Product::Precip),
            });
        }
    }
    table
}

impl Fixture {
    fn build(p: &Params) -> Fixture {
        let size = p.size(FULL_SIZE);
        let cfg = RunConfig::for_level(size.level, size.nlev);
        let mut views = Vec::new();
        let (mut lats, mut lons) = (Vec::new(), Vec::new());
        for member in 0..MEMBERS {
            let (v, la, lo) = capture_views(&cfg, member, p.seed);
            views.push(v);
            (lats, lons) = (la, lo);
        }
        let mut reference = build_reference(&cfg, &views);
        if p.corrupt_reference {
            for member in &mut reference {
                for r in member.iter_mut() {
                    r.t2m.iter_mut().for_each(|x| *x += 1.0);
                }
            }
        }
        let store = Arc::new(SnapshotStore::new(MEMBERS, 2));
        let engine = Arc::new(engine_for(&store, &cfg));
        let server = ForecastServer::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 1,
                max_batch: 32,
            },
        );
        let mut fx = Fixture {
            cfg,
            queries: make_queries(p.seed, &lats, &lons),
            views,
            reference,
            store,
            engine,
            server,
            round: 0,
            cursor: 0,
            next_publish: None,
        };
        fx.publish_round(&mut Lane::new(Instant::now(), false));
        fx
    }

    /// Publish the next view of every member under a fresh epoch.
    fn publish_round(&mut self, lane: &mut Lane) {
        self.round += 1;
        for member_views in &self.views {
            let src = &member_views[(self.round as usize - 1) % VIEWS];
            let view = lane.time("core.checkpoint_clone", || EpochView {
                epoch: self.round,
                ..src.clone()
            });
            lane.time("serve.publish", || self.store.publish(view));
        }
    }

    /// `serve_churn`'s publisher, run by whichever thread generates load:
    /// one round every `PUBLISH_EVERY`, the schedule restarting after a gap
    /// between phases instead of bursting to catch up.
    fn publish_if_due(&mut self, now: Instant, lane: &mut Lane) {
        match self.next_publish {
            Some(next) if now < next => {}
            Some(next) => {
                self.publish_round(lane);
                let on_schedule = next + PUBLISH_EVERY;
                self.next_publish = Some(if on_schedule > now {
                    on_schedule
                } else {
                    now + PUBLISH_EVERY
                });
            }
            None => self.next_publish = Some(now + PUBLISH_EVERY),
        }
    }

    fn next_query(&mut self) -> (usize, Query) {
        let i = self.cursor % self.queries.len();
        self.cursor += 1;
        (i, self.queries[i].clone())
    }

    /// Is `resp` the right answer to query `qi`? `deep` adds the bitwise
    /// comparison with the reference table.
    fn verify(&self, qi: usize, resp: &Result<Response, ServeError>, deep: bool) -> bool {
        let (q, Ok(r)) = (&self.queries[qi], resp) else {
            return false;
        };
        if r.member != q.member || r.epoch == 0 || r.epoch > self.round {
            return false;
        }
        let v = (r.epoch as usize - 1) % VIEWS;
        if r.state_hash != self.views[r.member][v].state_hash || r.cells.is_empty() {
            return false;
        }
        if let Select::Cell(c) = q.select {
            if r.cells != [c] {
                return false;
            }
        }
        let reference = &self.reference[r.member][v];
        match (&r.data, q.product) {
            (ProductData::Columns(cols), Product::ColumnState) => {
                cols.len() == r.cells.len() && cols.iter().all(|c| c.t.len() == self.cfg.nlev)
            }
            (ProductData::Scalars(vals), Product::T2m | Product::Precip) => {
                let want = if q.product == Product::T2m {
                    &reference.t2m
                } else {
                    &reference.precip
                };
                vals.len() == r.cells.len()
                    && (!deep
                        || vals
                            .iter()
                            .zip(&r.cells)
                            .all(|(x, &c)| x.to_bits() == want[c].to_bits()))
            }
            _ => false,
        }
    }

    fn counters(&self) -> Counters {
        let m = self.engine.substrate().metrics();
        Counters {
            queries: m.counter("serve.queries"),
            batches: m.counter("serve.batches"),
            hits: m.counter("serve.cache.hits"),
            misses: m.counter("serve.cache.misses"),
            restores: m.counter("serve.view.restores"),
            ml_cells: m.counter("serve.ml.cells"),
        }
    }
}

/// The engine's own `serve.*` counters (always on; the benchmark reads them,
/// it does not add any).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    queries: u64,
    batches: u64,
    hits: u64,
    misses: u64,
    restores: u64,
    ml_cells: u64,
}

impl Counters {
    fn since(self, earlier: Counters) -> Counters {
        Counters {
            queries: self.queries - earlier.queries,
            batches: self.batches - earlier.batches,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            restores: self.restores - earlier.restores,
            ml_cells: self.ml_cells - earlier.ml_cells,
        }
    }

    fn batch_size_mean(self) -> f64 {
        self.queries as f64 / self.batches.max(1) as f64
    }

    fn hit_ratio(self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("queries".into(), Json::Num(self.queries as f64)),
            ("batches".into(), Json::Num(self.batches as f64)),
            ("batch_size_mean".into(), Json::Num(self.batch_size_mean())),
            ("cache_hit_ratio".into(), Json::Num(self.hit_ratio())),
            ("view_restores".into(), Json::Num(self.restores as f64)),
            ("ml_cells".into(), Json::Num(self.ml_cells as f64)),
        ])
    }
}

/// What one open-loop block measured.
#[derive(Default)]
struct OpenBlock {
    lat_ms: Vec<f64>,
    late_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    gen_spans: Vec<SpanRec>,
    col_spans: Vec<SpanRec>,
}

/// The measured server as an open-loop target: the generator thread submits
/// the seeded mix and, on `serve_churn`, republishes every 200 ms.
struct OpenTarget<'a> {
    fx: &'a mut Fixture,
    kind: Kind,
    /// Pool index of each query sent, in order.
    sent: Vec<usize>,
}

impl Target for OpenTarget<'_> {
    type Pending = Result<PendingResponse, ServeError>;
    type Answer = Result<Response, ServeError>;

    fn before(&mut self, due: Instant, lane: &mut Lane) {
        if self.kind == Kind::Churn {
            self.fx.publish_if_due(due, lane);
        }
    }

    fn submit(&mut self, _i: usize, lane: &mut Lane) -> Self::Pending {
        let (qi, q) = self.fx.next_query();
        self.sent.push(qi);
        lane.time("serve.submit", || self.fx.server.submit(q))
    }

    fn wait(pending: Self::Pending) -> Self::Answer {
        pending.and_then(PendingResponse::wait)
    }
}

/// One open-loop block at `rate_qps`. Responses are verified after the
/// block, off the clock.
fn open_loop(
    fx: &mut Fixture,
    kind: Kind,
    rate_qps: f64,
    duration: Duration,
    epoch: Instant,
    traced: bool,
    block: u32,
) -> OpenBlock {
    let n = (rate_qps * duration.as_secs_f64()).round() as usize;
    let mut target = OpenTarget {
        fx,
        kind,
        sent: Vec::with_capacity(n),
    };
    let blk = openloop::run(&mut target, n, rate_qps, epoch, traced, block);
    let OpenTarget { fx, sent, .. } = target;
    let mut out = OpenBlock {
        late_us: blk.late_us,
        gen_spans: blk.gen_spans,
        col_spans: blk.col_spans,
        ..OpenBlock::default()
    };
    for (k, (a, qi)) in blk.answered.iter().zip(sent).enumerate() {
        out.attempted += 1;
        if !fx.verify(qi, &a.answer, k.is_multiple_of(DEEP_CHECK_EVERY)) {
            out.failed += 1;
        }
        out.lat_ms.push(a.latency_ms());
    }
    out
}

/// What the closed-loop phase measured.
#[derive(Default)]
struct Closed {
    /// Answers per second in each full block.
    block_qps: Vec<f64>,
    /// Answers per second over the whole phase.
    total_qps: f64,
    attempted: u64,
    failed: u64,
}

/// When a closed-loop phase ends.
enum Until {
    Elapsed(Duration),
    Answered(usize),
}

/// 64 outstanding queries from one client thread: the next query goes out
/// when the oldest is answered. A block is `block_len` of wall time — two
/// publish periods, so on `serve_churn` every block holds the same number of
/// publishes. Verification runs inline: the client is not the bottleneck.
fn closed_loop(fx: &mut Fixture, kind: Kind, until: Until, block_len: Duration) -> Closed {
    let mut out = Closed::default();
    let mut lane = Lane::new(Instant::now(), false);
    let mut inflight: VecDeque<(usize, Result<PendingResponse, ServeError>)> = VecDeque::new();
    let send = |fx: &mut Fixture, inflight: &mut VecDeque<_>| {
        let (qi, q) = fx.next_query();
        inflight.push_back((qi, fx.server.submit(q)));
    };
    for _ in 0..OUTSTANDING {
        send(fx, &mut inflight);
    }
    let t_run = Instant::now();
    let (mut block_start, mut in_block) = (t_run, 0u64);
    loop {
        let (qi, pending) = inflight.pop_front().expect("window is never empty");
        let resp = pending.and_then(PendingResponse::wait);
        out.attempted += 1;
        if !fx.verify(
            qi,
            &resp,
            (out.attempted as usize).is_multiple_of(DEEP_CHECK_EVERY),
        ) {
            out.failed += 1;
        }
        let now = Instant::now();
        in_block += 1;
        if now - block_start >= block_len {
            out.block_qps
                .push(in_block as f64 / (now - block_start).as_secs_f64());
            (block_start, in_block) = (now, 0);
        }
        let done = match until {
            Until::Elapsed(d) => now - t_run >= d && !out.block_qps.is_empty(),
            Until::Answered(n) => out.attempted as usize >= n,
        };
        if done {
            out.total_qps = out.attempted as f64 / (now - t_run).as_secs_f64();
            break;
        }
        if kind == Kind::Churn {
            fx.publish_if_due(now, &mut lane);
        }
        send(fx, &mut inflight);
    }
    for (qi, pending) in inflight {
        let resp = pending.and_then(PendingResponse::wait);
        out.attempted += 1;
        if !fx.verify(qi, &resp, false) {
            out.failed += 1;
        }
    }
    out
}

fn block_len(p: &Params) -> Duration {
    if p.smoke {
        Duration::from_millis(50)
    } else {
        BLOCK
    }
}

/// Prime and warm the server (untimed, after `setup_s`).
fn warm_up(kind: Kind, p: &Params, fx: &mut Fixture) {
    // Prime: one whole-globe query per member derives every cell once, so on
    // `serve_steady` no timed query misses the cache.
    for member in 0..MEMBERS {
        let globe = Query {
            member,
            select: Select::Region {
                lat: (-2.0, 2.0),
                lon: (-4.0, 4.0),
            },
            product: Product::T2m,
        };
        let primed = fx.server.submit(globe).and_then(PendingResponse::wait);
        assert!(primed.is_ok(), "priming query failed: {primed:?}");
    }
    // Then the real mix: scratch arenas, queue, reply channels.
    let n = if p.smoke { 100 } else { 2000 };
    let warm = closed_loop(fx, kind, Until::Answered(n), block_len(p));
    assert!(
        warm.failed == 0 || p.corrupt_reference,
        "{} warm-up queries failed verification",
        warm.failed
    );
}

pub fn run(kind: Kind, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is views, reference answers, store, engine and server; three
    // repeats, because each costs most of a second.
    let (mut fx, setup_s, setup_times) = repeat_setup(p.setup_reps().min(3), || Fixture::build(p));
    warm_up(kind, p, &mut fx);
    let epoch = Instant::now();
    if p.traced {
        traced(kind, p, &mut fx, epoch, &mut out);
        return out;
    }

    // --- open loop: 60 % of the budget ---
    let block_len = block_len(p);
    let open_blocks = ((p.seconds * 0.6 / block_len.as_secs_f64()).round() as usize).max(1);
    let before = fx.counters();
    let (mut lat_ms, mut late_us, mut block_p50, mut block_p99) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for b in 0..open_blocks {
        let blk = open_loop(
            &mut fx,
            kind,
            BASE_RATE_QPS,
            block_len,
            epoch,
            false,
            b as u32 + 1,
        );
        out.count(blk.attempted, blk.failed);
        block_p50.push(median(&blk.lat_ms));
        block_p99.push(percentile(&blk.lat_ms, 0.99));
        lat_ms.extend(blk.lat_ms);
        late_us.extend(blk.late_us);
    }
    let open_counters = fx.counters().since(before);

    // --- closed loop: the remaining 40 % ---
    let before = fx.counters();
    let closed = closed_loop(
        &mut fx,
        kind,
        Until::Elapsed(Duration::from_secs_f64(p.seconds * 0.4)),
        block_len,
    );
    out.count(closed.attempted, closed.failed);
    let closed_counters = fx.counters().since(before);
    check_no_failures(&mut out);

    // Blocks are equal work and interference only slows a block, so both
    // numbers come from the quiet end of the blocks: throughput from the
    // best closed-loop block, latency from the lower quartile of the
    // open-loop blocks' median latencies (README, "Estimators").
    out.metric("rate_per_s", stats::max(&closed.block_qps));
    out.metric("op_ms", percentile(&block_p50, 0.25));
    out.metric("setup_s", setup_s);
    out.summary("op_ms", &lat_ms);
    out.detail("op_p50_pooled_ms", Json::Num(median(&lat_ms)));
    out.detail("op_p99_ms", Json::Num(percentile(&lat_ms, 0.99)));
    out.detail(
        "op_p99_samples_beyond",
        Json::Num(samples_beyond(lat_ms.len(), 0.99) as f64),
    );
    out.detail("closed_total_qps", Json::Num(closed.total_qps));
    out.summary("open_block_p50_ms", &block_p50);
    out.summary("open_block_p99_ms", &block_p99);
    out.summary("closed_block_qps", &closed.block_qps);
    out.summary("gen_late_us", &late_us);
    out.detail("gen_late_us_p99", Json::Num(percentile(&late_us, 0.99)));
    out.summary("setup_s", &setup_times);
    out.detail("open_loop_counters", open_counters.to_json());
    out.detail("closed_loop_counters", closed_counters.to_json());
    out.detail("publish_rounds", Json::Num(fx.round as f64));
    out
}

/// Direct probes of the engine, the server front-end and the checkpoint
/// read path, on a private store so the measured server is left alone.
#[derive(Default)]
struct Probes {
    publish_us: Vec<f64>,
    clone_ms: Vec<f64>,
    epoch_sync_ms: Vec<f64>,
    miss_batch_us: Vec<f64>,
    hit_batch_us: Vec<f64>,
    direct_us: Vec<f64>,
    lone_us: Vec<f64>,
    restore_ms: Vec<f64>,
    hash_ms: Vec<f64>,
    extract_ms: Vec<f64>,
}

fn probe(fx: &Fixture, p: &Params) -> Probes {
    let rounds = if p.smoke { 3 } else { 16 };
    let reps = if p.smoke { 50 } else { 2000 };
    let store = Arc::new(SnapshotStore::new(MEMBERS, 2));
    let engine = Arc::new(engine_for(&store, &fx.cfg));
    let batch: Vec<Query> = (0..32)
        .map(|i| Query::cell(0, (i * 7) % engine.n_cells(), Product::T2m))
        .collect();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let mut pr = Probes::default();
    for r in 0..rounds {
        let src = &fx.views[0][r % VIEWS];
        let t = Instant::now();
        let view = EpochView {
            epoch: r as u64 + 1,
            ..src.clone()
        };
        pr.clone_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        store.publish(view);
        pr.publish_us.push(us(t));
        // First query after a publish: restore + hash-verify + extract.
        let t = Instant::now();
        let first = engine.serve_batch(&[Query::cell(0, 0, Product::ColumnState)]);
        pr.epoch_sync_ms.push(ms(t.elapsed()));
        assert!(first[0].is_ok(), "probe engine refused a view");
        let t = Instant::now();
        std::hint::black_box(engine.serve_batch(&batch));
        pr.miss_batch_us.push(us(t));
        for _ in 0..8 {
            let t = Instant::now();
            std::hint::black_box(engine.serve_batch(&batch));
            pr.hit_batch_us.push(us(t));
        }
    }
    let one = [batch[0].clone()];
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(engine.serve_batch(&one));
        pr.direct_us.push(us(t));
    }
    let server = ForecastServer::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 1,
            max_batch: 32,
        },
    );
    for _ in 0..reps {
        let t = Instant::now();
        let r = server
            .submit(one[0].clone())
            .and_then(PendingResponse::wait);
        pr.lone_us.push(us(t));
        assert!(r.is_ok(), "probe server failed a lone query");
    }
    server.shutdown();

    let mut model = GristModel::<f64>::new(fx.cfg.clone());
    let n = if p.smoke { 2 } else { VIEWS };
    for v in 0..n {
        let ck = &fx.views[0][v].checkpoint;
        let t = Instant::now();
        model.restore(ck).expect("view restores");
        pr.restore_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(model.state_hash());
        pr.hash_ms.push(ms(t.elapsed()));
    }
    pr.extract_ms = time_calls_ms(n, || {
        extract_columns(&mut model.solver, &model.state, &model.surface)
    });
    pr
}

/// The highest rate whose p99 met the limit with no backlog still growing at
/// the end of its run (the last tenth of the answers is no slower than the
/// limit at the median).
fn sustained(lat_ms: &[f64], limit_ms: f64) -> bool {
    let tail = &lat_ms[lat_ms.len() - (lat_ms.len() / 10).max(1)..];
    percentile(lat_ms, 0.99) <= limit_ms && median(tail) <= limit_ms
}

fn traced(kind: Kind, p: &Params, fx: &mut Fixture, epoch: Instant, out: &mut Outcome) {
    let block_len = block_len(p);

    // --- base rate, blocks alternating untraced / traced (40 % of budget) ---
    let n_blocks = (((p.seconds * 0.4 / block_len.as_secs_f64()).round() as usize) & !1).max(2);
    let before = fx.counters();
    let before_round = fx.round;
    let (mut lat_ms, mut late_us) = (Vec::new(), Vec::new());
    let (mut p50_on, mut p50_off) = (Vec::new(), Vec::new());
    let (mut gen_spans, mut col_spans) = (Vec::new(), Vec::new());
    for b in 0..n_blocks {
        let on = b % 2 == 1;
        let blk = open_loop(fx, kind, BASE_RATE_QPS, block_len, epoch, on, b as u32 + 1);
        out.count(blk.attempted, blk.failed);
        if on { &mut p50_on } else { &mut p50_off }.push(median(&blk.lat_ms));
        if on {
            append_spans(&mut gen_spans, blk.gen_spans);
            append_spans(&mut col_spans, blk.col_spans);
            lat_ms.extend(blk.lat_ms);
            late_us.extend(blk.late_us);
        }
    }
    let open_counters = fx.counters().since(before);
    let publishes = (fx.round - before_round) as f64;

    // --- the extra rates: latency must rise before saturation is reached ---
    let extra_len = if p.smoke {
        Duration::from_millis(50)
    } else {
        Duration::from_secs_f64(p.seconds * 0.1)
    };
    let mut rate_ok = if sustained(&lat_ms, kind.p99_limit_ms()) {
        BASE_RATE_QPS
    } else {
        0.0
    };
    let mut extra_p99 = Vec::new();
    for rate in EXTRA_RATES_QPS {
        let blk = open_loop(fx, kind, rate, extra_len, epoch, false, 0);
        out.count(blk.attempted, blk.failed);
        extra_p99.push(percentile(&blk.lat_ms, 0.99));
        if rate_ok > 0.0 && sustained(&blk.lat_ms, kind.p99_limit_ms()) {
            rate_ok = rate;
        }
        out.summary(&format!("open_r{rate}_lat_ms"), &blk.lat_ms);
        out.detail(
            &format!("open_r{rate}_gen_late_us_p99"),
            Json::Num(percentile(&blk.late_us, 0.99)),
        );
    }

    // --- closed loop, briefly, for the saturation counters ---
    let before = fx.counters();
    let closed = closed_loop(
        fx,
        kind,
        Until::Elapsed(Duration::from_secs_f64(p.seconds * 0.1)),
        block_len,
    );
    out.count(closed.attempted, closed.failed);
    let closed_counters = fx.counters().since(before);
    check_no_failures(out);

    let pr = probe(fx, p);

    let gen_table = by_name(&gen_spans);
    let wall_ns = gen_table.get("block").map_or(1, |b| b.total_ns);
    let publish_p50_us = match kind {
        Kind::Churn => gen_table
            .get("serve.publish")
            .map_or(0.0, |t| t.p50_ms() * 1e3),
        Kind::Steady => 0.0,
    };
    out.metric("core.ckpt_restore_ms_p50", median(&pr.restore_ms));
    out.metric("core.state_hash_ms_p50", median(&pr.hash_ms));
    out.metric("core.ckpt_clone_ms_p50", median(&pr.clone_ms));
    out.metric("core.extract_columns_ms_p50", median(&pr.extract_ms));
    out.metric(
        "core.ckpt_bytes",
        fx.views[0][0].checkpoint.byte_len() as f64,
    );
    out.metric("serve.publish_us_p50", publish_p50_us);
    out.metric("serve.publish_probe_us_p50", median(&pr.publish_us));
    out.metric("serve.engine_hit_batch_us_p50", median(&pr.hit_batch_us));
    out.metric("serve.engine_miss_batch_us_p50", median(&pr.miss_batch_us));
    out.metric("serve.epoch_sync_ms_p50", median(&pr.epoch_sync_ms));
    out.metric(
        "serve.server_overhead_us_p50",
        median(&pr.lone_us) - median(&pr.direct_us),
    );
    out.metric(
        "serve.submit_us_p50",
        gen_table
            .get("serve.submit")
            .map_or(0.0, |t| t.p50_ms() * 1e3),
    );
    out.metric("serve.batch_size_mean", open_counters.batch_size_mean());
    out.metric(
        "serve.batch_size_mean_sat",
        closed_counters.batch_size_mean(),
    );
    out.metric("serve.cache_hit_ratio", open_counters.hit_ratio());
    out.metric("serve.cache_hit_ratio_sat", closed_counters.hit_ratio());
    out.metric(
        "serve.view_restores_per_publish",
        if publishes > 0.0 {
            open_counters.restores as f64 / publishes
        } else {
            0.0
        },
    );
    out.metric(
        "serve.ml_cells_per_query",
        open_counters.ml_cells as f64 / open_counters.queries.max(1) as f64,
    );
    out.metric("serve.lat_p50_ms", median(&lat_ms));
    out.metric("serve.lat_p99_ms", percentile(&lat_ms, 0.99));
    out.metric("serve.lat_p99_ms.r8000", extra_p99[0]);
    out.metric("serve.lat_p99_ms.r32000", extra_p99[1]);
    out.metric("serve.rate_ok_qps", rate_ok);
    out.metric("serve.qps_sat", stats::max(&closed.block_qps));
    out.metric("serve.gen_late_us_p99", percentile(&late_us, 0.99));
    out.metric(
        "trace.other_pct",
        100.0 * gen_table.get("block").map_or(0.0, |b| b.self_ns as f64) / wall_ns as f64,
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&p50_on) / median(&p50_off) - 1.0),
    );

    out.summary("lat_ms", &lat_ms);
    out.summary("block_p50_ms_traced", &p50_on);
    out.summary("block_p50_ms_untraced", &p50_off);
    out.detail(
        "layer_table_generator",
        layer_table_json(&gen_table, wall_ns),
    );
    out.detail("open_loop_counters", open_counters.to_json());
    out.detail("closed_loop_counters", closed_counters.to_json());
    crate::write_trace(
        p,
        kind.name(),
        &[("generator", gen_spans), ("collector", col_spans)],
        out,
    );
}

fn check_no_failures(out: &mut Outcome) {
    let (failed, attempted) = (out.failed, out.attempted);
    out.check(failed == 0, || {
        format!("{failed} of {attempted} answers refused, failed or wrong")
    });
}

/// Append one block's spans to a lane's running list, shifting parents.
fn append_spans(all: &mut Vec<SpanRec>, mut block: Vec<SpanRec>) {
    let base = all.len();
    for s in &mut block {
        s.parent = s.parent.map(|p| p + base);
    }
    all.append(&mut block);
}
