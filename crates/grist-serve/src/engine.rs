//! The query engine: snapshot-backed serving replicas, the derived-product
//! cache, and the batched dispatch path.
//!
//! Each member gets a serving **replica** — a `GristModel` used purely as a
//! restore target. When a query arrives for a member whose replica is on an
//! older epoch than the store's latest view, the replica restores the view's
//! checkpoint (verifying `state_hash` — a mismatch means the view is not the
//! bit-exact captured state and the query is refused rather than answered
//! wrong), extracts physics columns once, and resets the derived-product
//! cache: **cache invalidation is the epoch key and nothing else**.
//!
//! Derived products (precip, t2m) run the full ML physics suite on the
//! queried columns. [`QueryEngine::serve_batch`] gathers every uncached
//! `(member, cell)` a batch of queries needs into *one*
//! [`MlSuite::step_columns`] call — the `ScratchPool`-backed batched
//! block dispatch — while [`QueryEngine::serve_one_percol`] is the
//! per-query reference path (one dispatch per column, bitwise-identical
//! results, no cross-query batching) that `grist gate serve` measures against.

use crate::{lock, store::SnapshotStore};
use grist_core::{extract_columns, GristModel, MlOutput, MlSuite, RunConfig};
use grist_dycore::Real;
use grist_physics::Column;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};
use sunway_sim::Substrate;

/// What a query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Product {
    /// Raw column state (profiles) at the snapshot epoch.
    ColumnState,
    /// 2 m air temperature, K: the lowest-level temperature blended with
    /// the ML-updated skin temperature.
    T2m,
    /// Surface precipitation rate, mm/day, from the ML physics suite.
    Precip,
}

/// Where a query looks.
#[derive(Debug, Clone, PartialEq)]
pub enum Select {
    /// One mesh cell by index.
    Cell(usize),
    /// Nearest cell to a lat/lon point (radians).
    Point { lat: f64, lon: f64 },
    /// Every cell inside an inclusive lat/lon box (radians; no wraparound).
    Region { lat: (f64, f64), lon: (f64, f64) },
}

/// A forecast query against one ensemble member's latest snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub member: usize,
    pub select: Select,
    pub product: Product,
}

impl Query {
    pub fn point(member: usize, lat: f64, lon: f64, product: Product) -> Self {
        Query {
            member,
            select: Select::Point { lat, lon },
            product,
        }
    }

    pub fn cell(member: usize, cell: usize, product: Product) -> Self {
        Query {
            member,
            select: Select::Cell(cell),
            product,
        }
    }
}

/// One cell's raw profiles (f64; working-precision fields widen losslessly).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnState {
    pub p: Vec<f64>,
    pub t: Vec<f64>,
    pub qv: Vec<f64>,
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    pub tskin: f64,
}

impl ColumnState {
    fn from_column(col: &Column) -> Self {
        ColumnState {
            p: col.p.clone(),
            t: col.t.clone(),
            qv: col.qv.clone(),
            u: col.u.clone(),
            v: col.v.clone(),
            tskin: col.tskin,
        }
    }
}

/// Cached derived products for one cell at one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derived {
    pub precip: f64,
    pub t2m: f64,
}

impl Derived {
    /// The value of scalar `product` (`T2m` or `Precip`).
    fn scalar(&self, product: Product) -> f64 {
        match product {
            Product::T2m => self.t2m,
            _ => self.precip,
        }
    }
}

/// The pinned derived-product convention. Public so the benchmark's
/// recompute-from-checkpoint verifier reproduces served values bit-exactly
/// instead of re-encoding the formula.
pub fn derive(col: &Column, out: &MlOutput) -> Derived {
    let nlev = col.t.len();
    Derived {
        precip: out.diag.precip,
        t2m: 0.5 * (col.t[nlev - 1] + out.diag.tskin),
    }
}

/// Per-cell payload of a response.
#[derive(Debug, Clone, PartialEq)]
pub enum ProductData {
    Columns(Vec<ColumnState>),
    Scalars(Vec<f64>),
}

/// The answer to one [`Query`], stamped with the snapshot it was served
/// from: `(epoch, state_hash)` must match exactly one published view — the
/// no-torn-reads property.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub member: usize,
    pub epoch: u64,
    pub state_hash: u64,
    pub cells: Vec<usize>,
    pub data: ProductData,
}

/// Why a query could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    UnknownMember {
        member: usize,
        n_members: usize,
    },
    UnknownCell {
        cell: usize,
        ncells: usize,
    },
    NoSnapshot {
        member: usize,
    },
    EmptyRegion,
    /// The view's checkpoint failed to restore into the serving replica.
    ViewRejected {
        member: usize,
        epoch: u64,
        what: String,
    },
    /// The restored replica does not hash to the view's `state_hash`.
    TornView {
        member: usize,
        epoch: u64,
        expected: u64,
        got: u64,
    },
    /// The server is shutting down and dropped the request.
    Disconnected,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownMember { member, n_members } => {
                write!(f, "unknown member {member} (ensemble has {n_members})")
            }
            ServeError::UnknownCell { cell, ncells } => {
                write!(f, "unknown cell {cell} (mesh has {ncells})")
            }
            ServeError::NoSnapshot { member } => {
                write!(f, "member {member} has not published a snapshot yet")
            }
            ServeError::EmptyRegion => write!(f, "region selects no cells"),
            ServeError::ViewRejected {
                member,
                epoch,
                what,
            } => {
                write!(f, "member {member} epoch {epoch}: view rejected: {what}")
            }
            ServeError::TornView {
                member,
                epoch,
                expected,
                got,
            } => write!(
                f,
                "member {member} epoch {epoch}: restored state hashes to \
                 {got:#x}, view published {expected:#x}"
            ),
            ServeError::Disconnected => write!(f, "server disconnected"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The pinned serving suite: every consumer (engine, benchmark verifier)
/// that builds from the same `nlev` gets bitwise-identical weights, which
/// is what makes "recompute from the source checkpoint" an exact check.
pub fn default_suite(nlev: usize) -> MlSuite {
    MlSuite::untrained(nlev, 16, 0x5e12)
}

/// One member's epoch: its columns and a fill-once derived slot per cell. A
/// batch holds the `Arc`, pinning its epoch even if the replica moves on; a
/// new epoch is a new `ViewCache`.
struct ViewCache {
    epoch: u64,
    state_hash: u64,
    columns: Arc<Vec<Column>>,
    derived: Vec<OnceLock<Derived>>,
}

impl ViewCache {
    fn new(epoch: u64, state_hash: u64, columns: Arc<Vec<Column>>) -> Arc<Self> {
        let derived = columns.iter().map(|_| OnceLock::new()).collect();
        Arc::new(ViewCache {
            epoch,
            state_hash,
            columns,
            derived,
        })
    }
}

struct Replica<R: Real> {
    model: GristModel<R>,
    cache: Option<Arc<ViewCache>>,
}

/// Snapshot-isolated query answering for every ensemble member.
pub struct QueryEngine<R: Real> {
    store: Arc<SnapshotStore>,
    suite: MlSuite,
    members: Vec<Mutex<Replica<R>>>,
    lats: Vec<f64>,
    lons: Vec<f64>,
    /// Unit vectors of the cell centres, built from `lats` / `lons`.
    xyz: [Vec<f64>; 3],
    sub: Substrate,
    cache_enabled: bool,
}

impl<R: Real> QueryEngine<R> {
    /// An engine serving `store`'s members, dispatching on `sub` (the
    /// engine's own substrate — serving cost never pollutes the
    /// simulation's metrics registry). `suite.nlev` must match the run.
    pub fn new(
        store: Arc<SnapshotStore>,
        config: RunConfig,
        sub: Substrate,
        mut suite: MlSuite,
    ) -> Self {
        assert_eq!(
            suite.nlev, config.nlev,
            "serving suite must match the run's vertical resolution"
        );
        suite.sub = sub.clone();
        let members: Vec<Mutex<Replica<R>>> = (0..store.n_members())
            .map(|_| {
                Mutex::new(Replica {
                    model: GristModel::<R>::with_substrate(config.clone(), sub.clone()),
                    cache: None,
                })
            })
            .collect();
        let (lats, lons) = {
            let rep = lock(&members[0]);
            (rep.model.lats.clone(), rep.model.lons.clone())
        };
        let xyz = [
            lats.iter()
                .zip(&lons)
                .map(|(la, lo)| la.cos() * lo.cos())
                .collect(),
            lats.iter()
                .zip(&lons)
                .map(|(la, lo)| la.cos() * lo.sin())
                .collect(),
            lats.iter().map(|la| la.sin()).collect(),
        ];
        QueryEngine {
            store,
            suite,
            members,
            lats,
            lons,
            xyz,
            sub,
            cache_enabled: true,
        }
    }

    /// Disable the derived-product cache (benchmark mode: every query pays
    /// the full dispatch, isolating batched-vs-per-query throughput).
    pub fn with_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// The engine's substrate (counters: `serve.queries`, `serve.batches`,
    /// `serve.view.restores`, `serve.cache.{hits,misses}`, `serve.ml.cells`;
    /// a [`ForecastServer`](crate::ForecastServer) on this engine adds the
    /// `serve.{queue_ns,latency_ns,batch_size}` histograms).
    pub fn substrate(&self) -> &Substrate {
        &self.sub
    }

    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    pub fn n_cells(&self) -> usize {
        self.lats.len()
    }

    /// Resolve a selector to concrete mesh cells.
    pub fn resolve(&self, select: &Select) -> Result<Vec<usize>, ServeError> {
        let ncells = self.lats.len();
        match *select {
            Select::Cell(cell) => {
                if cell < ncells {
                    Ok(vec![cell])
                } else {
                    Err(ServeError::UnknownCell { cell, ncells })
                }
            }
            Select::Point { lat, lon } => Ok(vec![self.nearest_cell(lat, lon)]),
            Select::Region { lat, lon } => {
                let cells: Vec<usize> = (0..ncells)
                    .filter(|&c| {
                        self.lats[c] >= lat.0
                            && self.lats[c] <= lat.1
                            && self.lons[c] >= lon.0
                            && self.lons[c] <= lon.1
                    })
                    .collect();
                if cells.is_empty() {
                    Err(ServeError::EmptyRegion)
                } else {
                    Ok(cells)
                }
            }
        }
    }

    /// The first cell with the largest `F_c = sin φ sin φ_c + cos φ cos φ_c
    /// cos(λ − λ_c)` (great-circle nearest). `F_c` is the unit vectors' dot
    /// product `D_c` to about 1e-15 plus the rounding of `λ − λ_c`, so ranking
    /// by `F` the cells within `margin` of the largest `D` returns the full
    /// scan's answer (DESIGN.md §12). NaN or ±∞ makes every cell a candidate.
    fn nearest_cell(&self, lat: f64, lon: f64) -> usize {
        let (sin_lat, cos_lat) = (lat.sin(), lat.cos());
        let q = [cos_lat * lon.cos(), cos_lat * lon.sin(), sin_lat];
        let [xs, ys, zs] = &self.xyz;
        let dot = |c: usize| q[0] * xs[c] + q[1] * ys[c] + q[2] * zs[c];
        let best_dot = (0..xs.len()).map(dot).fold(f64::NEG_INFINITY, f64::max);
        let margin = 1e-12 * (1.0 + lon.abs());
        let (mut best, mut best_cos) = (0usize, f64::NEG_INFINITY);
        for c in 0..xs.len() {
            if dot(c) < best_dot - margin {
                continue;
            }
            let cosang = sin_lat * self.lats[c].sin()
                + cos_lat * self.lats[c].cos() * (lon - self.lons[c]).cos();
            if cosang > best_cos {
                best_cos = cosang;
                best = c;
            }
        }
        best
    }

    /// Sync `member`'s replica to the store's latest view and return its
    /// cache, restoring (and re-extracting columns) only when the epoch moved.
    /// With the cache disabled each call gets a fresh private cache.
    fn view_cache(&self, member: usize) -> Result<Arc<ViewCache>, ServeError> {
        if member >= self.members.len() {
            return Err(ServeError::UnknownMember {
                member,
                n_members: self.members.len(),
            });
        }
        let view = self
            .store
            .latest(member)
            .ok_or(ServeError::NoSnapshot { member })?;
        let mut rep = lock(&self.members[member]);
        let cache = match rep.cache.as_ref().filter(|c| c.epoch == view.epoch) {
            Some(c) => Arc::clone(c),
            None => {
                rep.model
                    .restore(&view.checkpoint)
                    .map_err(|e| ServeError::ViewRejected {
                        member,
                        epoch: view.epoch,
                        what: e.to_string(),
                    })?;
                let got = rep.model.state_hash();
                if got != view.state_hash {
                    rep.cache = None;
                    return Err(ServeError::TornView {
                        member,
                        epoch: view.epoch,
                        expected: view.state_hash,
                        got,
                    });
                }
                let model = &mut rep.model;
                let cols = extract_columns(&mut model.solver, &model.state, &model.surface);
                let fresh = ViewCache::new(view.epoch, view.state_hash, Arc::new(cols));
                rep.cache = Some(Arc::clone(&fresh));
                self.sub.metrics().counter_add("serve.view.restores", 1);
                fresh
            }
        };
        if self.cache_enabled {
            return Ok(cache);
        }
        let private = ViewCache::new(cache.epoch, cache.state_hash, Arc::clone(&cache.columns));
        Ok(private)
    }

    /// Answer a batch of queries with **one** block-batched ML dispatch for
    /// every uncached derived cell across the whole batch. Results align
    /// with `queries`.
    ///
    /// Request-scoped flow IDs arrive through the caller's
    /// [`flow_scope`](sunway_sim::flow_scope) (the server installs one per
    /// batch, with the IDs its tracer minted at submit): each live ID
    /// gets a `FlowStep` on this worker's lane as the batch opens, and the
    /// same scope rides into every substrate dispatch under the batch,
    /// joining the served answer to its kernel spans in the Perfetto export.
    /// With tracing disabled or no scope installed nothing is recorded.
    pub fn serve_batch(&self, queries: &[Query]) -> Vec<Result<Response, ServeError>> {
        let _span = self.sub.span("serve");
        let m = self.sub.metrics();
        m.tracer().record_scoped_flows("request");
        m.counter_add("serve.batches", 1);
        m.counter_add("serve.queries", queries.len() as u64);

        // Resolve every query and sync each touched member once.
        let mut plans: BTreeMap<usize, Arc<ViewCache>> = BTreeMap::new();
        let mut resolved: Vec<Result<Vec<usize>, ServeError>> = Vec::with_capacity(queries.len());
        for q in queries {
            let r = (|| {
                if let std::collections::btree_map::Entry::Vacant(e) = plans.entry(q.member) {
                    e.insert(self.view_cache(q.member)?);
                }
                self.resolve(&q.select)
            })();
            resolved.push(r);
        }

        // Gather every uncached (member, cell) needing derived products.
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for (q, r) in queries.iter().zip(&resolved) {
            let (Ok(cells), true) = (r, q.product != Product::ColumnState) else {
                continue;
            };
            let plan = &plans[&q.member];
            for &cell in cells {
                if plan.derived[cell].get().is_some() {
                    hits += 1;
                } else if seen.insert((q.member, cell)) {
                    misses += 1;
                    jobs.push((q.member, cell));
                } else {
                    hits += 1; // another query in this batch already pays
                }
            }
        }
        m.counter_add("serve.cache.hits", hits);
        m.counter_add("serve.cache.misses", misses);

        // One batched dispatch for the whole batch's missing cells. A batch
        // that fills a slot first wrote the same bits (a column's ML output
        // does not depend on its block), so a refused `set` loses nothing.
        if !jobs.is_empty() {
            let cols: Vec<Column> = jobs
                .iter()
                .map(|&(mb, cell)| plans[&mb].columns[cell].clone())
                .collect();
            let outs = self.suite.step_columns(&cols);
            m.counter_add("serve.ml.cells", jobs.len() as u64);
            for ((&(mb, cell), col), out) in jobs.iter().zip(&cols).zip(&outs) {
                let _ = plans[&mb].derived[cell].set(derive(col, out));
            }
        }

        // Assemble responses from the epoch-pinned caches.
        queries
            .iter()
            .zip(resolved)
            .map(|(q, r)| {
                let cells = r?;
                let plan = &plans[&q.member];
                // Always set: each resolved scalar cell was a hit or a job above.
                let slot = |c: usize| plan.derived[c].get().expect("derived computed");
                let data = match q.product {
                    Product::ColumnState => ProductData::Columns(
                        cells
                            .iter()
                            .map(|&c| ColumnState::from_column(&plan.columns[c]))
                            .collect(),
                    ),
                    p => ProductData::Scalars(cells.iter().map(|&c| slot(c).scalar(p)).collect()),
                };
                Ok(Response {
                    member: q.member,
                    epoch: plan.epoch,
                    state_hash: plan.state_hash,
                    cells,
                    data,
                })
            })
            .collect()
    }

    /// The per-query reference path: same answers, one ML dispatch *per
    /// column* and no cross-query batching or caching. Kept because a gate
    /// consumes it: `grist gate serve` requires [`Self::serve_batch`] to be ≥2×
    /// faster than this path and bitwise equal to it.
    pub fn serve_one_percol(&self, q: &Query) -> Result<Response, ServeError> {
        let _span = self.sub.span("serve_percol");
        let m = self.sub.metrics();
        m.counter_add("serve.percol.queries", 1);
        let plan = self.view_cache(q.member)?;
        let cells = self.resolve(&q.select)?;
        let data = match q.product {
            Product::ColumnState => ProductData::Columns(
                cells
                    .iter()
                    .map(|&c| ColumnState::from_column(&plan.columns[c]))
                    .collect(),
            ),
            product => {
                let cols: Vec<Column> = cells.iter().map(|&c| plan.columns[c].clone()).collect();
                let outs = self.suite.step_columns_per_column(&cols);
                m.counter_add("serve.ml.cells", cols.len() as u64);
                ProductData::Scalars(
                    cols.iter()
                        .zip(&outs)
                        .map(|(col, out)| derive(col, out).scalar(product))
                        .collect(),
                )
            }
        };
        Ok(Response {
            member: q.member,
            epoch: plan.epoch,
            state_hash: plan.state_hash,
            cells,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EpochView;
    use grist_core::RunConfig;

    fn seeded_store(cfg: &RunConfig, members: usize) -> (Arc<SnapshotStore>, Vec<GristModel<f64>>) {
        let store = Arc::new(SnapshotStore::new(members, 4));
        let mut models = Vec::new();
        for mb in 0..members {
            let mut model = GristModel::<f64>::new(cfg.clone());
            for _ in 0..mb {
                model.advance(cfg.dt_phy); // members diverge in epoch too
            }
            store.publish(EpochView {
                member: mb,
                epoch: model.dyn_steps() as u64,
                state_hash: model.state_hash(),
                checkpoint: model.checkpoint(),
            });
            models.push(model);
        }
        (store, models)
    }

    fn engine(cfg: &RunConfig, store: Arc<SnapshotStore>) -> QueryEngine<f64> {
        QueryEngine::new(
            store,
            cfg.clone(),
            Substrate::serial(),
            default_suite(cfg.nlev),
        )
    }

    #[test]
    fn batched_and_percol_paths_agree_bitwise() {
        let cfg = RunConfig::for_level(2, 6);
        let (store, _models) = seeded_store(&cfg, 2);
        let eng = engine(&cfg, store);
        let queries: Vec<Query> = (0..12)
            .map(|i| {
                let product = match i % 3 {
                    0 => Product::Precip,
                    1 => Product::T2m,
                    _ => Product::ColumnState,
                };
                Query::cell(i % 2, (i * 11) % eng.n_cells(), product)
            })
            .collect();
        let batched = eng.serve_batch(&queries);
        for (q, b) in queries.iter().zip(&batched) {
            let one = eng.serve_one_percol(q).unwrap();
            assert_eq!(b.as_ref().unwrap(), &one, "paths must agree bitwise");
        }
        let m = eng.substrate().metrics();
        assert_eq!(m.counter("serve.queries"), 12);
        assert_eq!(m.counter("serve.batches"), 1);
    }

    #[test]
    fn serve_batch_stamps_one_request_step_per_scoped_id_and_none_unscoped() {
        use sunway_sim::{flow_scope, EventKind};
        let cfg = RunConfig::for_level(2, 6);
        let (store, _models) = seeded_store(&cfg, 1);
        let eng = engine(&cfg, store);
        eng.substrate().metrics().tracer().enable();
        let queries = [
            Query::cell(0, 0, Product::ColumnState),
            Query::cell(0, 1, Product::ColumnState),
            Query::cell(0, 2, Product::ColumnState),
        ];
        let request_steps = || -> Vec<u64> {
            let snap = eng.substrate().metrics().tracer().snapshot();
            snap.lanes
                .iter()
                .flat_map(|l| &l.events)
                .filter(|e| e.kind == EventKind::FlowStep && e.name == "request")
                .map(|e| e.items)
                .collect()
        };
        eng.serve_batch(&queries);
        assert_eq!(request_steps(), [0u64; 0], "no scope, no flow step");
        {
            let _flow = flow_scope(&[7, 0, 9]); // 0 = untraced
            eng.serve_batch(&queries);
        }
        assert_eq!(request_steps(), [7, 9], "one step per non-zero ID");
        eng.serve_batch(&queries);
        assert_eq!(request_steps(), [7, 9], "the scope ended with its guard");
    }

    #[test]
    fn derived_cache_hits_within_an_epoch_and_invalidates_across() {
        let cfg = RunConfig::for_level(2, 6);
        let (store, mut models) = seeded_store(&cfg, 1);
        let eng = engine(&cfg, store.clone());
        let q = Query::cell(0, 5, Product::Precip);
        let first = eng.serve_batch(std::slice::from_ref(&q));
        let m = eng.substrate().metrics();
        assert_eq!(m.counter("serve.cache.misses"), 1);
        assert_eq!(m.counter("serve.view.restores"), 1);
        let second = eng.serve_batch(std::slice::from_ref(&q));
        assert_eq!(m.counter("serve.cache.hits"), 1, "second query is cached");
        assert_eq!(m.counter("serve.ml.cells"), 1, "no second dispatch");
        assert_eq!(first[0], second[0]);

        // Publish a newer epoch: the cache must invalidate and re-restore.
        let model = &mut models[0];
        model.advance(cfg.dt_phy);
        store.publish(EpochView {
            member: 0,
            epoch: model.dyn_steps() as u64,
            state_hash: model.state_hash(),
            checkpoint: model.checkpoint(),
        });
        let third = eng.serve_batch(std::slice::from_ref(&q));
        assert_eq!(m.counter("serve.view.restores"), 2);
        assert_eq!(m.counter("serve.cache.misses"), 2);
        let (a, b) = (first[0].as_ref().unwrap(), third[0].as_ref().unwrap());
        assert!(a.epoch < b.epoch, "response is stamped with the new epoch");
        assert_ne!(a.state_hash, b.state_hash);
    }

    #[test]
    fn selectors_resolve_points_regions_and_reject_bad_input() {
        let cfg = RunConfig::for_level(2, 6);
        let (store, _models) = seeded_store(&cfg, 1);
        let eng = engine(&cfg, store);
        let ncells = eng.n_cells();
        assert_eq!(eng.resolve(&Select::Cell(0)).unwrap(), vec![0]);
        assert_eq!(
            eng.resolve(&Select::Cell(ncells)),
            Err(ServeError::UnknownCell {
                cell: ncells,
                ncells
            })
        );
        // A hemisphere-sized region catches at least one cell; the whole
        // globe catches all of them.
        let all = eng
            .resolve(&Select::Region {
                lat: (-2.0, 2.0),
                lon: (-4.0, 4.0),
            })
            .unwrap();
        assert_eq!(all.len(), ncells);
        assert_eq!(
            eng.resolve(&Select::Region {
                lat: (1.0, -1.0),
                lon: (0.0, 0.0)
            }),
            Err(ServeError::EmptyRegion)
        );
        // Point resolution returns the argmax-cosine cell.
        let c = eng.resolve(&Select::Point { lat: 0.3, lon: 1.1 }).unwrap()[0];
        assert!(c < ncells);
    }

    #[test]
    fn errors_name_member_and_snapshot_conditions() {
        let cfg = RunConfig::for_level(2, 6);
        let store = Arc::new(SnapshotStore::new(2, 2));
        // Member 1 never publishes.
        let mut model = GristModel::<f64>::new(cfg.clone());
        model.advance(cfg.dt_phy);
        store.publish(EpochView {
            member: 0,
            epoch: model.dyn_steps() as u64,
            state_hash: model.state_hash(),
            checkpoint: model.checkpoint(),
        });
        let eng = engine(&cfg, store);
        let out = eng.serve_batch(&[
            Query::cell(0, 0, Product::T2m),
            Query::cell(1, 0, Product::T2m),
            Query::cell(9, 0, Product::T2m),
        ]);
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(ServeError::NoSnapshot { member: 1 }));
        assert_eq!(
            out[2],
            Err(ServeError::UnknownMember {
                member: 9,
                n_members: 2
            })
        );
        let msg = out[2].as_ref().unwrap_err().to_string();
        assert!(msg.contains('9') && msg.contains('2'), "{msg}");
    }

    #[test]
    fn torn_view_is_refused_not_served() {
        // Publish a view whose advertised hash disagrees with its
        // checkpoint: the engine must refuse, naming both hashes.
        let cfg = RunConfig::for_level(2, 6);
        let model = GristModel::<f64>::new(cfg.clone());
        let store = Arc::new(SnapshotStore::new(1, 2));
        store.publish(EpochView {
            member: 0,
            epoch: model.dyn_steps() as u64,
            state_hash: model.state_hash() ^ 1, // deliberately wrong
            checkpoint: model.checkpoint(),
        });
        let eng = engine(&cfg, store);
        let out = eng.serve_batch(&[Query::cell(0, 0, Product::Precip)]);
        match out[0].as_ref().unwrap_err() {
            ServeError::TornView { expected, got, .. } => {
                assert_eq!(*expected, model.state_hash() ^ 1);
                assert_eq!(*got, model.state_hash());
            }
            other => panic!("expected TornView, got {other:?}"),
        }
    }
}
