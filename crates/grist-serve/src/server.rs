//! The request front-end: a thread pool draining an mpsc queue, forming
//! batches opportunistically.
//!
//! `submit` is async in the offline-safe sense: it enqueues and returns a
//! [`PendingResponse`] immediately; the caller collects the answer whenever
//! it likes. Each worker blocks for one job, then drains up to
//! `max_batch - 1` more that are already queued — so under heavy traffic
//! batches grow toward `max_batch` and every batch becomes one
//! `ScratchPool`-backed ML dispatch, while an idle server answers a lone
//! query with no added latency.
//!
//! Each served batch records its size (`serve.batch_size`) and every query's
//! queue-to-answer latency (`serve.latency_ns`) as histograms in the engine's
//! registry, under one lane lock per batch. Request-scoped flow IDs come from
//! the engine's tracer, so tracing is the one switch for flow events.

use crate::engine::{Query, QueryEngine, Response, ServeError};
use grist_dycore::Real;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use sunway_sim::{flow_scope, EventKind, Metrics};

/// Front-end sizing.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Largest batch one worker serves in one engine call.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            max_batch: 32,
        }
    }
}

struct Job {
    query: Query,
    reply: Sender<Result<Response, ServeError>>,
    /// Request-scoped flow ID (0 = untraced; see
    /// [`Tracer::mint_flow_id`](sunway_sim::Tracer::mint_flow_id)).
    trace_id: u64,
    /// Enqueue time — where `serve.latency_ns` starts.
    submitted: Instant,
}

/// A submitted query's future answer.
pub struct PendingResponse {
    rx: Receiver<Result<Response, ServeError>>,
}

impl PendingResponse {
    /// Block until the answer arrives. A worker that disappeared (server
    /// shut down with the job queued) surfaces as `Disconnected`.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }
}

/// The serving front-end. Dropping it (or calling [`Self::shutdown`])
/// closes the queue and joins the workers.
pub struct ForecastServer {
    tx: Option<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<u64>>,
    /// The engine's registry (shared handle) — flow IDs are minted and flow
    /// begins recorded on the submitting thread's lane through it.
    metrics: Metrics,
}

impl ForecastServer {
    /// Start `cfg.workers` threads serving queries against `engine`,
    /// recording into the engine's registry.
    pub fn start<R: Real>(engine: Arc<QueryEngine<R>>, cfg: ServeConfig) -> Self {
        assert!(cfg.workers >= 1 && cfg.max_batch >= 1);
        let metrics = engine.substrate().metrics().clone();
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let engine = Arc::clone(&engine);
                let max_batch = cfg.max_batch;
                std::thread::spawn(move || {
                    let mut served = 0u64;
                    let metrics = engine.substrate().metrics();
                    // One batch size and one latency per query, recorded
                    // under one lock.
                    let mut samples: Vec<(&'static str, u64)> = Vec::with_capacity(max_batch + 1);
                    loop {
                        // Hold the queue lock only while forming the batch;
                        // serving runs with the queue free for peers.
                        let mut batch = Vec::with_capacity(max_batch);
                        {
                            let queue = rx.lock().expect("queue poisoned");
                            match queue.recv() {
                                Ok(job) => batch.push(job),
                                Err(_) => break, // queue closed: shutdown
                            }
                            while batch.len() < max_batch {
                                match queue.try_recv() {
                                    Ok(job) => batch.push(job),
                                    Err(_) => break,
                                }
                            }
                        }
                        let queries: Vec<Query> = batch.iter().map(|j| j.query.clone()).collect();
                        let ids: Vec<u64> = batch.iter().map(|j| j.trace_id).collect();
                        let results = {
                            let _flow = flow_scope(&ids);
                            engine.serve_batch(&queries)
                        };
                        // Every answer of the batch is ready now: one clock
                        // read serves the whole batch's latencies.
                        let answered = Instant::now();
                        served += batch.len() as u64;
                        samples.clear();
                        samples.push(("serve.batch_size", batch.len() as u64));
                        for (job, result) in batch.into_iter().zip(results) {
                            // A client that gave up on its PendingResponse
                            // just drops the answer.
                            let _ = job.reply.send(result);
                            metrics.tracer().record_flow(
                                EventKind::FlowEnd,
                                "request",
                                job.trace_id,
                            );
                            let latency = answered.saturating_duration_since(job.submitted);
                            samples.push(("serve.latency_ns", latency.as_nanos() as u64));
                        }
                        metrics.record_hist(&samples);
                    }
                    served
                })
            })
            .collect();
        ForecastServer {
            tx: Some(tx),
            workers,
            metrics,
        }
    }

    /// Enqueue a query; returns immediately.
    pub fn submit(&self, query: Query) -> Result<PendingResponse, ServeError> {
        let (reply, rx) = channel();
        let tracer = self.metrics.tracer();
        let trace_id = tracer.mint_flow_id();
        tracer.record_flow(EventKind::FlowBegin, "request", trace_id);
        self.tx
            .as_ref()
            .ok_or(ServeError::Disconnected)?
            .send(Job {
                query,
                reply,
                trace_id,
                submitted: Instant::now(),
            })
            .map_err(|_| ServeError::Disconnected)?;
        Ok(PendingResponse { rx })
    }

    /// Submit and wait — the synchronous convenience path.
    pub fn query_blocking(&self, query: Query) -> Result<Response, ServeError> {
        self.submit(query)?.wait()
    }

    /// Close the queue, join every worker, and return the total number of
    /// queries served.
    pub fn shutdown(mut self) -> u64 {
        self.drain()
    }

    fn drain(&mut self) -> u64 {
        drop(self.tx.take());
        self.workers
            .drain(..)
            .map(|w| w.join().expect("serve worker panicked"))
            .sum()
    }
}

impl Drop for ForecastServer {
    fn drop(&mut self) {
        if self.tx.is_some() {
            self.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{default_suite, Product};
    use crate::store::{EpochView, SnapshotStore};
    use grist_core::{GristModel, RunConfig};
    use sunway_sim::Substrate;

    fn served_engine(cfg: &RunConfig) -> Arc<QueryEngine<f64>> {
        let store = Arc::new(SnapshotStore::new(1, 2));
        let model = GristModel::<f64>::new(cfg.clone());
        store.publish(EpochView {
            member: 0,
            epoch: model.dyn_steps() as u64,
            state_hash: model.state_hash(),
            checkpoint: model.checkpoint(),
        });
        Arc::new(QueryEngine::new(
            store,
            cfg.clone(),
            Substrate::serial(),
            default_suite(cfg.nlev),
        ))
    }

    #[test]
    fn concurrent_submits_all_answer_and_match_direct_serving() {
        let cfg = RunConfig::for_level(2, 6);
        let engine = served_engine(&cfg);
        let server = ForecastServer::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 3,
                max_batch: 8,
            },
        );
        let pending: Vec<(Query, PendingResponse)> = (0..40)
            .map(|i| {
                let product = if i % 2 == 0 {
                    Product::Precip
                } else {
                    Product::T2m
                };
                let q = Query::cell(0, i % engine.n_cells(), product);
                let p = server.submit(q.clone()).unwrap();
                (q, p)
            })
            .collect();
        for (q, p) in pending {
            let served = p.wait().unwrap();
            let direct = engine.serve_one_percol(&q).unwrap();
            assert_eq!(served, direct, "served answer must be bit-identical");
        }
        let served = server.shutdown();
        assert_eq!(served, 40);
        // Batching happened: fewer engine batches than queries, and the
        // histograms saw every batch and every query.
        let snap = engine.substrate().metrics().snapshot();
        let batches = snap.counters["serve.batches"];
        assert!(batches <= 40, "{batches} batches for 40 queries");
        let sizes = &snap.histograms["serve.batch_size"];
        assert_eq!((sizes.count, sizes.sum), (batches, 40));
        let latency = &snap.histograms["serve.latency_ns"];
        assert_eq!(latency.count, 40);
        assert!(latency.min > 0, "queue-to-answer latency is nonzero");
    }

    #[test]
    fn a_traced_engine_joins_every_query_to_its_kernels() {
        use sunway_sim::EventKind;
        let cfg = RunConfig::for_level(2, 6);
        let engine = served_engine(&cfg);
        engine.substrate().metrics().tracer().enable();
        let server = ForecastServer::start(
            Arc::clone(&engine),
            ServeConfig {
                workers: 2,
                max_batch: 8,
            },
        );
        const N: usize = 24;
        let pending: Vec<(Query, PendingResponse)> = (0..N)
            .map(|i| {
                let q = Query::cell(0, i % engine.n_cells(), Product::Precip);
                (q.clone(), server.submit(q).unwrap())
            })
            .collect();
        for (q, p) in pending {
            assert_eq!(p.wait().unwrap(), engine.serve_one_percol(&q).unwrap());
        }
        server.shutdown();

        // Flow join: one begin + one end per query, and at least one step
        // per query (the serving batch stamps every member's ID).
        let tracer = engine.substrate().metrics().tracer();
        let snap = tracer.snapshot();
        assert_eq!(snap.count_kind(EventKind::FlowBegin), N);
        assert_eq!(snap.count_kind(EventKind::FlowEnd), N);
        assert!(snap.count_kind(EventKind::FlowStep) >= N);
        assert_eq!(tracer.mint_flow_id(), N as u64 + 1, "one ID per query");
        // The batch's cache-miss dispatch stamped flow steps on the kernel
        // name, scoping requests down to substrate lanes.
        let dispatch_steps = snap
            .lanes
            .iter()
            .flat_map(|l| &l.events)
            .filter(|e| e.kind == EventKind::FlowStep && e.name != "request")
            .count();
        assert!(dispatch_steps > 0, "no dispatch-level flow steps recorded");
        // And the whole document exports as valid Chrome JSON with flows.
        let stats = sunway_sim::validate_chrome(&snap.to_chrome_json()).unwrap();
        assert_eq!(
            stats.flows,
            snap.count_kind(EventKind::FlowBegin)
                + snap.count_kind(EventKind::FlowStep)
                + snap.count_kind(EventKind::FlowEnd)
        );
    }

    #[test]
    fn an_untraced_engine_mints_no_ids_and_stays_bit_identical() {
        let cfg = RunConfig::for_level(2, 6);
        let engine = served_engine(&cfg);
        let server = ForecastServer::start(Arc::clone(&engine), ServeConfig::default());
        let q = Query::cell(0, 3, Product::T2m);
        let served = server.query_blocking(q.clone()).unwrap();
        assert_eq!(served, engine.serve_one_percol(&q).unwrap());
        server.shutdown();
        // Tracing off: no ID was minted (the first one a traced run gets is
        // 1) and the timeline holds no flow event.
        let tracer = engine.substrate().metrics().tracer();
        let stats = sunway_sim::validate_chrome(&tracer.snapshot().to_chrome_json()).unwrap();
        assert_eq!(stats.flows, 0, "an untraced server must not record flows");
        tracer.enable();
        assert_eq!(tracer.mint_flow_id(), 1, "serving untraced minted nothing");
    }

    #[test]
    fn shutdown_disconnects_cleanly() {
        let cfg = RunConfig::for_level(2, 6);
        let engine = served_engine(&cfg);
        let server = ForecastServer::start(engine, ServeConfig::default());
        let p = server.submit(Query::cell(0, 0, Product::T2m)).unwrap();
        assert!(p.wait().is_ok());
        server.shutdown();
    }
}
