//! The request front-end: a thread pool draining an mpsc queue, forming
//! batches opportunistically, answering each query through its own reply
//! slot.
//!
//! `submit` is async in the offline-safe sense: it enqueues and returns a
//! [`PendingResponse`] immediately; the caller collects the answer whenever
//! it likes. Each worker blocks for one job, then drains up to
//! `max_batch - 1` more that are already queued — so under heavy traffic
//! batches grow toward `max_batch` and every batch becomes one
//! `ScratchPool`-backed ML dispatch, while an idle server answers a lone
//! query with no added latency.
//!
//! An answer travels back through a one-shot slot (DESIGN.md §12 "Reply
//! path"): one `Arc`'d mutex over the answer and the waiting thread, filled
//! by the worker, taken by [`PendingResponse::wait`], which parks until the
//! worker unparks it. A worker that drops a job unanswered — shutdown, or a
//! batch unwound by a panic — delivers [`ServeError::Disconnected`].
//!
//! Each served batch records its size (`serve.batch_size`) and, per query,
//! the queue wait up to the batch's forming (`serve.queue_ns`) and the
//! queue-to-answer latency (`serve.latency_ns`) as histograms in the
//! engine's registry, under one lane lock per batch. Request-scoped flow IDs
//! come from the engine's tracer, so tracing is the one switch for flow
//! events.

use crate::engine::{Query, QueryEngine, Response, ServeError};
use crate::lock;
use grist_dycore::Real;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
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

type Answer = Result<Response, ServeError>;

/// One query's reply slot: the answer once a worker has filled it, and the
/// client thread to unpark once it waits.
type Slot = Mutex<(Option<Answer>, Option<Thread>)>;

/// The worker's end of a slot. Dropping it stores `answer` and unparks the
/// client if it has registered (one that has not parked yet finds the answer
/// on its next look), so a job dropped unanswered — shutdown, or a batch
/// unwound by a panic — delivers `Disconnected` and no client waits forever.
struct Reply {
    slot: Arc<Slot>,
    answer: Answer,
}

impl Drop for Reply {
    fn drop(&mut self) {
        let answer = std::mem::replace(&mut self.answer, Err(ServeError::Disconnected));
        let waiter = {
            let mut s = lock(&self.slot);
            s.0 = Some(answer);
            s.1.take()
        };
        if let Some(t) = waiter {
            t.unpark();
        }
    }
}

/// A fresh slot's two ends.
fn reply_slot() -> (Reply, PendingResponse) {
    let slot = Arc::new(Mutex::new((None, None)));
    let reply = Reply {
        slot: Arc::clone(&slot),
        answer: Err(ServeError::Disconnected),
    };
    (reply, PendingResponse { slot })
}

struct Job {
    query: Query,
    reply: Reply,
    /// Request-scoped flow ID (0 = untraced; see
    /// [`Tracer::mint_flow_id`](sunway_sim::Tracer::mint_flow_id)).
    trace_id: u64,
    /// Enqueue time — where `serve.queue_ns` and `serve.latency_ns` start.
    submitted: Instant,
}

/// A submitted query's future answer.
pub struct PendingResponse {
    slot: Arc<Slot>,
}

impl PendingResponse {
    /// Block until the answer arrives. A worker that disappeared (server
    /// shut down with the job queued) surfaces as `Disconnected`.
    pub fn wait(self) -> Result<Response, ServeError> {
        // Register, then park. An unpark landing between the unlock and the
        // park leaves the token set, so `park` returns at once; a spurious
        // wake-up just looks again.
        loop {
            let mut s = lock(&self.slot);
            if let Some(answer) = s.0.take() {
                return answer;
            }
            s.1 = Some(thread::current());
            drop(s);
            thread::park();
        }
    }
}

/// The serving front-end. Dropping it (or calling [`Self::shutdown`])
/// closes the queue and joins the workers.
pub struct ForecastServer {
    tx: Option<Sender<Job>>,
    workers: Vec<thread::JoinHandle<u64>>,
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
                thread::spawn(move || {
                    let mut served = 0u64;
                    let metrics = engine.substrate().metrics();
                    // One batch's queries, flow IDs and reply ends, kept
                    // across batches; a panic unwinding `batch` drops its
                    // replies, which releases their clients.
                    let mut queries: Vec<Query> = Vec::with_capacity(cfg.max_batch);
                    let mut ids: Vec<u64> = Vec::with_capacity(cfg.max_batch);
                    let mut batch: Vec<(Reply, Instant)> = Vec::with_capacity(cfg.max_batch);
                    // One batch size and a queue wait and a latency per
                    // query, recorded under one lock.
                    let mut samples: Vec<(&'static str, u64)> =
                        Vec::with_capacity(2 * cfg.max_batch + 1);
                    loop {
                        // Hold the queue lock only while forming the batch;
                        // serving runs with the queue free for peers.
                        {
                            let queue = lock(&rx);
                            let Ok(mut job) = queue.recv() else {
                                break; // queue closed: shutdown
                            };
                            loop {
                                queries.push(job.query);
                                ids.push(job.trace_id);
                                batch.push((job.reply, job.submitted));
                                if batch.len() == cfg.max_batch {
                                    break;
                                }
                                match queue.try_recv() {
                                    Ok(next) => job = next,
                                    Err(_) => break,
                                }
                            }
                        }
                        let formed = Instant::now();
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
                        for (((mut reply, submitted), result), &id) in
                            batch.drain(..).zip(results).zip(&ids)
                        {
                            // Dropping the reply delivers it; a client that
                            // gave up on its PendingResponse never reads it.
                            reply.answer = result;
                            drop(reply);
                            metrics
                                .tracer()
                                .record_flow(EventKind::FlowEnd, "request", id);
                            let since = |t: Instant| t.saturating_duration_since(submitted);
                            samples.push(("serve.queue_ns", since(formed).as_nanos() as u64));
                            samples.push(("serve.latency_ns", since(answered).as_nanos() as u64));
                        }
                        metrics.record_hist(&samples);
                        queries.clear();
                        ids.clear();
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
        let (reply, pending) = reply_slot();
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
        Ok(pending)
    }

    /// Submit and wait — the synchronous convenience path.
    pub fn query_blocking(&self, query: Query) -> Result<Response, ServeError> {
        self.submit(query)?.wait()
    }

    /// Close the queue, join every worker, and return the total number of
    /// queries served. A worker that panicked re-raises its own panic here.
    pub fn shutdown(mut self) -> u64 {
        self.drain()
    }

    fn drain(&mut self) -> u64 {
        drop(self.tx.take());
        self.workers
            .drain(..)
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
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

    #[test]
    fn a_reply_dropped_unanswered_delivers_disconnected() {
        // Dropped before the client waits, and once it has registered to park.
        for before_wait in [true, false] {
            let (reply, pending) = reply_slot();
            let slot = Arc::clone(&pending.slot);
            let mut reply = Some(reply);
            if before_wait {
                drop(reply.take());
            }
            let (tx, rx) = channel();
            thread::spawn(move || tx.send(pending.wait()));
            while reply.is_some() && lock(&slot).1.is_none() {
                thread::yield_now();
            }
            drop(reply);
            let got = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("a dropped reply left its client parked");
            assert_eq!(got, Err(ServeError::Disconnected));
        }
    }
}
