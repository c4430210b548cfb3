//! SWGOMP's job-spawning hierarchy (§3.3.1, Fig. 5), executed with real
//! threads standing in for CPEs.
//!
//! "The job server exhibits a high flexibility, allowing new tasks to be
//! assigned to CPE by either the MPE or another CPE. The job server is
//! initialized by MPE using the Athread library. The MPE spawns team-head
//! threads via the job server to execute target portions. These team-head
//! CPEs have the capability to spawn threads on other CPEs within the team
//! to execute parallel code pieces."
//!
//! [`JobServer`] owns one persistent worker thread per simulated CPE.
//! [`JobServer::target_parallel_for`] ships a *team-head* job to a CPE,
//! which then distributes the chunks to its team — the `!$omp target` path
//! of Fig. 4. It blocks until every chunk retires, which is what makes the
//! internal lifetime erasure sound.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::substrate::WriteSet;

/// A multi-producer multi-consumer job queue (the Athread mailbox): every
/// CPE worker pulls from the same queue, and both the MPE and team-head
/// CPEs push into it. Implemented on std primitives only so the crate
/// builds offline.
struct JobQueue {
    queue: Mutex<VecDeque<Msg>>,
    ready: Condvar,
}

impl JobQueue {
    fn new() -> Arc<Self> {
        Arc::new(JobQueue {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        })
    }

    fn send(&self, msg: Msg) {
        self.queue
            .lock()
            .expect("job queue poisoned")
            .push_back(msg);
        self.ready.notify_one();
    }

    /// Blocking pop; only returns once a message is available.
    fn recv(&self) -> Msg {
        let mut q = self.queue.lock().expect("job queue poisoned");
        loop {
            if let Some(msg) = q.pop_front() {
                return msg;
            }
            q = self.ready.wait(q).expect("job queue poisoned");
        }
    }
}

/// A loop body over one chunk, `task(start, end)`, its borrow erased to
/// `'static` so it can sit in the shared queue (see `target_parallel_for`).
type Task = &'static (dyn Fn(usize, usize) + Sync);

enum Msg {
    /// Execute `task` over `[start, end)` and decrement the barrier.
    Chunk {
        task: Task,
        start: usize,
        end: usize,
        done: Arc<Barrier>,
    },
    /// Become a team head: distribute `n_items` over the team, then barrier.
    TeamHead {
        task: Task,
        n_items: usize,
        chunk: usize,
        done: Arc<Barrier>,
    },
    Shutdown,
}

/// A simple completion barrier (count-down latch).
///
/// [`JobServer::target_parallel_for`] creates it with **`n_chunks + 1`**
/// tickets: one per chunk, each surrendered by [`Barrier::done`] when the
/// chunk retires, and one held by the *team-head job* itself until the last
/// chunk is in the queue (`worker_loop`'s `TeamHead` arm). Without the `+1`,
/// a fast team could retire every already-enqueued chunk while the head is
/// still enqueueing the rest, dropping `remaining` to zero and releasing
/// the MPE early — a use-after-free on the borrowed closure.
///
/// The `barrier_*` tests below pin it down with 1-item chunks and
/// `n_items < n_cpes` stress shapes.
struct Barrier {
    remaining: AtomicUsize,
    /// Parking lot for [`Self::wait`]'s slow path. On real hardware the MPE
    /// spin-waits its LDM flag, but here blocked "MPEs" share host cores
    /// with the CPE workers — an unbounded hot spin burns a core per
    /// blocked waiter on an oversubscribed host (CI), starving the very
    /// workers it is waiting for.
    lock: Mutex<()>,
    released: Condvar,
}

/// Busy-spin iterations before [`Barrier::wait`] starts yielding.
const BARRIER_SPIN_ROUNDS: usize = 1 << 10;
/// `yield_now` rounds after spinning, before parking on the condvar.
const BARRIER_YIELD_ROUNDS: usize = 64;

impl Barrier {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Barrier {
            remaining: AtomicUsize::new(n),
            lock: Mutex::new(()),
            released: Condvar::new(),
        })
    }

    fn done(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last ticket: serialize against a waiter between its count
            // check and its `Condvar::wait` (the lock closes that window),
            // then wake every parked waiter.
            let _guard = self.lock.lock().expect("barrier poisoned");
            self.released.notify_all();
        }
    }

    fn wait(&self) {
        // Fast path: bounded spin — chunks usually retire in microseconds,
        // and parking immediately would add a syscall to every dispatch.
        for _ in 0..BARRIER_SPIN_ROUNDS {
            if self.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..BARRIER_YIELD_ROUNDS {
            if self.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            std::thread::yield_now();
        }
        // Slow path: park until the last `done` notifies. The count is
        // re-checked under the lock, so a release between the spin phase
        // and acquiring the lock cannot be missed.
        let mut guard = self.lock.lock().expect("barrier poisoned");
        while self.remaining.load(Ordering::Acquire) != 0 {
            guard = self.released.wait(guard).expect("barrier poisoned");
        }
    }
}

/// Scheduling statistics (who spawned what — the Fig. 5 hierarchy).
#[derive(Debug, Default)]
pub struct JobStats {
    /// Jobs enqueued by the MPE.
    pub spawned_by_mpe: AtomicU64,
    /// Jobs enqueued by team-head CPEs.
    pub spawned_by_cpe: AtomicU64,
    /// Chunks executed in total.
    pub chunks_run: AtomicU64,
}

/// The persistent CPE job server of one core group.
pub struct JobServer {
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
    pub n_cpes: usize,
    pub stats: Arc<JobStats>,
}

impl JobServer {
    /// Initialize the job server with `n_cpes` worker threads (the Athread
    /// initialization step).
    pub fn new(n_cpes: usize) -> Self {
        assert!(n_cpes >= 1);
        let queue = JobQueue::new();
        let stats = Arc::new(JobStats::default());
        let workers = (0..n_cpes)
            .map(|id| {
                let q = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("cpe-{id}"))
                    .spawn(move || worker_loop(q, stats))
                    .expect("spawn CPE worker")
            })
            .collect();
        JobServer {
            queue,
            workers,
            n_cpes,
            stats,
        }
    }

    /// `!$omp target` + `!$omp do`: ship a team-head job to one CPE, which
    /// re-distributes the loop to its team members (Fig. 5's CPE-spawned
    /// jobs), then wait for the whole team. Every index of `0..n_items` runs
    /// once, in chunks of `chunk`.
    pub fn target_parallel_for<F: Fn(usize) + Sync>(&self, n_items: usize, chunk: usize, f: &F) {
        if n_items == 0 {
            return;
        }
        let run = |start: usize, end: usize| {
            for i in start..end {
                f(i);
            }
        };
        let run: &(dyn Fn(usize, usize) + Sync) = &run;
        // SAFETY: `done.wait()` below returns only after every chunk holding
        // `task` has retired, so the erased borrow never outlives `run`.
        let task = unsafe { std::mem::transmute::<&(dyn Fn(usize, usize) + Sync), Task>(run) };
        // `n_chunks + 1` tickets: one per chunk plus the team head's, see
        // `Barrier`.
        let n_chunks = n_items.div_ceil(chunk.max(1));
        let done = Barrier::new(n_chunks + 1);
        self.stats.spawned_by_mpe.fetch_add(1, Ordering::Relaxed);
        self.queue.send(Msg::TeamHead {
            task,
            n_items,
            chunk,
            done: Arc::clone(&done),
        });
        done.wait();
    }

    /// `!$omp target parallel workshare` on `array = value` (the second
    /// idiom of Fig. 4: Fortran array assignments distributed over CPEs).
    pub fn target_workshare_fill<T: Copy + Send + Sync>(&self, data: &mut [T], value: T) {
        let n = data.len();
        let split = data.split();
        let chunk = n.div_ceil(4 * self.n_cpes).max(1);
        self.target_parallel_for(n, chunk, &|i| {
            // SAFETY: `target_parallel_for` runs each `i < n` once and
            // returns after the last (the argument at `Substrate::run_cols`).
            *unsafe { <&mut [T]>::col(&split, i) } = value;
        });
    }
}

fn worker_loop(queue: Arc<JobQueue>, stats: Arc<JobStats>) {
    loop {
        match queue.recv() {
            Msg::Chunk {
                task,
                start,
                end,
                done,
            } => {
                task(start, end);
                stats.chunks_run.fetch_add(1, Ordering::Relaxed);
                done.done();
            }
            Msg::TeamHead {
                task,
                n_items,
                chunk,
                done,
            } => {
                // Distribute to the team (including possibly ourselves).
                let mut start = 0;
                while start < n_items {
                    let end = (start + chunk).min(n_items);
                    stats.spawned_by_cpe.fetch_add(1, Ordering::Relaxed);
                    queue.send(Msg::Chunk {
                        task,
                        start,
                        end,
                        done: Arc::clone(&done),
                    });
                    start = end;
                }
                done.done(); // surrender the team head's barrier ticket
            }
            Msg::Shutdown => break,
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        for _ in &self.workers {
            self.queue.send(Msg::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hits per index of one `target_parallel_for` over `0..n`.
    fn hits(server: &JobServer, n: usize, chunk: usize) -> Vec<u64> {
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        server.target_parallel_for(n, chunk, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        hits.iter().map(|h| h.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn target_parallel_for_touches_every_index_once() {
        let server = JobServer::new(8);
        assert_eq!(hits(&server, 10_000, 64), vec![1; 10_000]);
    }

    #[test]
    fn target_path_spawns_chunks_from_a_cpe() {
        // Fig. 5: with `target`, the chunk jobs are enqueued by the team-head
        // CPE, not the MPE.
        let server = JobServer::new(4);
        server.target_parallel_for(1000, 100, &|_| {});
        assert_eq!(server.stats.spawned_by_mpe.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats.spawned_by_cpe.load(Ordering::Relaxed), 10);
        assert_eq!(server.stats.chunks_run.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn repeated_launches_reuse_the_persistent_workers() {
        let server = JobServer::new(8);
        let acc = AtomicU64::new(0);
        for _ in 0..50 {
            server.target_parallel_for(256, 16, &|_| {
                acc.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(acc.load(Ordering::Relaxed), 50 * 256);
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let server = JobServer::new(64); // full CPE complement
        let data: Vec<u64> = (0..100_000).map(|i| i % 97).collect();
        let total = AtomicU64::new(0);
        server.target_parallel_for(data.len(), 1024, &|i| {
            total.fetch_add(data[i], Ordering::Relaxed);
        });
        let expected: u64 = data.iter().sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn workshare_fill_zeroes_an_array_like_fig4() {
        // Fig. 4: `kinetic_energy(:,:) = 0` under target parallel workshare.
        let server = JobServer::new(8);
        let mut ke = vec![3.25f64; 10_000];
        server.target_workshare_fill(&mut ke, 0.0);
        assert!(ke.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_ranges_are_a_noop() {
        let server = JobServer::new(2);
        let mut empty: Vec<f64> = Vec::new();
        server.target_workshare_fill(&mut empty, 1.0);
        server.target_parallel_for(0, 16, &|_| panic!("must not run"));
    }

    /// Barrier stress: 1-item chunks through a team head. The latch starts
    /// at `n_items + 1`; the team head's extra ticket must be surrendered
    /// (no hang) and must hold the MPE back until all chunks are enqueued
    /// (no early release: every index has run once when the call returns).
    #[test]
    fn barrier_one_item_chunks() {
        let server = JobServer::new(8);
        for round in 0..20 {
            let n = 131 + round; // odd sizes, never a multiple of the team
            assert_eq!(hits(&server, n, 1), vec![1; n], "n={n}");
        }
        // Every chunk went through the team head, none through the MPE.
        assert_eq!(server.stats.spawned_by_mpe.load(Ordering::Relaxed), 20);
        let expected_cpe: u64 = (0..20u64).map(|r| 131 + r).sum();
        assert_eq!(
            server.stats.spawned_by_cpe.load(Ordering::Relaxed),
            expected_cpe
        );
        assert_eq!(
            server.stats.chunks_run.load(Ordering::Relaxed),
            expected_cpe
        );
    }

    /// The parking slow path: a ticket that retires long after the spin and
    /// yield budgets are exhausted must still release the waiter (and not
    /// hang on a missed wakeup).
    #[test]
    fn barrier_wait_parks_until_late_completion() {
        for _ in 0..10 {
            let done = Barrier::new(1);
            let d2 = Arc::clone(&done);
            let t = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                d2.done();
            });
            done.wait(); // far beyond the spin/yield budget → parks
            assert_eq!(done.remaining.load(Ordering::Relaxed), 0);
            t.join().unwrap();
        }
    }

    /// A barrier that is already released must never block, whichever path
    /// the waiter takes.
    #[test]
    fn barrier_wait_returns_immediately_when_released() {
        let done = Barrier::new(1);
        done.done();
        done.wait();
        done.wait(); // idempotent
    }

    /// Fewer items than CPEs: most workers stay idle, and the idle majority
    /// must not be counted as barrier participants. The call must return
    /// promptly with every item done exactly once.
    #[test]
    fn barrier_fewer_items_than_cpes() {
        let server = JobServer::new(32);
        for n in [1usize, 2, 3, 5, 31] {
            assert_eq!(hits(&server, n, 1), vec![1; n], "n={n}");
        }
    }
}
