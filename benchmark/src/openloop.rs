//! The open-loop driver: requests are due on a fixed schedule whatever the
//! system under test does, and each one's latency runs from the moment it
//! was *due*, not from the moment it was sent.
//!
//! That is the whole point of the accounting: when the server (or the
//! generator itself) stalls, the requests that should have gone out during
//! the stall are sent late, in a burst — and an independent user who wanted
//! an answer at the due time waited through the stall. Timing from the send
//! would hide exactly the queueing a stall causes.
//!
//! The calling thread is the generator: it spins to each due time, then
//! submits. A collector thread, blocked in `wait`, stamps answers in FIFO
//! order (one FIFO worker answers in order, so an earlier stamp is never
//! held up by a later answer). How late the generator ran is reported with
//! every block.

use crate::span::{Lane, SpanRec};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// What the open loop drives. `submit` runs on the generator thread, `wait`
/// on the collector thread.
pub trait Target {
    type Pending: Send;
    type Answer: Send;

    /// Called before the generator waits for `due`: work the generator does
    /// on a schedule of its own (publishing, on `serve_churn`).
    fn before(&mut self, _due: Instant, _lane: &mut Lane) {}

    /// Send request `i` of the block.
    fn submit(&mut self, i: usize, lane: &mut Lane) -> Self::Pending;

    /// Block until the request is answered.
    fn wait(pending: Self::Pending) -> Self::Answer;
}

/// One request of a block, as the collector saw it.
pub struct Answered<A> {
    pub due: Instant,
    pub done: Instant,
    pub answer: A,
}

impl<A> Answered<A> {
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

pub struct Block<A> {
    /// In submission order.
    pub answered: Vec<Answered<A>>,
    /// Generator lateness per request: submit start minus due time.
    pub late_us: Vec<f64>,
    pub gen_spans: Vec<SpanRec>,
    pub col_spans: Vec<SpanRec>,
}

/// Due time of request `i` on a fixed-rate schedule starting at `t0`.
pub fn due_time(t0: Instant, i: usize, rate_qps: f64) -> Instant {
    t0 + Duration::from_secs_f64(i as f64 / rate_qps)
}

/// Send `n` requests at `rate_qps`. With `traced`, the generator lane gets a
/// `block` span holding `gen.idle` (spinning to the due time) and whatever
/// spans `before` / `submit` record; the collector lane gets one
/// `serve.answer` span per request, from its due time to its answer.
pub fn run<T: Target>(
    target: &mut T,
    n: usize,
    rate_qps: f64,
    epoch: Instant,
    traced: bool,
    block: u32,
) -> Block<T::Answer> {
    let mut gen = Lane::new(epoch, traced);
    gen.set_block(block);
    let (tx, rx) = channel::<(Instant, T::Pending)>();
    let mut late_us = Vec::with_capacity(n);

    let (answered, col_spans) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut lane = Lane::new(epoch, traced);
            lane.set_block(block);
            let mut answered = Vec::with_capacity(n);
            for (due, pending) in rx {
                let answer = T::wait(pending);
                let done = Instant::now();
                lane.record("serve.answer", due, done);
                answered.push(Answered { due, done, answer });
            }
            (answered, lane.into_spans())
        });

        let span = gen.enter("block");
        let t0 = Instant::now() + Duration::from_micros(200);
        for i in 0..n {
            let due = due_time(t0, i, rate_qps);
            target.before(due, &mut gen);
            // Spinning holds the due time to well under a microsecond; a
            // sleeping generator ran 0.3-0.8 ms late at p99 on this host.
            let idle = gen.enter("gen.idle");
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            gen.exit(idle);
            late_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            let pending = target.submit(i, &mut gen);
            tx.send((due, pending)).expect("collector alive");
        }
        gen.exit(span);
        drop(tx);
        collector.join().expect("collector thread")
    });

    Block {
        answered,
        late_us,
        gen_spans: gen.into_spans(),
        col_spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that answers at once, behind a generator that stalls once.
    struct StallingGenerator {
        stall_at: usize,
        stall: Duration,
        seen: usize,
    }

    impl Target for StallingGenerator {
        type Pending = Instant;
        type Answer = ();

        fn before(&mut self, _due: Instant, _lane: &mut Lane) {
            if self.seen == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.seen += 1;
        }

        fn submit(&mut self, _i: usize, _lane: &mut Lane) -> Instant {
            Instant::now()
        }

        fn wait(_sent: Instant) {}
    }

    #[test]
    fn a_generator_stall_is_charged_to_the_requests_due_during_it() {
        let rate = 2000.0; // 0.5 ms apart
        let stall = Duration::from_millis(20);
        let mut target = StallingGenerator {
            stall_at: 50,
            stall,
            seen: 0,
        };
        let block = run(&mut target, 200, rate, Instant::now(), false, 0);
        assert_eq!(block.answered.len(), 200);
        let lat: Vec<f64> = block.answered.iter().map(Answered::latency_ms).collect();

        // Request 50 was due right when the stall began: it waited all of it.
        assert!(lat[50] >= 19.0, "stalled request charged {} ms", lat[50]);
        // Request 60 was due 5 ms into the stall and went out in the burst
        // after it: timed from its send it would look instant, timed from
        // its due time it waited the remaining ~15 ms.
        assert!(
            (13.0..40.0).contains(&lat[60]),
            "request due mid-stall charged {} ms",
            lat[60]
        );
        // ~40 requests were due during 20 ms at 2000/s; all of them show it.
        let charged = lat.iter().filter(|&&l| l >= 0.4).count();
        assert!(
            (36..80).contains(&charged),
            "{charged} requests charged for a 20 ms stall at {rate}/s"
        );
        // The generator's own lateness reports the same stall.
        let late_max = block.late_us.iter().cloned().fold(0.0, f64::max);
        assert!(
            late_max >= 19_000.0,
            "generator lateness peaked at {late_max} us"
        );
        // Before the stall nothing waited.
        assert!(lat[..50].iter().all(|&l| l < 5.0));
    }

    #[test]
    fn due_times_are_evenly_spaced_from_the_start() {
        let t0 = Instant::now();
        assert_eq!(due_time(t0, 0, 2000.0), t0);
        assert_eq!(due_time(t0, 2000, 2000.0), t0 + Duration::from_secs(1));
        assert_eq!(due_time(t0, 1, 8000.0) - t0, Duration::from_micros(125));
    }
}
