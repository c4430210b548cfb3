//! What every workload shares: the run parameters the driver passes, the
//! outcome it reports back, the seeded generator that shapes inputs, and the
//! small probes (peak RSS, repeated-call timing).

use crate::stats::{median, Summary};
use std::time::Instant;
use sunway_sim::Json;

/// Problem size of the model a workload runs. The full sizes are the
/// benchmark; `--smoke` shrinks them so the self-test finishes in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub level: u32,
    pub nlev: usize,
}

pub const SMOKE_SIZE: Size = Size { level: 2, nlev: 6 };

#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Wall seconds of measured work (the driver's `--seconds`).
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Where `trace_<workload>.json` goes.
    pub out_dir: std::path::PathBuf,
    /// Self-test hook: spoil one reference answer so the correctness check
    /// must count failures.
    pub corrupt_reference: bool,
}

impl Params {
    /// The workload's full problem size, or the smoke size under `--smoke`.
    pub fn size(&self, full: Size) -> Size {
        if self.smoke {
            SMOKE_SIZE
        } else {
            full
        }
    }

    /// How often set-up is repeated; `setup_s` is the median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Violated run-level checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample summaries and tables for `results.json` / stdout.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Count one operation; a failed one also records why (first few only).
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }

    /// Add a phase's operation counts.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    pub fn summary(&mut self, key: &str, samples: &[f64]) {
        self.detail(key, Summary::of(samples).to_json());
    }
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed gives the same inputs on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over f64 bit patterns — the benchmark's own fingerprint for states
/// that have no `state_hash` (the shallow-water ranks).
pub fn fnv_f64(chunks: &[&[f64]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in chunks {
        for v in *chunk {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Peak resident set of this process in MB (`VmHWM`), which is why every
/// workload runs in a process of its own.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `f` `n` times; per-call milliseconds.
pub fn time_calls_ms<T>(n: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Median of repeated set-ups, keeping the last product for the run.
pub fn repeat_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take()); // one set-up resident at a time: peak RSS is a run's, not a sum
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times), times)
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
