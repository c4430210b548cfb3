//! A set-associative LDCache simulator with LRU replacement — the model
//! behind Fig. 6's cache-thrashing analysis.
//!
//! "Investigation revealed that many of these kernels access more than four
//! arrays within a single loop, surpassing the number of LDCache ways.
//! Arrays, when well-aligned to a size larger than one cache way and
//! accessed with similar indices, are mapped to the same cache lane, leading
//! to cache thrashing." ([`simulate_streams`] reproduces exactly this, and
//! the address-distributed counterpart that fixes it.)

use crate::arch::SunwaySpec;

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Hit,
    Miss,
}

/// LRU set-associative cache over a simulated byte-address space.
#[derive(Debug, Clone)]
pub struct LdCache {
    pub ways: usize,
    pub sets: usize,
    pub line: usize,
    /// tags[set][way]; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Per-(set,way) last-use stamp for LRU.
    stamp: Vec<u64>,
    clock: u64,
    pub hits: u64,
    pub misses: u64,
    /// Misses that evicted a *valid* line — lane-conflict (capacity/conflict)
    /// misses, as opposed to cold misses filling an invalid way. This is the
    /// thrashing signature of Fig. 6a: aligned arrays mapping to one lane
    /// evict each other on every access.
    pub conflict_evictions: u64,
}

impl LdCache {
    pub fn new(ways: usize, sets: usize, line: usize) -> Self {
        assert!(line.is_power_of_two() && sets.is_power_of_two());
        LdCache {
            ways,
            sets,
            line,
            tags: vec![u64::MAX; ways * sets],
            stamp: vec![0; ways * sets],
            clock: 0,
            hits: 0,
            misses: 0,
            conflict_evictions: 0,
        }
    }

    /// Build with the SW26010P geometry.
    pub fn sw26010p(spec: &SunwaySpec) -> Self {
        Self::new(spec.ldcache_ways, spec.ldcache_sets(), spec.ldcache_line)
    }

    /// Access one byte address.
    pub fn access(&mut self, addr: u64) -> Access {
        self.clock += 1;
        let line_addr = addr / self.line as u64;
        let set = (line_addr % self.sets as u64) as usize;
        let tag = line_addr / self.sets as u64;
        let base = set * self.ways;
        // Hit?
        for w in 0..self.ways {
            if self.tags[base + w] == tag {
                self.stamp[base + w] = self.clock;
                self.hits += 1;
                return Access::Hit;
            }
        }
        // Miss: evict LRU.
        self.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        let mut cold = false;
        for w in 0..self.ways {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                cold = true;
                break;
            }
            if self.stamp[base + w] < oldest {
                oldest = self.stamp[base + w];
                victim = w;
            }
        }
        if !cold {
            self.conflict_evictions += 1;
        }
        self.tags[base + victim] = tag;
        self.stamp[base + victim] = self.clock;
        Access::Miss
    }

    pub fn hit_ratio(&self) -> f64 {
        if self.hits + self.misses == 0 {
            return 0.0;
        }
        self.hits as f64 / (self.hits + self.misses) as f64
    }

    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.conflict_evictions = 0;
    }

    /// Fold the access statistics into the metrics registry's
    /// `ldcache.hits` / `ldcache.misses` / `ldcache.conflict_evictions`
    /// counters.
    pub fn record_into(&self, metrics: &sunway_sim::Metrics) {
        metrics.counter_add("ldcache.hits", self.hits);
        metrics.counter_add("ldcache.misses", self.misses);
        metrics.counter_add("ldcache.conflict_evictions", self.conflict_evictions);
    }
}

/// Simulate a kernel loop streaming `n` arrays of `elem_size`-byte elements
/// with identical indices (`for i { touch a0[i], a1[i], …, an[i] }`) from the
/// given base addresses. Returns the hit ratio.
pub fn simulate_streams(
    cache: &mut LdCache,
    bases: &[u64],
    elem_size: usize,
    iterations: usize,
) -> f64 {
    cache.reset_stats();
    for i in 0..iterations {
        let off = (i * elem_size) as u64;
        for &b in bases {
            cache.access(b + off);
        }
    }
    cache.hit_ratio()
}

/// Base addresses as the original `malloc` would hand them out: every array
/// aligned to a full cache-way boundary (Fig. 6a — the thrashing layout).
pub fn aligned_bases(n_arrays: usize, way_bytes: usize) -> Vec<u64> {
    (0..n_arrays).map(|k| (k * 4 * way_bytes) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> LdCache {
        // 4 ways × 128 sets × 256-byte lines = 128 KB, SW26010P geometry.
        LdCache::new(4, 128, 256)
    }

    #[test]
    fn sequential_scan_of_one_array_hits_within_lines() {
        let mut c = small_cache();
        let r = simulate_streams(&mut c, &[0], 8, 10_000);
        // One miss per 256/8 = 32 accesses.
        assert!(r > 0.95, "hit ratio {r}");
    }

    #[test]
    fn four_aligned_arrays_fit_the_four_ways() {
        let mut c = small_cache();
        let bases = aligned_bases(4, 32 * 1024);
        let r = simulate_streams(&mut c, &bases, 8, 10_000);
        assert!(r > 0.95, "hit ratio {r}");
    }

    #[test]
    fn five_aligned_arrays_thrash() {
        // Fig. 6a: more arrays than ways, all mapping to the same lane ⇒
        // every access evicts the line the next array needs.
        let mut c = small_cache();
        let bases = aligned_bases(5, 32 * 1024);
        let r = simulate_streams(&mut c, &bases, 8, 10_000);
        assert!(r < 0.2, "expected thrashing, hit ratio {r}");
    }

    #[test]
    fn distributed_bases_restore_hits_for_seven_arrays() {
        // Fig. 6b: staggering the starting addresses across cache lanes lets
        // even 7 concurrent streams coexist.
        let mut c = small_cache();
        let way = 32 * 1024u64;
        let n = 7;
        let bases: Vec<u64> = (0..n)
            .map(|k| (k as u64) * 4 * way + (k as u64) * (way / n as u64 / 256 * 256))
            .collect();
        let r = simulate_streams(&mut c, &bases, 8, 10_000);
        assert!(r > 0.9, "distributed layout still thrashing: hit ratio {r}");
    }

    #[test]
    fn lru_prefers_evicting_stale_lines() {
        let mut c = LdCache::new(2, 1, 64);
        // Fill both ways of the single set.
        assert_eq!(c.access(0), Access::Miss); // line A
        assert_eq!(c.access(64), Access::Miss); // line B
        assert_eq!(c.access(0), Access::Hit); // A is now MRU
        assert_eq!(c.access(128), Access::Miss); // evicts B (LRU)
        assert_eq!(c.access(0), Access::Hit); // A survived
        assert_eq!(c.access(64), Access::Miss); // B was evicted
    }

    #[test]
    fn conflict_evictions_separate_thrashing_from_cold_misses() {
        // A single sequential stream misses only on cold lines: no valid
        // line is ever evicted within the touched footprint.
        let mut c = small_cache();
        simulate_streams(&mut c, &[0], 8, 1000); // 8 KB < 128 KB capacity
        assert!(c.misses > 0);
        assert_eq!(c.conflict_evictions, 0, "pure cold misses expected");
        // Five way-aligned arrays thrash: almost every miss evicts a line
        // another stream still needs.
        let mut c = small_cache();
        let bases = aligned_bases(5, 32 * 1024);
        simulate_streams(&mut c, &bases, 8, 10_000);
        assert!(
            c.conflict_evictions > c.misses / 2,
            "thrashing must show as conflict evictions: {} of {} misses",
            c.conflict_evictions,
            c.misses
        );
        // And the counters flow into the registry.
        let m = sunway_sim::Metrics::default();
        c.record_into(&m);
        assert_eq!(m.counter("ldcache.misses"), c.misses);
        assert_eq!(
            m.counter("ldcache.conflict_evictions"),
            c.conflict_evictions
        );
    }

    #[test]
    fn hit_ratio_bounds() {
        let mut c = small_cache();
        assert_eq!(c.hit_ratio(), 0.0);
        c.access(0);
        assert_eq!(c.hit_ratio(), 0.0);
        c.access(0);
        assert_eq!(c.hit_ratio(), 0.5);
    }

    #[test]
    fn working_set_within_capacity_fully_hits_on_second_pass() {
        let mut c = small_cache(); // 128 KB
        let n_bytes = 64 * 1024; // half capacity
                                 // First pass: cold misses.
        for i in (0..n_bytes).step_by(8) {
            c.access(i as u64);
        }
        c.reset_stats();
        // Second pass: everything resident.
        for i in (0..n_bytes).step_by(8) {
            c.access(i as u64);
        }
        assert_eq!(c.misses, 0, "resident working set must not miss");
    }
}
