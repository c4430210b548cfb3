//! The memory-address-distributing pool allocator of §3.3.3 / Fig. 6b:
//! "a memory-address-distributor enabled pool-based memory allocator to
//! replace the original malloc function. This allocator ensures that the
//! starting addresses of arrays are uniformly distributed across cache
//! lanes."
//!
//! The allocator manages a simulated (or real, via offsets into one backing
//! pool) address space. Allocations are rounded up to cache lines and each
//! successive allocation's *set index* is advanced by `sets / slots`, so `k`
//! concurrently streamed arrays start in `k` different cache lanes.

use crate::arch::SunwaySpec;

/// Allocation strategy, for the Fig. 9 "DST" ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Original malloc behaviour: way-aligned bases (thrash-prone).
    Aligned,
    /// The paper's distributor: bases staggered across cache lanes.
    Distributed,
}

/// Pool-based allocator handing out simulated byte addresses.
#[derive(Debug, Clone)]
pub struct PoolAllocator {
    pub policy: AllocPolicy,
    line: usize,
    sets: usize,
    ways: usize,
    /// Number of distribution slots (how many lanes to spread across).
    slots: usize,
    next_slot: usize,
    cursor: u64,
    allocations: Vec<(u64, usize)>,
}

impl PoolAllocator {
    pub fn new(policy: AllocPolicy, spec: &SunwaySpec, slots: usize) -> Self {
        assert!(slots >= 1);
        PoolAllocator {
            policy,
            line: spec.ldcache_line,
            sets: spec.ldcache_sets(),
            ways: spec.ldcache_ways,
            slots,
            next_slot: 0,
            cursor: 0,
            allocations: Vec::new(),
        }
    }

    /// Allocate `size` bytes; returns the base address.
    pub fn alloc(&mut self, size: usize) -> u64 {
        let way_bytes = (self.sets * self.line) as u64;
        let base = match self.policy {
            AllocPolicy::Aligned => {
                // Round the cursor up to a way boundary — the pathological
                // behaviour of a buddy-style malloc on large arrays.
                self.cursor.div_ceil(way_bytes) * way_bytes
            }
            AllocPolicy::Distributed => {
                // Advance to the next way boundary, then offset into the
                // assigned lane slot.
                let aligned = self.cursor.div_ceil(way_bytes) * way_bytes;
                let lane_stride = (self.sets / self.slots).max(1) * self.line;
                let off = (self.next_slot as u64) * lane_stride as u64;
                self.next_slot = (self.next_slot + 1) % self.slots;
                aligned + off
            }
        };
        let rounded = size.div_ceil(self.line) * self.line;
        self.cursor = base + rounded as u64;
        self.allocations.push((base, size));
        base
    }

    /// Free all allocations (pool semantics: arena reset between solver
    /// phases).
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.next_slot = 0;
        self.allocations.clear();
    }

    /// Set indices (cache lanes) of all live allocation bases.
    pub fn base_sets(&self) -> Vec<usize> {
        self.allocations
            .iter()
            .map(|&(b, _)| ((b / self.line as u64) % self.sets as u64) as usize)
            .collect()
    }

    pub fn bases(&self) -> Vec<u64> {
        self.allocations.iter().map(|&(b, _)| b).collect()
    }

    /// Uniformity metric of base-address distribution across lanes: the
    /// normalized maximum bin count over `slots` equal lane bins (1.0 =
    /// everything in one lane, 1/slots = perfectly uniform).
    ///
    /// An empty pool has no distribution to measure, so the result is
    /// `f64::NAN` — not `0.0`, which would read as "better than perfectly
    /// uniform" (the metric's documented floor is `1/slots`).
    pub fn lane_concentration(&self) -> f64 {
        if self.allocations.is_empty() {
            return f64::NAN;
        }
        let mut bins = vec![0usize; self.slots];
        for s in self.base_sets() {
            bins[s * self.slots / self.sets] += 1;
        }
        *bins.iter().max().unwrap() as f64 / self.allocations.len() as f64
    }

    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of live allocations whose base landed on a cache set (lane)
    /// already taken by an earlier allocation — the thrash-risk count.
    /// 0 means every base starts in its own lane (the distributor's goal);
    /// the aligned policy reports `n − 1` for `n` same-size large arrays,
    /// since every way-aligned base maps to set 0.
    pub fn lane_conflicts(&self) -> u64 {
        let mut seen = std::collections::BTreeSet::new();
        self.base_sets()
            .into_iter()
            .filter(|&s| !seen.insert(s))
            .count() as u64
    }

    /// Fold the allocator's distribution quality into the metrics registry:
    /// `alloc.allocations` and `alloc.lane_conflicts`.
    pub fn record_into(&self, metrics: &sunway_sim::Metrics) {
        metrics.counter_add("alloc.allocations", self.allocations.len() as u64);
        metrics.counter_add("alloc.lane_conflicts", self.lane_conflicts());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldcache::{simulate_streams, LdCache};

    fn spec() -> SunwaySpec {
        SunwaySpec::next_gen()
    }

    #[test]
    fn aligned_policy_puts_every_base_in_lane_zero() {
        let mut a = PoolAllocator::new(AllocPolicy::Aligned, &spec(), 8);
        for _ in 0..6 {
            a.alloc(100 * 1024);
        }
        assert!(a.base_sets().iter().all(|&s| s == 0));
        assert_eq!(a.lane_concentration(), 1.0);
    }

    #[test]
    fn distributed_policy_spreads_bases() {
        let mut a = PoolAllocator::new(AllocPolicy::Distributed, &spec(), 8);
        for _ in 0..8 {
            a.alloc(100 * 1024);
        }
        let sets = a.base_sets();
        let distinct: std::collections::BTreeSet<usize> = sets.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            8,
            "8 allocations must land in 8 lanes: {sets:?}"
        );
        assert!(a.lane_concentration() <= 0.25);
    }

    #[test]
    fn distributor_fixes_the_fig6_thrashing() {
        let s = spec();
        let n_arrays = 7;
        let mut aligned = PoolAllocator::new(AllocPolicy::Aligned, &s, n_arrays);
        let mut dist = PoolAllocator::new(AllocPolicy::Distributed, &s, n_arrays);
        for _ in 0..n_arrays {
            aligned.alloc(256 * 1024);
            dist.alloc(256 * 1024);
        }
        let mut cache = LdCache::sw26010p(&s);
        let r_aligned = simulate_streams(&mut cache, &aligned.bases(), 8, 20_000);
        let mut cache = LdCache::sw26010p(&s);
        let r_dist = simulate_streams(&mut cache, &dist.bases(), 8, 20_000);
        assert!(r_aligned < 0.2, "aligned should thrash: {r_aligned}");
        assert!(r_dist > 0.9, "distributed should hit: {r_dist}");
    }

    #[test]
    fn allocations_do_not_overlap() {
        for policy in [AllocPolicy::Aligned, AllocPolicy::Distributed] {
            let mut a = PoolAllocator::new(policy, &spec(), 8);
            let mut spans: Vec<(u64, u64)> = Vec::new();
            for sz in [1000usize, 64 * 1024, 200 * 1024, 8, 512 * 1024] {
                let b = a.alloc(sz);
                spans.push((b, b + sz as u64));
            }
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {spans:?}");
            }
        }
    }

    #[test]
    fn reset_recycles_the_pool() {
        let mut a = PoolAllocator::new(AllocPolicy::Distributed, &spec(), 4);
        let b1 = a.alloc(4096);
        a.reset();
        let b2 = a.alloc(4096);
        assert_eq!(b1, b2);
    }

    #[test]
    fn empty_pool_concentration_is_nan_not_zero() {
        for policy in [AllocPolicy::Aligned, AllocPolicy::Distributed] {
            let a = PoolAllocator::new(policy, &spec(), 8);
            assert!(a.lane_concentration().is_nan());
            // And after a reset the metric goes back to undefined, not 0.0.
            let mut a = a;
            a.alloc(4096);
            assert!(!a.lane_concentration().is_nan());
            a.reset();
            assert!(a.lane_concentration().is_nan());
        }
    }

    #[test]
    fn lane_conflicts_flag_aligned_but_not_distributed_layouts() {
        let s = spec();
        let n = 7;
        let mut aligned = PoolAllocator::new(AllocPolicy::Aligned, &s, n);
        let mut dist = PoolAllocator::new(AllocPolicy::Distributed, &s, n);
        for _ in 0..n {
            aligned.alloc(256 * 1024);
            dist.alloc(256 * 1024);
        }
        assert_eq!(aligned.lane_conflicts(), (n - 1) as u64);
        assert_eq!(dist.lane_conflicts(), 0);
        let m = sunway_sim::Metrics::default();
        aligned.record_into(&m);
        assert_eq!(m.counter("alloc.allocations"), n as u64);
        assert_eq!(m.counter("alloc.lane_conflicts"), (n - 1) as u64);
    }

    #[test]
    fn single_slot_pool_is_fully_concentrated() {
        // With one distribution slot the floor and ceiling coincide: every
        // base lands in the single bin, so concentration is exactly 1.0.
        for policy in [AllocPolicy::Aligned, AllocPolicy::Distributed] {
            let mut a = PoolAllocator::new(policy, &spec(), 1);
            a.alloc(64 * 1024);
            assert_eq!(a.lane_concentration(), 1.0);
            for _ in 0..5 {
                a.alloc(100 * 1024);
            }
            assert_eq!(a.lane_concentration(), 1.0);
        }
    }
}
