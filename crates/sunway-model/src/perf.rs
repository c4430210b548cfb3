//! Roofline-style performance model for dycore kernels on SW26010P — the
//! machinery behind Fig. 9 and the scaling projections.
//!
//! The model encodes the paper's §4.6 observations:
//!
//! * "the MPE code is computation-bound" — the MPE runs scalar, latency-
//!   dominated code; mixed precision barely helps it because f32 and f64
//!   cheap flops cost the same on Sunway; only division/elemental functions
//!   speed up.
//! * "CPE code appears to be constrained by memory bandwidth, and mixed
//!   precision reduces data size, conserving memory bandwidth and increasing
//!   cache hit ratio" — the 64-CPE cluster shares 51.2 GB/s; its time is
//!   `max(compute, traffic/bandwidth)`, where traffic is inflated by LDCache
//!   misses (a miss fetches a whole 256-B line) as measured by the cache
//!   simulator.

use crate::arch::SunwaySpec;
use crate::distributor::{AllocPolicy, PoolAllocator};
use crate::ldcache::{simulate_streams, LdCache};
use sunway_sim::{IterSpace, KernelSpec, Metrics};

/// Element counts of the mesh (or of one process's share of it) a kernel
/// runs over, and its levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    pub cells: usize,
    pub edges: usize,
    pub verts: usize,
    pub nlev: usize,
}

impl Domain {
    /// Points of `space`: its elements × levels.
    pub fn points(&self, space: IterSpace) -> usize {
        let elements = match space {
            IterSpace::Cells => self.cells,
            IterSpace::Edges => self.edges,
            IterSpace::Vertices => self.verts,
        };
        elements * self.nlev
    }
}

/// The execution variants of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecTarget {
    /// Baseline: double precision on the management core.
    MpeDp,
    /// Double precision on 64 CPEs, malloc-aligned arrays.
    CpeDp,
    /// + memory address distribution (DST).
    CpeDpDst,
    /// Mixed precision on 64 CPEs, aligned arrays.
    CpeMix,
    /// Mixed precision + DST — the full optimization of the paper.
    CpeMixDst,
}

impl ExecTarget {
    pub fn label(self) -> &'static str {
        match self {
            ExecTarget::MpeDp => "MPE-DP",
            ExecTarget::CpeDp => "CPE-DP",
            ExecTarget::CpeDpDst => "CPE-DP+DST",
            ExecTarget::CpeMix => "CPE-MIX",
            ExecTarget::CpeMixDst => "CPE-MIX+DST",
        }
    }

    pub fn fig9_all() -> [ExecTarget; 5] {
        [
            ExecTarget::MpeDp,
            ExecTarget::CpeDp,
            ExecTarget::CpeDpDst,
            ExecTarget::CpeMix,
            ExecTarget::CpeMixDst,
        ]
    }

    fn elem_bytes(self, kernel_mixed: bool) -> usize {
        match self {
            ExecTarget::MpeDp | ExecTarget::CpeDp | ExecTarget::CpeDpDst => 8,
            ExecTarget::CpeMix | ExecTarget::CpeMixDst => {
                if kernel_mixed {
                    4
                } else {
                    8
                }
            }
        }
    }

    fn policy(self) -> AllocPolicy {
        match self {
            ExecTarget::CpeDpDst | ExecTarget::CpeMixDst => AllocPolicy::Distributed,
            _ => AllocPolicy::Aligned,
        }
    }
}

// Calibration constants of the model (DESIGN.md §6).

/// Sustained scalar MPE throughput \[cheap-flop slots/s\] — far below peak:
/// in-order scalar Fortran with indirect addressing.
const MPE_SUSTAINED: f64 = 0.5e9;
/// Expensive-op latency in cheap-flop slots, f64.
const EXPENSIVE_SLOTS_F64: f64 = 8.0;
/// Same in f32 ("except for division and elemental functions").
const EXPENSIVE_SLOTS_F32: f64 = 5.0;
/// Scalar-load cost per streamed array per point on the MPE (the MPE pays
/// cache/memory latency even when the CPE cluster streams).
const MPE_MEM_SLOTS_PER_ARRAY: f64 = 1.5;
/// Per-CPE sustained cheap-flop rate \[flops/s\].
const CPE_SUSTAINED: f64 = 8.0e9;
/// Management overhead multiplier on CPE memory traffic for kernels with
/// many concurrent streams (DMA descriptor pressure).
const MANY_STREAM_OVERHEAD: f64 = 2.0;
/// Kernel launch + barrier cost per CPE offload \[s\].
const LAUNCH_OVERHEAD: f64 = 5.0e-6;

/// Measure the LDCache hit ratio of a kernel's stream pattern under an
/// allocation policy, using the cache and allocator simulators. With a
/// registry, the simulated cache's hit/miss/conflict-eviction totals and the
/// allocator's lane-conflict count land in it (`ldcache.*`, `alloc.*`).
pub fn stream_hit_ratio(
    spec: &SunwaySpec,
    arrays: usize,
    elem_bytes: usize,
    policy: AllocPolicy,
    metrics: Option<&Metrics>,
) -> f64 {
    let mut alloc = PoolAllocator::new(policy, spec, arrays.max(1));
    let bases: Vec<u64> = (0..arrays).map(|_| alloc.alloc(512 * 1024)).collect();
    let mut cache = LdCache::sw26010p(spec);
    // Enough iterations to wash out cold misses.
    let ratio = simulate_streams(&mut cache, &bases, elem_bytes, 20_000);
    if let Some(m) = metrics {
        cache.record_into(m);
        alloc.record_into(m);
    }
    ratio
}

/// Modeled execution time of `kernel` over `domain` on `target`
/// \[seconds\]. With a registry, CPE targets fold the LDCache and allocator
/// simulators' hit/miss/conflict totals into it (the MPE path touches no
/// simulated cache, so it records nothing).
pub fn kernel_time(
    kernel: &KernelSpec,
    domain: &Domain,
    target: ExecTarget,
    spec: &SunwaySpec,
    metrics: Option<&Metrics>,
) -> f64 {
    let pts = domain.points(kernel.space) as f64;
    let elem = target.elem_bytes(kernel.mixed);
    let exp_slots = if elem == 4 {
        EXPENSIVE_SLOTS_F32
    } else {
        EXPENSIVE_SLOTS_F64
    };
    let slots_per_point = kernel.flops_per_point + kernel.expensive_per_point * exp_slots;

    match target {
        ExecTarget::MpeDp => {
            let mem_slots = kernel.arrays as f64 * MPE_MEM_SLOTS_PER_ARRAY;
            // f64 expensive latency on the MPE regardless of variant.
            let mpe_slots = kernel.flops_per_point
                + kernel.expensive_per_point * EXPENSIVE_SLOTS_F64
                + mem_slots;
            pts * mpe_slots / MPE_SUSTAINED
        }
        _ => {
            let compute = pts * slots_per_point / (spec.cpes_per_cg as f64 * CPE_SUSTAINED);
            let hit = stream_hit_ratio(spec, kernel.arrays, elem, target.policy(), metrics);
            // A miss fetches a whole cache line; traffic per access is
            // line·(1−hit) (the streaming ideal 1−hit = elem/line recovers
            // exactly elem bytes per access).
            let mut traffic = pts * kernel.arrays as f64 * spec.ldcache_line as f64 * (1.0 - hit);
            if kernel.arrays > spec.ldcache_ways {
                traffic *= MANY_STREAM_OVERHEAD;
            }
            let memory = traffic / spec.ddr_bandwidth;
            compute.max(memory) + LAUNCH_OVERHEAD
        }
    }
}

/// Fig. 9 row: speedups of every CPE variant over the MPE-DP baseline.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    pub name: &'static str,
    pub speedup: Vec<(ExecTarget, f64)>,
}

/// Build the full Fig. 9 table for a set of kernels over `domain`.
pub fn fig9_table(kernels: &[KernelSpec], domain: &Domain, spec: &SunwaySpec) -> Vec<Fig9Row> {
    kernels
        .iter()
        .map(|k| {
            let base = kernel_time(k, domain, ExecTarget::MpeDp, spec, None);
            let speedup = ExecTarget::fig9_all()[1..]
                .iter()
                .map(|&t| (t, base / kernel_time(k, domain, t, spec, None)))
                .collect();
            Fig9Row {
                name: k.name,
                speedup,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seven-array cell kernel: more streams than the LDCache has ways.
    const SEVEN_ARRAYS: KernelSpec = KernelSpec {
        name: "seven_arrays",
        space: IterSpace::Cells,
        flops_per_point: 8.0,
        expensive_per_point: 1.0,
        arrays: 7,
        mixed: true,
    };

    /// The G6 grid, 30 levels.
    const G6: Domain = Domain {
        cells: 40_962,
        edges: 122_880,
        verts: 81_920,
        nlev: 30,
    };

    #[test]
    fn points_follow_the_iteration_space() {
        assert_eq!(G6.points(IterSpace::Cells), 40_962 * 30);
        assert_eq!(G6.points(IterSpace::Edges), 122_880 * 30);
        assert_eq!(G6.points(IterSpace::Vertices), 81_920 * 30);
        let spec = SunwaySpec::next_gen();
        let on_edges = KernelSpec {
            space: IterSpace::Edges,
            ..SEVEN_ARRAYS
        };
        let t = |k: &KernelSpec| kernel_time(k, &G6, ExecTarget::MpeDp, &spec, None);
        assert_eq!(t(&on_edges) / t(&SEVEN_ARRAYS), 122_880.0 / 40_962.0);
    }

    #[test]
    fn metered_kernel_time_matches_and_fills_cache_counters() {
        let spec = SunwaySpec::next_gen();
        let m = Metrics::default();
        // MPE path: no simulated cache, no counters.
        let time = |t, reg| kernel_time(&SEVEN_ARRAYS, &G6, t, &spec, reg);
        assert_eq!(
            time(ExecTarget::MpeDp, Some(&m)),
            time(ExecTarget::MpeDp, None)
        );
        assert_eq!(m.counter("ldcache.misses"), 0);
        // CPE path: identical time, counters populated.
        assert_eq!(
            time(ExecTarget::CpeMix, Some(&m)),
            time(ExecTarget::CpeMix, None)
        );
        assert!(m.counter("ldcache.hits") + m.counter("ldcache.misses") > 0);
        assert_eq!(m.counter("alloc.allocations"), SEVEN_ARRAYS.arrays as u64);
        // The un-distributed CpeMix target thrashes 7 aligned arrays.
        assert!(m.counter("ldcache.conflict_evictions") > 0);
    }

    #[test]
    fn fig9_table_is_complete() {
        let spec = SunwaySpec::next_gen();
        let kernels = [
            SEVEN_ARRAYS,
            KernelSpec {
                name: "three_arrays_f64",
                arrays: 3,
                mixed: false,
                ..SEVEN_ARRAYS
            },
        ];
        let table = fig9_table(&kernels, &G6, &spec);
        assert_eq!(table.len(), kernels.len());
        for row in &table {
            assert_eq!(row.speedup.len(), 4);
            assert!(row.speedup.iter().all(|&(_, s)| s.is_finite() && s > 0.0));
        }
    }
}
