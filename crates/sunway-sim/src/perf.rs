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

/// Architecture-independent kernel description (mirrors the cost descriptors
/// exported by `grist-dycore::kernels`).
#[derive(Debug, Clone, Copy)]
pub struct KernelSpec {
    pub name: &'static str,
    /// Output points (elements × levels).
    pub points: usize,
    /// Cheap flops per point.
    pub flops_per_point: f64,
    /// Expensive ops (div/pow/exp) per point.
    pub expensive_per_point: f64,
    /// Distinct arrays streamed per point.
    pub arrays: usize,
    /// Whether a mixed-precision variant exists (Fig. 9: `calc_coriolis_term`
    /// has none).
    pub has_mixed_variant: bool,
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

    fn elem_bytes(self, spec_has_mixed: bool) -> usize {
        match self {
            ExecTarget::MpeDp | ExecTarget::CpeDp | ExecTarget::CpeDpDst => 8,
            ExecTarget::CpeMix | ExecTarget::CpeMixDst => {
                if spec_has_mixed {
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

/// Calibration constants of the model (documented in DESIGN.md §6).
#[derive(Debug, Clone, Copy)]
pub struct PerfModel {
    /// Sustained scalar MPE throughput \[cheap-flop slots/s\] — far below
    /// peak: in-order scalar Fortran with indirect addressing.
    pub mpe_sustained: f64,
    /// Expensive-op latency in cheap-flop slots, f64.
    pub expensive_slots_f64: f64,
    /// Same in f32 ("except for division and elemental functions").
    pub expensive_slots_f32: f64,
    /// Scalar-load cost per streamed array per point on the MPE (the MPE
    /// pays cache/memory latency even when the CPE cluster streams).
    pub mpe_mem_slots_per_array: f64,
    /// Per-CPE sustained cheap-flop rate \[flops/s\].
    pub cpe_sustained: f64,
    /// Management overhead multiplier on CPE memory traffic for kernels with
    /// many concurrent streams (DMA descriptor pressure).
    pub many_stream_overhead: f64,
    /// Kernel launch + barrier cost per CPE offload \[s\].
    pub launch_overhead: f64,
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel {
            mpe_sustained: 0.5e9,
            expensive_slots_f64: 8.0,
            expensive_slots_f32: 5.0,
            mpe_mem_slots_per_array: 1.5,
            cpe_sustained: 8.0e9,
            many_stream_overhead: 2.0,
            launch_overhead: 5.0e-6,
        }
    }
}

/// Measure the LDCache hit ratio of a kernel's stream pattern under an
/// allocation policy, using the cache and allocator simulators. With a
/// registry, the simulated cache's hit/miss/conflict-eviction totals and the
/// allocator's lane-conflict count land in it (`ldcache.*`, `alloc.*`).
pub fn stream_hit_ratio(
    spec: &SunwaySpec,
    arrays: usize,
    elem_bytes: usize,
    policy: AllocPolicy,
    metrics: Option<&crate::metrics::Metrics>,
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

/// Modeled execution time of `kernel` on `target` \[seconds\]. With a
/// registry, CPE targets fold the LDCache and allocator simulators'
/// hit/miss/conflict totals into it (the MPE path touches no simulated
/// cache, so it records nothing).
pub fn kernel_time(
    kernel: &KernelSpec,
    target: ExecTarget,
    spec: &SunwaySpec,
    model: &PerfModel,
    metrics: Option<&crate::metrics::Metrics>,
) -> f64 {
    let pts = kernel.points as f64;
    let elem = target.elem_bytes(kernel.has_mixed_variant);
    let exp_slots = if elem == 4 {
        model.expensive_slots_f32
    } else {
        model.expensive_slots_f64
    };
    let slots_per_point = kernel.flops_per_point + kernel.expensive_per_point * exp_slots;

    match target {
        ExecTarget::MpeDp => {
            let mem_slots = kernel.arrays as f64 * model.mpe_mem_slots_per_array;
            // f64 expensive latency on the MPE regardless of variant.
            let mpe_slots = kernel.flops_per_point
                + kernel.expensive_per_point * model.expensive_slots_f64
                + mem_slots;
            pts * mpe_slots / model.mpe_sustained
        }
        _ => {
            let compute = pts * slots_per_point / (spec.cpes_per_cg as f64 * model.cpe_sustained);
            let hit = stream_hit_ratio(spec, kernel.arrays, elem, target.policy(), metrics);
            // A miss fetches a whole cache line; traffic per access is
            // line·(1−hit) (the streaming ideal 1−hit = elem/line recovers
            // exactly elem bytes per access).
            let mut traffic = pts * kernel.arrays as f64 * spec.ldcache_line as f64 * (1.0 - hit);
            if kernel.arrays > spec.ldcache_ways {
                traffic *= model.many_stream_overhead;
            }
            let memory = traffic / spec.ddr_bandwidth;
            compute.max(memory) + model.launch_overhead
        }
    }
}

/// Fig. 9 row: speedups of every CPE variant over the MPE-DP baseline.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    pub name: &'static str,
    pub speedup: Vec<(ExecTarget, f64)>,
}

/// Build the full Fig. 9 table for a set of kernels.
pub fn fig9_table(kernels: &[KernelSpec], spec: &SunwaySpec, model: &PerfModel) -> Vec<Fig9Row> {
    kernels
        .iter()
        .map(|k| {
            let base = kernel_time(k, ExecTarget::MpeDp, spec, model, None);
            let speedup = ExecTarget::fig9_all()[1..]
                .iter()
                .map(|&t| (t, base / kernel_time(k, t, spec, model, None)))
                .collect();
            Fig9Row {
                name: k.name,
                speedup,
            }
        })
        .collect()
}

/// The four named kernels of Fig. 9 at a given grid size (edges/cells ×
/// levels), with instruction mixes matching `grist-dycore::kernels`.
pub fn fig9_kernels(n_cells: usize, n_edges: usize, nlev: usize) -> Vec<KernelSpec> {
    vec![
        KernelSpec {
            name: "tracer_transport_hori_flux_limiter",
            points: n_edges * nlev,
            flops_per_point: 14.0,
            expensive_per_point: 1.0,
            arrays: 6,
            has_mixed_variant: true,
        },
        KernelSpec {
            name: "compute_rrr",
            points: n_cells * nlev,
            flops_per_point: 8.0,
            expensive_per_point: 1.0,
            arrays: 7,
            has_mixed_variant: true,
        },
        KernelSpec {
            name: "primal_normal_flux_edge",
            points: n_edges * nlev,
            flops_per_point: 9.0,
            expensive_per_point: 2.0,
            arrays: 7,
            has_mixed_variant: true,
        },
        KernelSpec {
            name: "calc_coriolis_term",
            points: n_edges * nlev,
            flops_per_point: 1.0,
            expensive_per_point: 0.0,
            arrays: 3,
            has_mixed_variant: false,
        },
        KernelSpec {
            name: "grad_kinetic_energy",
            points: n_edges * nlev,
            flops_per_point: 3.0,
            expensive_per_point: 0.0,
            arrays: 4,
            has_mixed_variant: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SunwaySpec, PerfModel, Vec<KernelSpec>) {
        let spec = SunwaySpec::next_gen();
        let model = PerfModel::default();
        // G6-per-CG scale: 41k cells / 128 CGs ≈ 320 cells, 960 edges, 30 lev
        let kernels = fig9_kernels(40_962, 122_880, 30);
        (spec, model, kernels)
    }

    fn speedup(k: &KernelSpec, t: ExecTarget, spec: &SunwaySpec, model: &PerfModel) -> f64 {
        kernel_time(k, ExecTarget::MpeDp, spec, model, None) / kernel_time(k, t, spec, model, None)
    }

    #[test]
    fn full_optimization_lands_in_the_20_to_70x_band() {
        // Artifact appendix: "an acceleration ratio of about 20-70x compared
        // to MPE double-precision version for major kernels".
        let (spec, model, kernels) = setup();
        for k in &kernels {
            let s = speedup(k, ExecTarget::CpeMixDst, &spec, &model);
            assert!(
                (10.0..120.0).contains(&s),
                "{}: CPE-MIX+DST speedup {s} far outside the paper band",
                k.name
            );
        }
        // And the majority strictly within 20–70.
        let in_band = kernels
            .iter()
            .filter(|k| {
                let s = speedup(k, ExecTarget::CpeMixDst, &spec, &model);
                (15.0..85.0).contains(&s)
            })
            .count();
        assert!(in_band >= 3, "only {in_band} kernels near the 20–70x band");
    }

    #[test]
    fn dst_rescues_kernels_with_more_arrays_than_ways() {
        let (spec, model, kernels) = setup();
        let rrr = kernels.iter().find(|k| k.name == "compute_rrr").unwrap();
        let no_dst = speedup(rrr, ExecTarget::CpeMix, &spec, &model);
        let dst = speedup(rrr, ExecTarget::CpeMixDst, &spec, &model);
        assert!(
            dst > 3.0 * no_dst,
            "DST must fix thrashing for 7-array kernel: {no_dst} -> {dst}"
        );
    }

    #[test]
    fn coriolis_gains_least_from_the_optimizations() {
        // §4.6: "calc_coriolis_term, lacking mixed precision optimization and
        // accessing relatively few arrays, derives minimal benefit".
        let (spec, model, kernels) = setup();
        let cor = kernels
            .iter()
            .find(|k| k.name == "calc_coriolis_term")
            .unwrap();
        let base = speedup(cor, ExecTarget::CpeDp, &spec, &model);
        let full = speedup(cor, ExecTarget::CpeMixDst, &spec, &model);
        assert!(
            full < 1.3 * base,
            "coriolis should gain little from MIX+DST: {base} -> {full}"
        );
        // while primal_normal_flux gains a lot from MIX
        let pnf = kernels
            .iter()
            .find(|k| k.name == "primal_normal_flux_edge")
            .unwrap();
        let pnf_dp = speedup(pnf, ExecTarget::CpeDpDst, &spec, &model);
        let pnf_mix = speedup(pnf, ExecTarget::CpeMixDst, &spec, &model);
        assert!(
            pnf_mix > 1.5 * pnf_dp,
            "MIX must help divide/pow-heavy kernel"
        );
    }

    #[test]
    fn mixed_precision_barely_helps_the_mpe() {
        // §4.6: "mixed precision typically does not yield significant
        // speedup on the MPE side" — our MPE path treats f32 and f64 cheap
        // flops identically, so for flop-dominated kernels the model gives
        // exactly no speedup.
        let (spec, model, kernels) = setup();
        let ke = kernels
            .iter()
            .find(|k| k.name == "grad_kinetic_energy")
            .unwrap();
        let t64 = kernel_time(ke, ExecTarget::MpeDp, &spec, &model, None);
        // An MPE-MIX variant would differ only in expensive-op latency; ke
        // has none, so time is identical.
        assert_eq!(ke.expensive_per_point, 0.0);
        assert!(t64 > 0.0);
    }

    #[test]
    fn mix_halves_cpe_traffic_for_bandwidth_bound_kernels() {
        let (spec, model, kernels) = setup();
        let ke = kernels
            .iter()
            .find(|k| k.name == "grad_kinetic_energy")
            .unwrap();
        let t_dp = kernel_time(ke, ExecTarget::CpeDpDst, &spec, &model, None);
        let t_mix = kernel_time(ke, ExecTarget::CpeMixDst, &spec, &model, None);
        let ratio = t_dp / t_mix;
        assert!(
            (1.5..2.5).contains(&ratio),
            "f32 should ~halve memory time: {ratio}"
        );
    }

    #[test]
    fn metered_kernel_time_matches_and_fills_cache_counters() {
        let (spec, model, kernels) = setup();
        let m = crate::metrics::Metrics::default();
        let rrr = kernels.iter().find(|k| k.name == "compute_rrr").unwrap();
        // MPE path: no simulated cache, no counters.
        let time = |t, reg| kernel_time(rrr, t, &spec, &model, reg);
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
        assert_eq!(m.counter("alloc.allocations"), rrr.arrays as u64);
        // The un-distributed CpeMix target thrashes 7 aligned arrays.
        assert!(m.counter("ldcache.conflict_evictions") > 0);
    }

    #[test]
    fn fig9_table_is_complete() {
        let (spec, model, kernels) = setup();
        let table = fig9_table(&kernels, &spec, &model);
        assert_eq!(table.len(), kernels.len());
        for row in &table {
            assert_eq!(row.speedup.len(), 4);
            assert!(row.speedup.iter().all(|&(_, s)| s.is_finite() && s > 0.0));
        }
    }
}
