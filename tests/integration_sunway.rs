//! Cross-crate integration tests of the Sunway performance stack: the
//! dycore's cost descriptors feeding the roofline model, the LDCache/
//! distributor pipeline, and omnicopy inside a job-server offload.

use grist_dycore::kernels::{
    calc_coriolis_term_cost, compute_rrr_cost, grad_kinetic_energy_cost,
    primal_normal_flux_edge_cost, tracer_flux_limiter_cost,
};
use std::sync::atomic::Ordering;
use sunway_sim::omnicopy::{omnicopy, CopyStats, LdmArena, Space};
use sunway_sim::perf::{kernel_time, ExecTarget, KernelSpec, PerfModel};
use sunway_sim::{JobServer, SunwaySpec};

/// Translate a dycore cost descriptor into the perf model's kernel spec.
fn to_spec(name: &'static str, cost: grist_dycore::kernels::KernelCost) -> KernelSpec {
    KernelSpec {
        name,
        points: cost.points,
        flops_per_point: cost.flops_per_point,
        expensive_per_point: cost.expensive_per_point,
        arrays: cost.arrays,
        has_mixed_variant: cost.has_mixed_variant,
    }
}

#[test]
fn dycore_cost_descriptors_drive_the_fig9_model() {
    let spec = SunwaySpec::next_gen();
    let model = PerfModel::default();
    let (nc, ne, nlev) = (40_962, 122_880, 30);
    let kernels = vec![
        to_spec(
            "grad_kinetic_energy",
            grad_kinetic_energy_cost::<f64>(ne, nlev),
        ),
        to_spec(
            "primal_normal_flux_edge",
            primal_normal_flux_edge_cost::<f64>(ne, nlev),
        ),
        to_spec("compute_rrr", compute_rrr_cost::<f64>(nc, nlev)),
        to_spec("calc_coriolis_term", calc_coriolis_term_cost(ne, nlev)),
        to_spec(
            "tracer_transport_hori_flux_limiter",
            tracer_flux_limiter_cost::<f64>(ne, nlev),
        ),
    ];
    for k in &kernels {
        let base = kernel_time(k, ExecTarget::MpeDp, &spec, &model, None);
        let best = kernel_time(k, ExecTarget::CpeMixDst, &spec, &model, None);
        let speedup = base / best;
        assert!(
            (5.0..150.0).contains(&speedup),
            "{}: full-optimization speedup {speedup} out of the plausible band",
            k.name
        );
    }
    // The paper's ordering claims.
    let s = |name: &str, t: ExecTarget| {
        let k = kernels.iter().find(|k| k.name == name).unwrap();
        kernel_time(k, ExecTarget::MpeDp, &spec, &model, None)
            / kernel_time(k, t, &spec, &model, None)
    };
    assert!(
        s("primal_normal_flux_edge", ExecTarget::CpeMixDst)
            > s("primal_normal_flux_edge", ExecTarget::CpeDpDst),
        "divide/pow-heavy kernel must benefit from MIX"
    );
    let cor_gain =
        s("calc_coriolis_term", ExecTarget::CpeMixDst) / s("calc_coriolis_term", ExecTarget::CpeDp);
    assert!(
        (0.95..1.1).contains(&cor_gain),
        "coriolis should gain ~nothing from MIX+DST: {cor_gain}"
    );
}

#[test]
fn omnicopy_stages_columns_through_ldm_inside_an_offload() {
    // The §3.3.2/§3.3.4 pattern: "we copy a number of variables onto CPE
    // stack with omnicopy function until the cache thrashing is eliminated."
    let server = JobServer::new(8);
    let stats = CopyStats::default();
    let n_cols = 256;
    let nlev = 30;
    let main_mem: Vec<f64> = (0..n_cols * nlev).map(|i| i as f64 * 0.5).collect();
    let results: Vec<std::sync::Mutex<f64>> =
        (0..n_cols).map(|_| std::sync::Mutex::new(0.0)).collect();

    server.target_parallel_for(n_cols, 16, &|c| {
        // Per-CPE LDM scratch within the 128 KB budget.
        let mut arena = LdmArena::with_capacity(128 * 1024);
        let mut ldm_col: Vec<f64> = arena.alloc(nlev).expect("fits in LDM");
        omnicopy(
            &mut ldm_col,
            Space::Ldm,
            &main_mem[c * nlev..(c + 1) * nlev],
            Space::Main,
            &stats,
        );
        *results[c].lock().unwrap() = ldm_col.iter().sum();
    });

    assert_eq!(stats.dma_transfers.load(Ordering::Relaxed), n_cols as u64);
    assert_eq!(
        stats.dma_bytes.load(Ordering::Relaxed),
        (n_cols * nlev * 8) as u64
    );
    for c in 0..n_cols {
        let expected: f64 = main_mem[c * nlev..(c + 1) * nlev].iter().sum();
        assert_eq!(*results[c].lock().unwrap(), expected);
    }
}

#[test]
fn ldm_budget_rejects_oversized_column_blocks() {
    let spec = SunwaySpec::next_gen();
    let mut arena = LdmArena::new(&spec);
    // 60-level column block of 40 f64 variables = 19.2 KB — fits.
    assert!(arena.alloc::<f64>(60 * 40).is_ok());
    // A full G6 cell block would not.
    assert!(arena.alloc::<f64>(40_962 * 30).is_err());
}

#[test]
fn bfs_reordering_improves_measured_ldcache_hits() {
    // §3.1.3's claim, measured: run the real edge→cell indirect stream of a
    // gradient kernel through the LDCache simulator under BFS vs random cell
    // ordering.
    use grist_mesh::{bfs_cell_order, HexMesh, Permutation};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use sunway_sim::LdCache;

    // G6: the 40,962-cell array (320 KB as f64) overflows the 128 KB
    // LDCache, so ordering decides the hit ratio.
    let mesh = HexMesh::build(6);
    let spec = SunwaySpec::next_gen();
    let stream = |perm: &Permutation| -> f64 {
        let mut cache = LdCache::sw26010p(&spec);
        for e in 0..mesh.n_edges() {
            let [c1, c2] = mesh.edge_cells[e];
            cache.access(perm.new_of_old[c1 as usize] as u64 * 8);
            cache.access((1 << 24) + perm.new_of_old[c2 as usize] as u64 * 8);
        }
        cache.hit_ratio()
    };
    let bfs = stream(&bfs_cell_order(&mesh, 0));
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut shuffled: Vec<u32> = (0..mesh.n_cells() as u32).collect();
    shuffled.shuffle(&mut rng);
    let random = stream(&Permutation::from_order(shuffled));
    assert!(
        bfs > random + 0.1,
        "BFS hit ratio {bfs:.3} must clearly beat random {random:.3}"
    );
    assert!(bfs > 0.8, "BFS stream should be cache-friendly: {bfs:.3}");
}

#[test]
fn mixed_precision_halves_modeled_memory_time_workspace_wide() {
    let spec = SunwaySpec::next_gen();
    let model = PerfModel::default();
    let k64 = to_spec("grad_ke", grad_kinetic_energy_cost::<f64>(122_880, 30));
    let k32 = to_spec("grad_ke", grad_kinetic_energy_cost::<f32>(122_880, 30));
    // Same flops, half the bytes.
    assert_eq!(k64.flops_per_point, k32.flops_per_point);
    let t64 = kernel_time(&k64, ExecTarget::CpeDpDst, &spec, &model, None);
    let t32 = kernel_time(&k32, ExecTarget::CpeMixDst, &spec, &model, None);
    assert!((1.4..2.3).contains(&(t64 / t32)), "MIX ratio {}", t64 / t32);
}
