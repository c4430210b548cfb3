//! Cross-crate integration tests of the Sunway performance stack: the
//! dycore's cost descriptors — the kernels a step dispatches, no more and no
//! fewer — feeding the roofline model and its §4.6 mechanisms, the LDCache/
//! distributor pipeline.

use grist_dycore::hevi::{NhConfig, NhSolver, DYN_KERNELS};
use grist_dycore::tracer::FCT_KERNELS;
use grist_dycore::VerticalCoord;
use grist_mesh::HexMesh;
use std::collections::BTreeMap;
use sunway_model::perf::{fig9_table, kernel_time, Domain, ExecTarget};
use sunway_model::SunwaySpec;
use sunway_sim::KernelSpec;

/// The G6 grid, 30 levels: Fig. 9's domain.
const G6: Domain = Domain {
    cells: 40_962,
    edges: 122_880,
    verts: 81_920,
    nlev: 30,
};

/// Every kernel Fig. 9 and the SDPD model read.
fn executed() -> Vec<KernelSpec> {
    DYN_KERNELS.iter().chain(&FCT_KERNELS).copied().collect()
}

fn time(k: &KernelSpec, target: ExecTarget) -> f64 {
    kernel_time(k, &G6, target, &SunwaySpec::next_gen(), None)
}

#[test]
fn descriptors_name_exactly_the_kernels_a_step_dispatches() {
    // One `NhSolver::step` with three tracers: on the default cadence it
    // transports them; eight steps to a tracer step, it does not.
    let ntracers: u64 = 3;
    for dyn_per_trac in [1, 8] {
        let config = NhConfig {
            ntracers: ntracers as usize,
            dyn_per_trac,
            ..NhConfig::default()
        };
        let mut solver = NhSolver::<f64>::new(HexMesh::build(2), VerticalCoord::uniform(6), config);
        let mut state = solver.isothermal_rest_state(285.0, 1.0e5);
        solver.step(&mut state, 300.0);

        // Rows are span-qualified: `dycore/hevi_diagnose`.
        let mut dispatched: BTreeMap<&str, u64> = BTreeMap::new();
        let rows = solver.sub.kernel_report();
        for row in &rows {
            let name = row.name.rsplit('/').next().expect("a kernel name");
            *dispatched.entry(name).or_default() += row.calls;
        }

        let mut expected: BTreeMap<&str, u64> = DYN_KERNELS.iter().map(|k| (k.name, 1)).collect();
        if dyn_per_trac == 1 {
            // `fct_transport` once per tracer step, the other four per tracer
            // — and the pre-transport mass, a once-per-tracer-step pass over
            // three columns that no model term carries.
            let (per_step, per_tracer) = FCT_KERNELS.split_at(1);
            expected.extend(per_step.iter().map(|k| (k.name, 1)));
            expected.extend(per_tracer.iter().map(|k| (k.name, ntracers)));
            expected.insert("hevi_tracer_mass", 1);
        }
        assert_eq!(dispatched, expected, "dyn_per_trac {dyn_per_trac}");
    }
}

#[test]
fn dycore_cost_descriptors_drive_the_fig9_model() {
    let kernels = executed();
    let table = fig9_table(&kernels, &G6, &SunwaySpec::next_gen());
    assert_eq!(table.len(), 12);
    for (k, row) in kernels.iter().zip(&table) {
        assert_eq!(row.name, k.name);
        assert!(k.arrays >= 2 && k.flops_per_point > 0.0, "{}", k.name);
        assert!(
            row.speedup.iter().all(|&(_, s)| s.is_finite() && s > 0.0),
            "{}: {:?}",
            k.name,
            row.speedup
        );
        // Mixed precision never costs time.
        assert!(time(k, ExecTarget::CpeMixDst) <= time(k, ExecTarget::CpeDpDst));
    }
}

#[test]
fn dst_rescues_every_kernel_that_streams_more_than_four_arrays() {
    // Fig. 6 / §3.3.3: more concurrent streams than the LDCache has ways
    // thrash from way-aligned bases; distributed bases fix it.
    let ways = SunwaySpec::next_gen().ldcache_ways;
    let mut rescued = 0;
    for k in &executed() {
        let gain = time(k, ExecTarget::CpeDp) / time(k, ExecTarget::CpeDpDst);
        if k.arrays > ways {
            assert!(
                gain > 3.0,
                "{} ({} arrays): DST gains {gain}",
                k.name,
                k.arrays
            );
            rescued += 1;
        } else {
            assert_eq!(gain, 1.0, "{} ({} arrays) cannot thrash", k.name, k.arrays);
        }
    }
    assert!(
        rescued >= 8,
        "only {rescued} kernels stream more than {ways} arrays"
    );
}

#[test]
fn mix_changes_nothing_for_a_kernel_that_always_runs_in_f64() {
    // §4.6: a kernel without a mixed-precision variant gains nothing from
    // MIX — here the f64 equation of state, mass flux, mass / Θ update and
    // implicit solve (§3.4.2's sensitive terms).
    let f64_only: Vec<KernelSpec> = executed().into_iter().filter(|k| !k.mixed).collect();
    assert_eq!(f64_only.len(), 4);
    for k in &f64_only {
        assert_eq!(time(k, ExecTarget::CpeMix), time(k, ExecTarget::CpeDp));
        assert_eq!(
            time(k, ExecTarget::CpeMixDst),
            time(k, ExecTarget::CpeDpDst)
        );
    }
}

#[test]
fn mixed_precision_halves_modeled_memory_time_workspace_wide() {
    // §4.6: on the bandwidth-bound CPE cluster, f32 halves the bytes a mixed
    // kernel streams. A kernel with no divide or elemental function gains
    // nothing else, so its whole gain is memory time.
    let mut seen = 0;
    for k in executed()
        .iter()
        .filter(|k| k.mixed && k.expensive_per_point == 0.0)
    {
        let ratio = time(k, ExecTarget::CpeDpDst) / time(k, ExecTarget::CpeMixDst);
        assert!((1.4..2.3).contains(&ratio), "{}: MIX ratio {ratio}", k.name);
        seen += 1;
    }
    assert!(seen >= 4, "only {seen} cheap-op mixed kernels");
}

#[test]
fn bfs_reordering_improves_measured_ldcache_hits() {
    // §3.1.3's claim, measured: run the real edge→cell indirect stream of a
    // gradient kernel through the LDCache simulator under BFS vs random cell
    // ordering.
    use grist_mesh::{bfs_cell_order, Permutation};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use sunway_model::LdCache;

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
