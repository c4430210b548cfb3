//! A HEVI step allocates nothing once every kernel it dispatches has been
//! seen: per-column scratch and the per-tracer mass are reused workspace, and
//! the metrics registry builds a kernel's key on its first dispatch under a
//! span, not on every one. What the first sight costs is the same at every
//! mesh size. A shallow-water RK3 step — plain, or with its first stage split
//! into interior and remainder — keeps its stage state and both tendencies
//! in the solver and allocates nothing either.
//!
//! One test only: the allocator's counters are process-global (see
//! `support/counting_alloc.rs`).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use grist_dycore::hevi::{NhConfig, NhSolver};
use grist_dycore::swe::{williamson_tc2, SwePhases, SweSolver};
use grist_dycore::VerticalCoord;
use grist_mesh::HexMesh;
use sunway_sim::Substrate;

/// (allocations, bytes) of `step` number `nth` (from 1) of a freshly built
/// solver.
fn step_allocs(level: u32, ntracers: usize, dyn_per_trac: usize, nth: usize) -> (u64, u64) {
    let nlev = 10;
    let config = NhConfig {
        ntracers,
        dyn_per_trac,
        ..NhConfig::default()
    };
    let mut solver = NhSolver::<f64>::with_substrate(
        HexMesh::build(level),
        VerticalCoord::uniform(nlev),
        config,
        Substrate::serial(),
    );
    let mut state = solver.isothermal_rest_state(285.0, 1.0e5);
    for e in 0..solver.mesh.n_edges() {
        let m = solver.mesh.edge_mid[e];
        let zonal = grist_mesh::Vec3::new(0.0, 0.0, 1.0).cross(m);
        for k in 0..nlev {
            state
                .u
                .set(k, e, 10.0 * zonal.dot(solver.mesh.edge_normal[e]));
        }
    }
    for _ in 1..nth {
        solver.step(&mut state, 120.0);
    }
    let ((), allocs, bytes) = counting_alloc::count(|| solver.step(&mut state, 120.0));
    (allocs, bytes)
}

/// Allocations of a warmed-up `step_rk3`, and of a warmed-up step whose
/// stage 1 runs phased over a ragged interior.
fn swe_step_allocs(level: u32) -> (u64, u64) {
    let mut solver = SweSolver::<f64>::new(HexMesh::build(level));
    let mut state = williamson_tc2::<f64>(&solver.mesh);
    let interior: Vec<u32> = (0..solver.mesh.n_cells() as u32)
        .filter(|c| c % 3 != 1)
        .collect();
    let phases = SwePhases::build(&solver.mesh, &interior);
    let mut phased = |solver: &mut SweSolver<f64>| {
        solver.step_rk3_with_stage1(&mut state, 300.0, |sv, st, th, tu| {
            sv.tendencies_subset(st, th, tu, &phases.interior);
            sv.tendencies_subset(st, th, tu, &phases.remainder);
        })
    };
    phased(&mut solver);
    let ((), phased_allocs, _) = counting_alloc::count(|| phased(&mut solver));
    let ((), plain_allocs, _) = counting_alloc::count(|| solver.step_rk3(&mut state, 300.0));
    (plain_allocs, phased_allocs)
}

#[test]
fn step_allocations_do_not_scale_with_the_mesh() {
    for level in [2, 3] {
        assert_eq!(
            swe_step_allocs(level),
            (0, 0),
            "level {level}: (plain, phased) shallow-water steps allocated"
        );
    }
    for ntracers in [1, 3] {
        for (what, dyn_per_trac, nth, expect_none) in [
            ("transport every step", 1, 3, true),
            ("accumulating step of an 8-step cycle", 8, 11, true),
            // Step 8 is the first to dispatch the tracer kernels: their
            // registry keys are built then, and only then.
            ("first transporting step of an 8-step cycle", 8, 8, false),
            ("later transporting step of an 8-step cycle", 8, 16, true),
        ] {
            let (small, small_bytes) = step_allocs(2, ntracers, dyn_per_trac, nth);
            let (large, large_bytes) = step_allocs(3, ntracers, dyn_per_trac, nth);
            assert_eq!(
                (small, small_bytes),
                (large, large_bytes),
                "{ntracers} tracer(s), {what}: allocations per step grew with the mesh \
                 (level 2: {small}, level 3: {large})"
            );
            if expect_none {
                assert_eq!(small, 0, "{ntracers} tracer(s), {what}: {small_bytes} B");
            } else {
                // Nine kernel names new to the registry, a key and at most a
                // table growth each: nothing field-sized.
                assert!(
                    (1..=20).contains(&small) && small_bytes < 2048,
                    "{ntracers} tracer(s), {what}: {small} allocations, {small_bytes} B"
                );
            }
        }
    }
}
