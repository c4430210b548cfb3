//! The HEVI step's heap traffic must not scale with the mesh: per-column
//! scratch and the per-tracer mass are reused workspace, not fresh
//! allocations. (What remains — the metrics registry may allocate per
//! dispatch — is the same at every mesh size.)
//!
//! One test only: the allocator's counters are process-global (see
//! `support/counting_alloc.rs`).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use grist_dycore::hevi::{NhConfig, NhSolver};
use grist_dycore::VerticalCoord;
use grist_mesh::HexMesh;
use sunway_sim::Substrate;

/// (allocations, bytes) of the third `step` of a freshly built solver.
fn third_step_allocs(level: u32, ntracers: usize) -> (u64, u64) {
    let nlev = 10;
    let config = NhConfig {
        ntracers,
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
    solver.step(&mut state, 120.0);
    solver.step(&mut state, 120.0);
    let ((), allocs, bytes) = counting_alloc::count(|| solver.step(&mut state, 120.0));
    (allocs, bytes)
}

#[test]
fn step_allocations_do_not_scale_with_the_mesh() {
    // The count may differ between tracer counts (each tracer adds five
    // dispatches and the registry builds a key per dispatch), but for a
    // given tracer count it must not depend on the mesh, and a step must
    // not allocate field-sized buffers.
    for ntracers in [1, 3] {
        let (small, small_bytes) = third_step_allocs(2, ntracers);
        let (large, large_bytes) = third_step_allocs(3, ntracers);
        assert_eq!(
            small, large,
            "{ntracers} tracer(s): allocations per step grew with the mesh \
             (level 2: {small}, level 3: {large})"
        );
        for (level, bytes) in [(2, small_bytes), (3, large_bytes)] {
            assert!(
                bytes < 64 * 1024,
                "{ntracers} tracer(s), level {level}: {bytes} B allocated in one step"
            );
        }
    }
}
