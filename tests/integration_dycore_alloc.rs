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

#[test]
fn step_allocations_do_not_scale_with_the_mesh() {
    // The count differs between tracer counts and between a step that only
    // accumulates mass flux and one that transports the tracers (each kernel
    // dispatch builds a registry key), but for a given kind of step it must
    // not depend on the mesh, and no step may allocate field-sized buffers.
    let mut per_kind = Vec::new();
    for ntracers in [1, 3] {
        for (what, dyn_per_trac, nth) in [
            ("transport every step", 1, 3),
            ("accumulating step of an 8-step cycle", 8, 3),
            ("transporting step of an 8-step cycle", 8, 8),
        ] {
            let (small, small_bytes) = step_allocs(2, ntracers, dyn_per_trac, nth);
            let (large, large_bytes) = step_allocs(3, ntracers, dyn_per_trac, nth);
            assert_eq!(
                small, large,
                "{ntracers} tracer(s), {what}: allocations per step grew with the mesh \
                 (level 2: {small}, level 3: {large})"
            );
            for (level, bytes) in [(2, small_bytes), (3, large_bytes)] {
                assert!(
                    bytes < 64 * 1024,
                    "{ntracers} tracer(s), {what}, level {level}: {bytes} B allocated in one step"
                );
            }
            per_kind.push(small);
        }
    }
    // An accumulating step dispatches no tracer kernel at all, so it
    // allocates less than any transporting one and the same for any number
    // of tracers; the transporting step of a cycle adds two dispatches (the
    // flux mean and its divergence) to a per-step transport.
    let [every1, acc1, flush1, every3, acc3, flush3] = per_kind[..] else {
        unreachable!("six kinds of step measured")
    };
    assert!(acc1 < every1 && acc3 < every3, "{per_kind:?}");
    assert_eq!(acc1, acc3, "{per_kind:?}");
    assert!(flush1 > every1 && flush3 > every3, "{per_kind:?}");
}
