//! Cross-crate integration tests of the parallel substrate: the SWGOMP job
//! server executing real dycore kernels and the distributed-rank
//! shallow-water run with gathered halo exchanges.

use grist_dycore::{Field2, SweSolver};
use grist_mesh::{HaloLayout, HexMesh, Partition};
use grist_runtime::{exchange_gathered, run_world, VarList};
use std::sync::atomic::Ordering;
use sunway_sim::{JobServer, Substrate};

/// Run the shallow-water TC2 case distributed over `n_ranks`, exchanging
/// halos every step, and compare the assembled field with a serial run.
fn distributed_swe_matches_serial(n_ranks: usize, steps: usize) {
    let level = 3;
    let dt = 400.0;

    // --- serial reference ---
    let mesh = HexMesh::build(level);
    let mut serial = SweSolver::<f64>::new(mesh.clone());
    let mut sstate = grist_dycore::swe::williamson_tc2::<f64>(&serial.mesh);
    for _ in 0..steps {
        serial.step_rk3(&mut sstate, dt);
    }

    // --- distributed run ---
    // Each rank holds the full-size arrays but only trusts its owned cells
    // (+ halos); the halo exchange keeps them consistent. A rank-local
    // correctness check: after the run, owned cells must match serial.
    let partition = Partition::build(&mesh, n_ranks, 2);
    // Depth must cover the RK3 stencil: exchange every step with deep halos.
    let layout = HaloLayout::build(&mesh, &partition, 4);

    let (results, _) = run_world(n_ranks, |mut ctx| {
        let mesh = HexMesh::build(level);
        let mut solver = SweSolver::<f64>::new(mesh);
        let mut state = grist_dycore::swe::williamson_tc2::<f64>(&solver.mesh);
        let locale = &layout.locales[ctx.rank];
        for step in 0..steps {
            solver.step_rk3(&mut state, dt);
            // Every rank computes the full state (shared-grid emulation), so
            // to prove the exchange really transports simulation data we
            // poison the halo cells and require the messages to restore them.
            let reference = state.h.clone();
            for (_, cells) in &locale.recv {
                for &c in cells {
                    state.h.set(0, c as usize, f64::NAN);
                }
            }
            let mut list = VarList::new();
            list.push("h", 1, state.h.as_mut_slice());
            exchange_gathered(&mut ctx, locale, &mut list, 100 + step as u32)
                .expect("all ranks register the same list");
            for (_, cells) in &locale.recv {
                for &c in cells {
                    let got = state.h.at(0, c as usize);
                    let want = reference.at(0, c as usize);
                    assert!(
                        (got - want).abs() < 1e-12 * want.abs().max(1.0),
                        "halo cell {c} not restored: {got} vs {want}"
                    );
                }
            }
        }
        // Return owned-cell h values.
        locale
            .owned_cells
            .iter()
            .map(|&c| (c, state.h.at(0, c as usize)))
            .collect::<Vec<_>>()
    });

    // Assemble and compare.
    let mut assembled = vec![f64::NAN; mesh.n_cells()];
    for rank_vals in &results {
        for &(c, v) in rank_vals {
            assembled[c as usize] = v;
        }
    }
    for (c, &a) in assembled.iter().enumerate() {
        let s = sstate.h.at(0, c);
        assert!(
            (a - s).abs() < 1e-9 * s.abs().max(1.0),
            "cell {c}: distributed {a} vs serial {s}"
        );
    }
}

#[test]
fn distributed_swe_agrees_with_serial_4_ranks() {
    distributed_swe_matches_serial(4, 5);
}

#[test]
fn distributed_swe_agrees_with_serial_7_ranks() {
    distributed_swe_matches_serial(7, 3);
}

#[test]
fn job_server_executes_a_real_divergence_kernel() {
    // Map a dycore-style edge loop onto the CPE job server and compare with
    // the substrate-dispatched operator.
    let mesh = HexMesh::build(3);
    let geom: grist_dycore::ScaledGeometry<f64> = grist_dycore::ScaledGeometry::new(
        &mesh,
        grist_mesh::EARTH_RADIUS_M,
        grist_mesh::EARTH_OMEGA,
    );
    let nlev = 8;
    let flux = Field2::<f64>::from_fn(nlev, mesh.n_edges(), |k, e| ((e * 3 + k) % 17) as f64 - 8.0);
    let mut expected = Field2::<f64>::zeros(nlev, mesh.n_cells());
    grist_dycore::operators::divergence(&Substrate::serial(), &mesh, &geom, &flux, &mut expected);

    // SWGOMP path: one team-head offload over cells ("!$omp target ... do").
    let server = JobServer::new(16);
    let out: Vec<std::sync::Mutex<Vec<f64>>> = (0..mesh.n_cells())
        .map(|_| std::sync::Mutex::new(vec![0.0; nlev]))
        .collect();
    server.target_parallel_for(mesh.n_cells(), 32, &|c| {
        let mut col = vec![0.0f64; nlev];
        let rng = mesh.cell_edges.row_range(c);
        for (k, &e) in mesh.cell_edges.row(c).iter().enumerate() {
            let w = geom.cell_edge_sign[rng.start + k] * geom.edge_le[e as usize];
            for (lev, item) in col.iter_mut().enumerate() {
                *item += flux.at(lev, e as usize) * w;
            }
        }
        let ia = geom.inv_cell_area[c];
        for v in col.iter_mut() {
            *v *= ia;
        }
        *out[c].lock().unwrap() = col;
    });
    assert_eq!(
        server.stats.spawned_by_cpe.load(Ordering::Relaxed),
        (mesh.n_cells() as u64).div_ceil(32)
    );
    for (c, cell) in out.iter().enumerate() {
        let got = cell.lock().unwrap();
        for k in 0..nlev {
            assert!(
                (got[k] - expected.at(k, c)).abs() < 1e-12,
                "cell {c} lev {k}: {} vs {}",
                got[k],
                expected.at(k, c)
            );
        }
    }
}
