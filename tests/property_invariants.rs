//! Property-style tests on the core invariants DESIGN.md §5 calls out:
//! discrete operator identities, FCT monotonicity/conservation,
//! partition/halo exactness, cache-model laws, and limiter/physics
//! positivity — each checked over many seeded random inputs.
//!
//! (These used to be `proptest!` properties; the workspace now builds fully
//! offline, so they enumerate a fixed seed set with the local `rand` shim
//! instead of shrinking. Coverage per property matches the old
//! `ProptestConfig::with_cases` counts.)

use grist_dycore::operators::{self as op, ScaledGeometry};
use grist_dycore::tracer::{fct_transport_step, total_tracer, FctWorkspace};
use grist_dycore::Field2;
use grist_mesh::{HaloLayout, HexMesh, Partition};
use rand::{Rng, SeedableRng};
use sunway_model::{Access, LdCache};
use sunway_sim::Substrate;

fn mesh_and_geom() -> (HexMesh, ScaledGeometry<f64>) {
    let mesh = HexMesh::build(3);
    let geom = ScaledGeometry::new(&mesh, grist_mesh::EARTH_RADIUS_M, grist_mesh::EARTH_OMEGA);
    (mesh, geom)
}

fn sub() -> Substrate {
    Substrate::serial()
}

/// ∮ div F dA = 0 exactly for any edge flux field.
#[test]
fn divergence_theorem_holds_for_random_fluxes() {
    let (mesh, geom) = mesh_and_geom();
    for seed in 0..16u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let flux = Field2::<f64>::from_fn(2, mesh.n_edges(), |_, _| rng.gen_range(-10.0..10.0));
        let mut div = Field2::<f64>::zeros(2, mesh.n_cells());
        op::divergence(&sub(), &mesh, &geom, &flux, &mut div);
        for lev in 0..2 {
            let total: f64 = (0..mesh.n_cells())
                .map(|c| div.at(lev, c) * mesh.cell_area[c])
                .sum();
            assert!(total.abs() < 1e-16, "seed {seed}: ∮div = {total}");
        }
    }
}

/// curl(grad h) = 0 to round-off for any cell scalar.
#[test]
fn curl_of_gradient_vanishes_for_random_scalars() {
    let (mesh, geom) = mesh_and_geom();
    for seed in 0..16u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let h = Field2::<f64>::from_fn(1, mesh.n_cells(), |_, _| rng.gen_range(-100.0..100.0));
        let mut g = Field2::<f64>::zeros(1, mesh.n_edges());
        op::gradient(&sub(), &mesh, &geom, &h, &mut g);
        let mut vor = Field2::<f64>::zeros(1, mesh.n_verts());
        op::vorticity(&sub(), &mesh, &geom, &g, &mut vor);
        let gmax = g.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let vmax = vor.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(
            vmax <= gmax * 1e-8 + 1e-20,
            "seed {seed}: curl(grad) = {vmax} vs grad {gmax}"
        );
    }
}

/// Kinetic energy is non-negative and zero only for zero wind.
#[test]
fn kinetic_energy_is_positive_semidefinite() {
    let (mesh, geom) = mesh_and_geom();
    for seed in 0..16u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let u = Field2::<f64>::from_fn(1, mesh.n_edges(), |_, _| rng.gen_range(-50.0..50.0));
        let mut ke = Field2::<f64>::zeros(1, mesh.n_cells());
        op::kinetic_energy(&sub(), &mesh, &geom, &u, &mut ke);
        assert!(ke.as_slice().iter().all(|&k| k >= 0.0), "seed {seed}");
        assert!(ke.as_slice().iter().any(|&k| k > 0.0), "seed {seed}");
    }
}

/// FCT transport: conservation and monotonicity for random wind fields,
/// random initial tracers, CFL-safe steps.
#[test]
fn fct_is_conservative_and_monotone() {
    let (mesh, geom) = mesh_and_geom();
    for seed in 0..16u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let r2 = grist_mesh::EARTH_RADIUS_M * grist_mesh::EARTH_RADIUS_M;
        let mut mass =
            Field2::<f64>::from_fn(1, mesh.n_cells(), |_, c| 1000.0 * mesh.cell_area[c] * r2);
        let flux = Field2::<f64>::from_fn(1, mesh.n_edges(), |_, _| {
            1000.0 * rng.gen_range(-20.0..20.0)
        });
        let mut q = Field2::<f64>::from_fn(1, mesh.n_cells(), |_, _| rng.gen_range(0.0..1.0));
        let (q_min, q_max) = (q.min_value(), q.max_value());
        let t0 = total_tracer(&mass, &q);
        let mut ws = FctWorkspace::new(1, &mesh);
        for _ in 0..5 {
            fct_transport_step(
                &sub(),
                &mesh,
                &geom,
                &mut mass,
                &flux,
                &mut q,
                200.0,
                &mut ws,
            );
        }
        let t1 = total_tracer(&mass, &q);
        assert!(
            ((t1 - t0) / t0).abs() < 1e-12,
            "seed {seed}: tracer drift {}",
            (t1 - t0) / t0
        );
        assert!(
            q.min_value() >= q_min - 1e-12,
            "seed {seed}: undershoot {}",
            q.min_value()
        );
        assert!(
            q.max_value() <= q_max + 1e-12,
            "seed {seed}: overshoot {}",
            q.max_value()
        );
    }
}

/// Partitions are exact covers for any part count, and the halo send/recv
/// schedule is a bijection onto owned cells.
#[test]
fn partition_and_halo_are_exact() {
    let mesh = HexMesh::build(3);
    for parts in 2usize..20 {
        let p = Partition::build(&mesh, parts, 1);
        let mut seen = vec![0u32; mesh.n_cells()];
        for r in 0..parts {
            for c in p.cells_of(r) {
                seen[c as usize] += 1;
            }
        }
        assert!(
            seen.iter().all(|&s| s == 1),
            "{parts} parts: cells multiply assigned or missed"
        );

        let layout = HaloLayout::build(&mesh, &p, 1);
        for loc in &layout.locales {
            for (peer, cells) in &loc.send {
                for &c in cells {
                    assert_eq!(p.part[c as usize] as usize, loc.rank);
                    assert!(layout.locales[*peer]
                        .recv
                        .iter()
                        .any(|(src, list)| *src == loc.rank && list.contains(&c)));
                }
            }
        }
    }
}

/// LRU cache laws: hits+misses equals accesses; every distinct line misses
/// at least once; hit ratio never exceeds 1.
#[test]
fn ldcache_accounting_laws() {
    for seed in 0..16u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..200);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..100_000)).collect();
        let mut cache = LdCache::new(4, 64, 64);
        let mut first_line_seen = std::collections::HashSet::new();
        let mut cold_misses = 0u64;
        for &a in &addrs {
            let line = a / 64;
            if first_line_seen.insert(line) {
                cold_misses += 1;
            }
            cache.access(a);
        }
        assert_eq!(cache.hits + cache.misses, addrs.len() as u64, "seed {seed}");
        // Every distinct line must miss at least once (compulsory misses).
        assert!(
            cache.misses >= cold_misses,
            "seed {seed}: {} < {cold_misses}",
            cache.misses
        );
        assert!(cache.hit_ratio() <= 1.0, "seed {seed}");
    }
}

/// Repeated access to a working set within capacity is all hits after the
/// first pass (LRU inclusion property for a single set-stream).
#[test]
fn ldcache_small_working_set_converges_to_hits() {
    for n_lines in 1usize..16 {
        let mut cache = LdCache::new(4, 16, 64);
        // n_lines ≤ 4 per set guaranteed by striding across sets.
        let addrs: Vec<u64> = (0..n_lines).map(|i| (i * 64) as u64).collect();
        for _ in 0..3 {
            for &a in &addrs {
                cache.access(a);
            }
        }
        cache.reset_stats();
        for &a in &addrs {
            let r = cache.access(a);
            assert_eq!(r, Access::Hit, "{n_lines} lines");
        }
    }
}

/// Physics positivity: random columns never yield negative moisture after
/// applying suite tendencies.
#[test]
fn physics_preserves_moisture_positivity() {
    use grist_physics::{Column, ColumnPhysicsState, ConventionalSuite};
    for seed in 0..16u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut col = Column::reference(20);
        for k in 0..20 {
            col.t[k] += rng.gen_range(-5.0..5.0);
            col.qv[k] *= rng.gen_range(0.2..1.5);
            col.qc[k] = rng.gen_range(0.0..5e-4);
            col.qr[k] = rng.gen_range(0.0..5e-4);
        }
        col.coszr = rng.gen_range(0.0..1.0);
        col.tskin = col.t[19] + rng.gen_range(-3.0..5.0);
        let suite = ConventionalSuite::default();
        let mut st = ColumnPhysicsState::new(20, true, col.tskin);
        let dt = 600.0;
        for _ in 0..3 {
            let out = suite.step_column(&col, &mut st, dt, 1800.0);
            out.tend.apply(&mut col, dt);
            assert!(col.qv.iter().all(|&q| q >= 0.0), "seed {seed}");
            assert!(col.qc.iter().all(|&q| q >= 0.0), "seed {seed}");
            assert!(col.qr.iter().all(|&q| q >= 0.0), "seed {seed}");
            assert!(
                col.t
                    .iter()
                    .all(|&t| t.is_finite() && t > 100.0 && t < 400.0),
                "seed {seed}"
            );
            assert!(out.diag.precip >= 0.0, "seed {seed}");
        }
    }
}
