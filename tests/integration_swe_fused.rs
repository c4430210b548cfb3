//! `SweSolver` against the stage it replaced: the shallow-water tendencies
//! composed from twelve stand-alone operator passes, one field each, and the
//! RK3 step as copies and `axpy`s around them (`support/unfused_swe.rs`).
//! The solver's four kernels form the same expressions in registers, so the
//! tendencies and fifty steps of `h`, `u` must agree bit for bit — on both
//! precisions and both substrates, for a plain step and for a stage 1 split
//! into interior and remainder, on a steady flow (TC2), a flow over
//! topography (TC5) and a nonlinear wave (TC6).

#[path = "support/unfused_swe.rs"]
mod unfused_swe;

use grist_dycore::operators::ScaledGeometry;
use grist_dycore::swe::{williamson_tc2, SwePhases, SweSolver, SweState};
use grist_dycore::swe_cases::{install_tc5_mountain, williamson_tc5, williamson_tc6};
use grist_dycore::{Field2, Real};
use grist_mesh::{HaloLayout, HexMesh, Partition, Vec3, EARTH_OMEGA, EARTH_RADIUS_M};
use sunway_sim::Substrate;
use unfused_swe::unfused_operators::{cell_to_edge, tangential_velocity, vert_velocity};
use unfused_swe::UnfusedSwe;

const STEPS: usize = 50;
const DT: f64 = 300.0;

/// Bit equality, reported by the first index that differs.
fn assert_same_bits<R: Real>(got: &Field2<R>, want: &Field2<R>, what: &str) {
    assert_eq!(got.as_slice().len(), want.as_slice().len(), "{what}");
    let bits = |x: &R| x.to_f64().to_bits();
    let differs =
        (got.as_slice().iter().zip(want.as_slice())).position(|(a, b)| bits(a) != bits(b));
    if let Some(i) = differs {
        let (a, b) = (got.as_slice()[i], want.as_slice()[i]);
        panic!("{what}: index {i} is {a:?}, the operator composition gives {b:?}");
    }
}

#[derive(Debug, Clone, Copy)]
enum Case {
    Tc2,
    Tc5,
    Tc6,
}

/// The case's initial state; TC5 also installs its mountain in the solver.
fn init<R: Real>(case: Case, solver: &mut SweSolver<R>) -> SweState<R> {
    match case {
        Case::Tc2 => williamson_tc2(&solver.mesh),
        Case::Tc5 => {
            let mut state = williamson_tc5(&solver.mesh);
            install_tc5_mountain(solver, &mut state);
            state
        }
        Case::Tc6 => williamson_tc6(&solver.mesh),
    }
}

/// The two interior sets a phased stage 1 is held to: a ragged one no
/// partitioner would produce, and rank 0's of a real two-rank split.
fn interiors(mesh: &HexMesh) -> [(&'static str, Vec<u32>); 2] {
    let ragged = (0..mesh.n_cells() as u32).filter(|c| c % 3 != 1).collect();
    let partition = Partition::build(mesh, 2, 2);
    let layout = HaloLayout::build(mesh, &partition, 2);
    let split = layout.locales[0].phase_split(mesh, 1);
    [
        ("ragged interior", ragged),
        ("phase_split(1)", split.interior_cells),
    ]
}

fn fused_equals_unfused<R: Real>(level: u32, sub: &Substrate, case: Case) {
    let what = format!("level {level}, {} B, {sub:?}, {case:?}", R::BYTES);
    let mesh = HexMesh::build(level);
    let mut plain = SweSolver::<R>::with_substrate(mesh.clone(), sub.clone());
    let start = init(case, &mut plain);
    let reference = UnfusedSwe::like(&plain);

    // Tendencies of the initial state, into fields that start as garbage.
    let (nc, ne) = (mesh.n_cells(), mesh.n_edges());
    let (mut th, mut tu) = (Field2::zeros(1, nc), Field2::zeros(1, ne));
    reference.tendencies(&start, &mut th, &mut tu);
    let poison = R::from_f64(f64::NAN);
    let (mut got_th, mut got_tu) = (
        Field2::constant(1, nc, poison),
        Field2::constant(1, ne, poison),
    );
    plain.tendencies(&start, &mut got_th, &mut got_tu);
    assert_same_bits(&got_th, &th, &format!("{what}: dh/dt"));
    assert_same_bits(&got_tu, &tu, &format!("{what}: du/dt"));
    assert!(
        tu.as_slice().iter().any(|&x| x != R::ZERO),
        "{what}: no momentum tendency to compare"
    );

    let mut phased: Vec<_> = interiors(&mesh)
        .into_iter()
        .map(|(name, interior)| {
            let mut solver = SweSolver::<R>::with_substrate(mesh.clone(), sub.clone());
            let state = init(case, &mut solver);
            let phases = SwePhases::build(&solver.mesh, &interior);
            (name, solver, phases, state)
        })
        .collect();
    let mut expect = start.clone();
    let mut state = start;
    for step in 1..=STEPS {
        reference.step_rk3(&mut expect, DT);
        plain.step_rk3(&mut state, DT);
        assert_same_bits(&state.h, &expect.h, &format!("{what}: h, step {step}"));
        assert_same_bits(&state.u, &expect.u, &format!("{what}: u, step {step}"));
        for (name, solver, phases, st) in &mut phased {
            solver.step_rk3_with_stage1(st, DT, |sv, s, th, tu| {
                sv.tendencies_subset(s, th, tu, &phases.interior);
                sv.tendencies_subset(s, th, tu, &phases.remainder);
            });
            assert_same_bits(&st.h, &expect.h, &format!("{what}, {name}: h, step {step}"));
            assert_same_bits(&st.u, &expect.u, &format!("{what}, {name}: u, step {step}"));
        }
    }
    assert!(
        expect.h.as_slice().iter().all(|x| x.to_f64().is_finite()),
        "{what}: the reference run left the finite numbers"
    );
}

fn every_configuration<R: Real>() {
    let targets = [Substrate::serial(), Substrate::cpe_teams(4)];
    for level in [2, 3, 4] {
        for sub in &targets {
            for case in [Case::Tc2, Case::Tc5, Case::Tc6] {
                fused_equals_unfused::<R>(level, sub, case);
            }
        }
    }
}

#[test]
fn fused_stage_equals_the_operator_composition_bit_for_bit_in_f64() {
    every_configuration::<f64>();
}

#[test]
fn fused_stage_equals_the_operator_composition_bit_for_bit_in_f32() {
    every_configuration::<f32>();
}

/// The kernels index their fields as flat one-level slices; the operators
/// they replaced looped over `nlev`. A state with a second level is refused,
/// not half-computed.
#[test]
#[should_panic(expected = "shallow water is one layer")]
fn a_state_with_more_than_one_level_is_refused() {
    let mut solver = SweSolver::<f64>::new(HexMesh::build(2));
    let (nc, ne) = (solver.mesh.n_cells(), solver.mesh.n_edges());
    let state = SweState {
        h: Field2::constant(2, nc, 1000.0),
        u: Field2::zeros(2, ne),
    };
    let (mut th, mut tu) = (Field2::zeros(2, nc), Field2::zeros(2, ne));
    solver.tendencies(&state, &mut th, &mut tu);
}

// What makes the reference worth agreeing with: the reconstruction it spells
// out recovers a known flow, and its average a known constant.

#[test]
fn reference_tangential_reconstruction_recovers_solid_body_flow() {
    let mesh = HexMesh::build(5);
    let geom = ScaledGeometry::<f64>::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
    let scale = 1e-5 * EARTH_RADIUS_M;
    let flow = |m: Vec3| Vec3::new(0.0, 0.0, 1.0).cross(m) * scale;
    let u = Field2::from_fn(1, mesh.n_edges(), |_, e| {
        flow(mesh.edge_mid[e]).dot(mesh.edge_normal[e])
    });
    let mut ve = Field2::zeros(1, mesh.n_verts());
    let mut vn = Field2::zeros(1, mesh.n_verts());
    vert_velocity(&mesh, &geom, &u, &mut ve, &mut vn);
    let mut vt = Field2::zeros(1, mesh.n_edges());
    tangential_velocity(&mesh, &geom, &ve, &vn, &mut vt);
    let worst = (0..mesh.n_edges()).fold(0.0f64, |worst, e| {
        let exact = flow(mesh.edge_mid[e]).dot(mesh.edge_tangent[e]);
        worst.max((vt.at(0, e) - exact).abs())
    });
    assert!(
        worst < 0.02 * scale,
        "worst tangential error {worst} vs scale {scale}"
    );
}

#[test]
fn reference_cell_to_edge_preserves_constants() {
    let mesh = HexMesh::build(3);
    let h = Field2::constant(2, mesh.n_cells(), 7.5);
    let mut he = Field2::zeros(2, mesh.n_edges());
    cell_to_edge(&mesh, &h, &mut he);
    assert!(he.as_slice().iter().all(|&x| x == 7.5));
}
