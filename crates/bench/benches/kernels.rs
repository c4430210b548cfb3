//! Micro-benchmarks of the transport, shallow-water, physics and ML hot
//! paths — host timings beside the modeled Sunway numbers (`grist report
//! fig9` times the executed Fig. 9 kernels inside a
//! coupled window). Uses the offline self-timed harness in
//! `grist_bench::Bencher`.

use grist_bench::Bencher;
use grist_dycore::operators::ScaledGeometry;
use grist_dycore::tracer::{fct_transport_step, FctWorkspace};
use grist_dycore::{Field2, SweSolver};
use grist_mesh::{HexMesh, Vec3, EARTH_OMEGA, EARTH_RADIUS_M};
use grist_ml::models::TendencyCnn;
use grist_physics::{Column, ColumnPhysicsState, ConventionalSuite};
use sunway_sim::Substrate;

const NLEV: usize = 30;

/// The FCT step at the shape the coupled model runs it: G4 × 20 levels
/// (`aqua_*`, `serve_*`).
fn bench_tracer_limiter(sub: &Substrate) {
    const FCT_NLEV: usize = 20;
    let mesh = HexMesh::build(4);
    let geom: ScaledGeometry<f64> = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
    let r2 = EARTH_RADIUS_M * EARTH_RADIUS_M;
    let mass0 = Field2::from_fn(FCT_NLEV, mesh.n_cells(), |_, c| {
        1000.0 * mesh.cell_area[c] * r2
    });
    let flux = Field2::from_fn(FCT_NLEV, mesh.n_edges(), |_, e| {
        let m = mesh.edge_mid[e];
        1000.0 * 1e-5 * EARTH_RADIUS_M * Vec3::new(0.0, 0.0, 1.0).cross(m).dot(mesh.edge_normal[e])
    });
    let q0 = Field2::from_fn(FCT_NLEV, mesh.n_cells(), |_, c| {
        (-(mesh.cell_xyz[c].arc_dist(Vec3::new(1.0, 0.0, 0.0)) / 0.3).powi(2)).exp()
    });
    let mut ws = FctWorkspace::new(FCT_NLEV, &mesh);
    let mut g = Bencher::group("tracer");
    g.bench("fct_transport_step/G4xL20", || {
        let mut mass = mass0.clone();
        let mut q = q0.clone();
        fct_transport_step(sub, &mesh, &geom, &mut mass, &flux, &mut q, 300.0, &mut ws);
    });
    g.finish();
}

fn bench_swe_step(sub: &Substrate) {
    let mut solver = SweSolver::<f64>::with_substrate(HexMesh::build(4), sub.clone());
    let state0 = grist_dycore::swe::williamson_tc2::<f64>(&solver.mesh);
    let mut g = Bencher::group("swe");
    g.bench("rk3_step/G4", || {
        let mut s = state0.clone();
        solver.step_rk3(&mut s, 300.0);
    });
    g.finish();
}

fn bench_physics_column() {
    let suite = ConventionalSuite::default();
    let col = Column::reference(NLEV);
    let mut g = Bencher::group("physics");
    let mut st = ColumnPhysicsState::new(NLEV, true, 290.0);
    g.bench("conventional_column_step", || {
        st.since_rad = f64::INFINITY; // force radiation every call
        suite.step_column(&col, &mut st, 600.0, 1800.0);
    });
    g.finish();
}

fn bench_ml_inference() {
    let net = TendencyCnn::new(NLEV, 128, 7);
    let x = vec![0.1f32; 5 * NLEV];
    let mut g = Bencher::group("ml");
    g.bench("tendency_cnn_infer_128ch", || {
        std::hint::black_box(net.infer(&x));
    });
    g.finish();
}

fn main() {
    // Run each kernel group on both execution targets so the bench compares
    // the serial path against the emulated CPE teams (§3.3).
    for (label, sub) in [
        ("serial", Substrate::serial()),
        ("cpe64", Substrate::cpe_teams(64)),
    ] {
        println!("\n# kernels on substrate: {label}");
        bench_tracer_limiter(&sub);
        bench_swe_step(&sub);
    }
    bench_physics_column();
    bench_ml_inference();
}
