//! Regenerates **Figure 9**: per-kernel CPE speedups over the MPE
//! double-precision baseline, for the four variants DP / DP+DST / MIX /
//! MIX+DST, on the G6 grid (the artifact's 128-process, 100 km demo case).
//!
//! Two tables are produced:
//! 1. the modeled Sunway speedups (roofline + LDCache simulator), which is
//!    the Fig. 9 reproduction proper, and
//! 2. measured host-CPU timings of the *real* kernels in f64 vs f32 — the
//!    portable sanity check that mixed precision pays off on bandwidth-bound
//!    kernels on commodity hardware too.
//!
//! Pass `--json` to emit one machine-readable document (schema
//! `grist-fig9-v1`) on stdout instead of the tables/CSVs.

use grist_bench::{fmt, Table};
use grist_dycore::kernels as dk;
use grist_dycore::operators::ScaledGeometry;
use grist_dycore::{Field2, Real};
use grist_mesh::{HexMesh, EARTH_OMEGA, EARTH_RADIUS_M};
use std::time::Instant;
use sunway_sim::perf::{fig9_kernels, fig9_table, ExecTarget, PerfModel};
use sunway_sim::{format_kernel_report, Json, Substrate, SunwaySpec};

fn time_host_kernels<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    nlev: usize,
    reps: usize,
) -> Vec<(&'static str, f64)> {
    let geom: ScaledGeometry<R> = ScaledGeometry::new(mesh, EARTH_RADIUS_M, EARTH_OMEGA);
    let (nc, ne) = (mesh.n_cells(), mesh.n_edges());
    let ke = Field2::<R>::from_fn(nlev, nc, |k, c| R::from_f64((c % 97) as f64 + k as f64));
    let dpi = Field2::<R>::constant(nlev, nc, R::from_f64(800.0));
    let theta = Field2::<R>::constant(nlev, nc, R::from_f64(300.0));
    let dphi = Field2::<R>::constant(nlev, nc, R::from_f64(2200.0));
    let qv = Field2::<R>::constant(nlev, nc, R::from_f64(0.008));
    let q0 = Field2::<R>::zeros(nlev, nc);
    let u = Field2::<R>::from_fn(nlev, ne, |k, e| R::from_f64(((e + k) % 41) as f64 * 0.1));
    let pv = Field2::<R>::constant(nlev, ne, R::from_f64(1e-4));
    let vt = Field2::<R>::from_fn(nlev, ne, |_, e| R::from_f64((e % 13) as f64));
    let mut out_e = Field2::<R>::zeros(nlev, ne);
    let mut out_c = Field2::<R>::zeros(nlev, nc);

    let mut results = Vec::new();
    let timeit = |f: &mut dyn FnMut()| -> f64 {
        f(); // warm up
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };
    results.push((
        "grad_kinetic_energy",
        timeit(&mut || dk::grad_kinetic_energy(sub, mesh, &geom, &ke, &mut out_e)),
    ));
    results.push((
        "primal_normal_flux_edge",
        timeit(&mut || dk::primal_normal_flux_edge(sub, mesh, &geom, &u, &dpi, &theta, &mut out_e)),
    ));
    results.push((
        "compute_rrr",
        timeit(&mut || dk::compute_rrr(sub, &dpi, &dphi, &qv, &q0, &q0, &theta, &mut out_c)),
    ));
    results.push((
        "calc_coriolis_term",
        timeit(&mut || dk::calc_coriolis_term(sub, &pv, &vt, &mut out_e)),
    ));
    results
}

fn main() {
    let json_mode = std::env::args().any(|a| a == "--json");
    let spec = SunwaySpec::next_gen();
    let model = PerfModel::default();
    let nlev = 30;

    let kernels = fig9_kernels(40_962, 122_880, nlev);
    let table = fig9_table(&kernels, &spec, &model);

    let mesh = HexMesh::build(5);
    let reps = 10;
    let sub = Substrate::cpe_teams(64);
    let t64 = time_host_kernels::<f64>(&sub, &mesh, nlev, reps);
    let t32 = time_host_kernels::<f32>(&sub, &mesh, nlev, reps);

    if json_mode {
        let mut modeled: Vec<(String, Json)> = Vec::new();
        for row in &table {
            for &(target, s) in &row.speedup {
                modeled.push((format!("{}.{}", row.name, target.label()), Json::Num(s)));
            }
        }
        let mut host: Vec<(String, Json)> = Vec::new();
        for ((name, a), (_, b)) in t64.iter().zip(&t32) {
            host.push((format!("{name}.f64_ms"), Json::Num(a * 1e3)));
            host.push((format!("{name}.f32_ms"), Json::Num(b * 1e3)));
            host.push((format!("{name}.ratio"), Json::Num(a / b)));
        }
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("grist-fig9-v1".into())),
            (
                "config".into(),
                Json::Obj(vec![
                    ("cells".into(), Json::Num(40_962.0)),
                    ("edges".into(), Json::Num(122_880.0)),
                    ("nlev".into(), Json::Num(nlev as f64)),
                    ("host_mesh_level".into(), Json::Num(5.0)),
                    ("host_reps".into(), Json::Num(reps as f64)),
                ]),
            ),
            ("modeled_speedup".into(), Json::Obj(modeled)),
            ("host".into(), Json::Obj(host)),
        ]);
        println!("{}", doc.pretty());
        return;
    }

    println!("# Figure 9 (modeled): kernel speedups over MPE-DP, G6 grid, 64 CPEs/CG\n");
    let mut t = Table::new(&["kernel", "CPE-DP", "CPE-DP+DST", "CPE-MIX", "CPE-MIX+DST"]);
    for row in &table {
        let get = |target: ExecTarget| -> String {
            fmt(row
                .speedup
                .iter()
                .find(|&&(tt, _)| tt == target)
                .map(|&(_, s)| s)
                .unwrap())
        };
        t.row(&[
            row.name.to_string(),
            get(ExecTarget::CpeDp),
            get(ExecTarget::CpeDpDst),
            get(ExecTarget::CpeMix),
            get(ExecTarget::CpeMixDst),
        ]);
    }
    t.print();
    t.write_csv("fig9_modeled").expect("csv");
    println!("\nPaper band check: major-kernel CPE-MIX+DST speedups should sit near 20–70x\n");

    println!("# Host measurement: real kernels, f64 vs f32 (G5 grid, {nlev} levels)\n");
    let mut th = Table::new(&["kernel", "f64 (ms)", "f32 (ms)", "f64/f32"]);
    for ((name, a), (_, b)) in t64.iter().zip(&t32) {
        th.row(&[name.to_string(), fmt(a * 1e3), fmt(b * 1e3), fmt(a / b)]);
    }
    th.print();
    th.write_csv("fig9_host").expect("csv");

    println!("\n# Substrate kernel report (CPE-teams target, f64+f32 passes)\n");
    print!("{}", format_kernel_report(&sub.kernel_report()));
}
