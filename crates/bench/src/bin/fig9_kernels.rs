//! Regenerates **Figure 9**: per-kernel CPE speedups over the MPE
//! double-precision baseline, for the four variants DP / DP+DST / MIX /
//! MIX+DST, of the kernels the dycore executes — the seven of a dynamics
//! step (`hevi::DYN_KERNELS`) and the five of a tracer's FCT step
//! (`tracer::FCT_KERNELS`) — on the G6 grid (the artifact's 128-process,
//! 100 km demo case).
//!
//! Two tables are produced:
//! 1. the modeled Sunway speedups (roofline + LDCache simulator) of each
//!    kernel's cost descriptor, which is the Fig. 9 reproduction proper, and
//! 2. the same kernels' host time in one coupled-model window (level 4 × 20
//!    levels, a baroclinic jet, serial substrate), read from
//!    `kernel_report()` after one warm-up window, once in f64 and once in
//!    Mixed (f32 working precision).
//!
//! Pass `--json` to emit one machine-readable document (schema
//! `grist-fig9-v1`) on stdout instead of the tables/CSVs; its host keys
//! `<kernel>.f32_ms` are the Mixed window.

use grist_bench::smoke::FIG9_DOMAIN;
use grist_bench::{fmt, Table};
use grist_core::{add_baroclinic_jet, GristModel, RunConfig};
use grist_dycore::hevi::DYN_KERNELS;
use grist_dycore::tracer::FCT_KERNELS;
use grist_dycore::{PrecisionMode, Real};
use sunway_sim::perf::{fig9_table, ExecTarget, KernelSpec};
use sunway_sim::{format_kernel_report, Json, KernelReportRow, SunwaySpec};

/// The host window's grid: the `aqua_*` benchmark workloads' shape.
const HOST_LEVEL: u32 = 4;
const HOST_NLEV: usize = 20;

/// Milliseconds each of `kernels` took in one physics window of a jet on
/// the host, and that window's whole kernel report.
fn host_window<R: Real>(
    precision: PrecisionMode,
    kernels: &[KernelSpec],
) -> (Vec<f64>, Vec<KernelReportRow>) {
    let config = RunConfig::for_level(HOST_LEVEL, HOST_NLEV).with_precision(precision);
    let mut model = GristModel::<R>::new(config);
    add_baroclinic_jet(&mut model, 35.0, 1.0);
    let dt_phy = model.config.dt_phy;
    model.advance(dt_phy); // warm up
    model.reset_kernel_report();
    model.advance(dt_phy);
    let rows = model.kernel_report();
    // Rows are span-qualified: `step/dycore/fct_limiter`.
    let ms = kernels
        .iter()
        .map(|k| {
            rows.iter()
                .filter(|r| r.name.rsplit('/').next() == Some(k.name))
                .map(|r| r.total_ms)
                .sum()
        })
        .collect();
    (ms, rows)
}

fn main() {
    let json_mode = std::env::args().any(|a| a == "--json");
    let spec = SunwaySpec::next_gen();
    let kernels: Vec<KernelSpec> = DYN_KERNELS.iter().chain(&FCT_KERNELS).copied().collect();
    let table = fig9_table(&kernels, &FIG9_DOMAIN, &spec);

    let (t64, report) = host_window::<f64>(PrecisionMode::Double, &kernels);
    let (t32, _) = host_window::<f32>(PrecisionMode::Mixed, &kernels);

    if json_mode {
        let mut modeled: Vec<(String, Json)> = Vec::new();
        for row in &table {
            for &(target, s) in &row.speedup {
                modeled.push((format!("{}.{}", row.name, target.label()), Json::Num(s)));
            }
        }
        let mut host: Vec<(String, Json)> = Vec::new();
        for ((k, a), b) in kernels.iter().zip(&t64).zip(&t32) {
            host.push((format!("{}.f64_ms", k.name), Json::Num(*a)));
            host.push((format!("{}.f32_ms", k.name), Json::Num(*b)));
            host.push((format!("{}.ratio", k.name), Json::Num(a / b)));
        }
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("grist-fig9-v1".into())),
            (
                "config".into(),
                Json::Obj(vec![
                    ("cells".into(), Json::Num(FIG9_DOMAIN.cells as f64)),
                    ("edges".into(), Json::Num(FIG9_DOMAIN.edges as f64)),
                    ("nlev".into(), Json::Num(FIG9_DOMAIN.nlev as f64)),
                    ("host_mesh_level".into(), Json::Num(HOST_LEVEL as f64)),
                    ("host_reps".into(), Json::Num(1.0)),
                ]),
            ),
            ("modeled_speedup".into(), Json::Obj(modeled)),
            ("host".into(), Json::Obj(host)),
        ]);
        println!("{}", doc.pretty());
        return;
    }

    println!("# Figure 9 (modeled): executed-kernel speedups over MPE-DP, G6 grid, 64 CPEs/CG\n");
    let mut t = Table::new(&[
        "kernel",
        "arrays",
        "CPE-DP",
        "CPE-DP+DST",
        "CPE-MIX",
        "CPE-MIX+DST",
    ]);
    for (k, row) in kernels.iter().zip(&table) {
        let get = |target: ExecTarget| -> String {
            fmt(row
                .speedup
                .iter()
                .find(|&&(tt, _)| tt == target)
                .map(|&(_, s)| s)
                .expect("fig9_table covers every CPE target"))
        };
        t.row(&[
            row.name.to_string(),
            k.arrays.to_string(),
            get(ExecTarget::CpeDp),
            get(ExecTarget::CpeDpDst),
            get(ExecTarget::CpeMix),
            get(ExecTarget::CpeMixDst),
        ]);
    }
    t.print();
    t.write_csv("fig9_modeled").expect("csv");

    println!(
        "\n# Host measurement: one coupled window, f64 vs Mixed (level {HOST_LEVEL}, \
         {HOST_NLEV} levels, serial)\n"
    );
    let mut th = Table::new(&["kernel", "f64 (ms)", "Mixed (ms)", "f64/Mixed"]);
    for ((k, a), b) in kernels.iter().zip(&t64).zip(&t32) {
        th.row(&[k.name.to_string(), fmt(*a), fmt(*b), fmt(a / b)]);
    }
    th.print();
    th.write_csv("fig9_host").expect("csv");

    println!("\n# Substrate kernel report (the f64 window)\n");
    print!("{}", format_kernel_report(&report));
}
