//! Regenerates **Figure 11**: strong scaling of the G12 (1.47–1.92 km) grid
//! under all four Table-3 schemes, plus G11S (2.94–3.83 km) under MIX-ML,
//! from 32,768 to 524,288 processes. Efficiency follows the paper's eq. (2):
//! `eff(N) = (P_N / N) / (P_32768 / 32768)`.

use grist_bench::{fmt, Table};
use grist_dycore::hevi::DYN_KERNELS;
use grist_dycore::tracer::FCT_KERNELS;
use grist_runtime::scaling::{grid_by_label, Scheme, SdpdModel};

fn main() {
    let model = SdpdModel::new(&DYN_KERNELS, &FCT_KERNELS);
    let g12 = &grid_by_label("G12").expect("Table 2 row");
    let g11s = &grid_by_label("G11S").expect("Table 2 row");
    let procs: Vec<usize> = (0..5).map(|i| 32_768usize << i).collect();

    println!("# Figure 11: strong scaling, 32,768 → 524,288 CGs\n");
    let mut t = Table::new(&[
        "procs",
        "G12 DP-PHY",
        "G12 DP-ML",
        "G12 MIX-PHY",
        "G12 MIX-ML",
        "G12 MIX-ML eff",
        "G11S MIX-ML",
        "G11S MIX-ML eff",
    ]);
    let schemes = Scheme::all();
    let base_g12 = model
        .project(
            g12,
            Scheme {
                mixed: true,
                ml_physics: true,
            },
            procs[0],
        )
        .sdpd;
    let base_g11s = model
        .project(
            g11s,
            Scheme {
                mixed: true,
                ml_physics: true,
            },
            procs[0],
        )
        .sdpd;
    for &p in &procs {
        let vals: Vec<f64> = schemes
            .iter()
            .map(|&s| model.project(g12, s, p).sdpd)
            .collect();
        let g12_mixml = vals[3];
        let g11s_mixml = model
            .project(
                g11s,
                Scheme {
                    mixed: true,
                    ml_physics: true,
                },
                p,
            )
            .sdpd;
        let scale = p as f64 / procs[0] as f64;
        t.row(&[
            p.to_string(),
            fmt(vals[0]),
            fmt(vals[1]),
            fmt(vals[2]),
            fmt(vals[3]),
            fmt(g12_mixml / base_g12 / scale),
            fmt(g11s_mixml),
            fmt(g11s_mixml / base_g11s / scale),
        ]);
    }
    t.print();
    t.write_csv("fig11_strong_scaling").expect("csv");

    let top = procs[procs.len() - 1];
    let final_g12 = model
        .project(
            g12,
            Scheme {
                mixed: true,
                ml_physics: true,
            },
            top,
        )
        .sdpd;
    let final_g11s = model
        .project(
            g11s,
            Scheme {
                mixed: true,
                ml_physics: true,
            },
            top,
        )
        .sdpd;
    println!(
        "\nEndpoints at {top} processes (paper: 491 SDPD G11S, 181 SDPD G12; \
         modeled substrate — shapes, not absolutes):\n\
         - G11S MIX-ML: {:.0} SDPD ({:.2} SYPD)\n\
         - G12  MIX-ML: {:.0} SDPD ({:.2} SYPD)\n\
         - G11S/G12 ratio: {:.2} (paper: {:.2})",
        final_g11s,
        final_g11s / 365.0,
        final_g12,
        final_g12 / 365.0,
        final_g11s / final_g12,
        491.0 / 181.0
    );
}
