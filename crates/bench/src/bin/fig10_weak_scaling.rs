//! Regenerates **Figure 10**: weak scaling from 128 to 524,288 processes
//! (CGs) with ~320 cells/CG, all grids on the G12 timestep, for the MIX-PHY
//! and MIX-ML schemes. Reports SDPD, the paper's efficiency
//! `eff(N) = P_N / P_128` (eq. 1), and the communication-time share (which
//! the paper observes rising from 19% to 37%).

use grist_bench::{fmt, Table};
use grist_dycore::hevi::DYN_KERNELS;
use grist_dycore::tracer::FCT_KERNELS;
use grist_runtime::scaling::{grid_by_label, weak_scaling_ladder, Scheme, SdpdModel};

fn main() {
    let model = SdpdModel::new(&DYN_KERNELS, &FCT_KERNELS);
    let ladder = weak_scaling_ladder();

    println!("# Figure 10: weak scaling (mixed precision), 128 → 524,288 CGs\n");
    let mut t = Table::new(&[
        "grid",
        "procs",
        "cores",
        "MIX-PHY SDPD",
        "MIX-PHY eff",
        "MIX-ML SDPD",
        "MIX-ML eff",
        "comm share",
    ]);

    let mix_phy = Scheme {
        mixed: true,
        ml_physics: false,
    };
    let mix_ml = Scheme {
        mixed: true,
        ml_physics: true,
    };
    let mut base_phy = 0.0;
    let mut base_ml = 0.0;
    let mut shares = Vec::new();
    for (i, (label, procs)) in ladder.iter().enumerate() {
        let g = grid_by_label(label).expect("ladder labels are Table 2 rows");
        let r_phy = model.project(&g, mix_phy, *procs);
        let r_ml = model.project(&g, mix_ml, *procs);
        if i == 0 {
            base_phy = r_phy.sdpd;
            base_ml = r_ml.sdpd;
        }
        shares.push(r_phy.comm_fraction);
        t.row(&[
            label.to_string(),
            procs.to_string(),
            (procs * 65).to_string(),
            fmt(r_phy.sdpd),
            fmt(r_phy.sdpd / base_phy),
            fmt(r_ml.sdpd),
            fmt(r_ml.sdpd / base_ml),
            format!("{:.0}%", r_phy.comm_fraction * 100.0),
        ]);
    }
    t.print();
    t.write_csv("fig10_weak_scaling").expect("csv");

    println!(
        "\nShape checks vs the paper:\n\
         - MIX-ML above MIX-PHY at every point: {}\n\
         - communication share rises ({}% -> {}%; paper: 19% -> 37%)\n\
         - largest run uses 524,288 × 65 = 34,078,720 cores (\"34 million cores\")",
        {
            let ok = ladder.iter().all(|(label, procs)| {
                let g = grid_by_label(label).expect("ladder labels are Table 2 rows");
                model.project(&g, mix_ml, *procs).sdpd > model.project(&g, mix_phy, *procs).sdpd
            });
            if ok {
                "yes"
            } else {
                "NO"
            }
        },
        (shares.first().unwrap() * 100.0).round(),
        (shares.last().unwrap() * 100.0).round(),
    );
}
