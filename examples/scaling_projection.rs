//! The paper's headline projection: what does it take to run 1 km (G12)
//! global simulations at year-scale speed on the next-generation Sunway?
//! Walks the full machinery — architecture constants, weak and strong
//! scaling, and the 34-million-core endpoint.
//!
//! ```text
//! cargo run --release --example scaling_projection
//! ```

use grist_dycore::hevi::DYN_KERNELS;
use grist_dycore::tracer::FCT_KERNELS;
use sunway_model::scaling::{table2_grids, weak_scaling_ladder, Scheme, SdpdModel};
use sunway_model::SunwaySpec;

fn main() {
    let spec = SunwaySpec::next_gen();
    println!("next-generation Sunway (modeled):");
    println!(
        "  nodes: {}  cores/node: {}  total cores: {}",
        spec.nodes,
        spec.cores_per_node(),
        spec.total_cores()
    );
    println!(
        "  per CG: 1 MPE + {} CPEs, {} KB LDM ({} KB as {}-way LDCache), {:.1} GB/s DDR",
        spec.cpes_per_cg,
        spec.ldm_bytes / 1024,
        spec.ldcache_bytes / 1024,
        spec.ldcache_ways,
        spec.ddr_bandwidth / 1e9
    );
    println!(
        "  network: {}-node supernodes, {:.1}:1 oversubscribed fat tree\n",
        spec.supernode_size, spec.oversubscription
    );

    let model = SdpdModel::new(&DYN_KERNELS, &FCT_KERNELS);
    let grids = table2_grids();
    let mix_ml = Scheme {
        mixed: true,
        ml_physics: true,
    };

    println!("weak scaling (MIX-ML), ~320 cells per core group:");
    for (label, procs) in weak_scaling_ladder() {
        let g = grids.iter().find(|g| g.label == label).unwrap();
        let r = model.project(g, mix_ml, procs);
        println!(
            "  {label:>4} on {procs:>6} CGs ({:>8} cores): {:>6.0} SDPD, comm {:>2.0}%",
            procs * 65,
            r.sdpd,
            r.comm_fraction * 100.0
        );
    }

    let g12 = grids.iter().find(|g| g.label == "G12").unwrap();
    let g11s = grids.iter().find(|g| g.label == "G11S").unwrap();
    let top = 524_288;
    let r12 = model.project(g12, mix_ml, top);
    let r11 = model.project(g11s, mix_ml, top);
    println!(
        "\nheadline endpoints at {top} processes = {} cores:",
        top * 65
    );
    println!(
        "  G11S (3 km): {:>5.0} SDPD = {:.2} SYPD   [paper: 491 SDPD]",
        r11.sdpd,
        r11.sdpd / 365.0
    );
    println!(
        "  G12  (1 km): {:>5.0} SDPD = {:.2} SYPD   [paper: 181 SDPD ≈ 0.5 SYPD]",
        r12.sdpd,
        r12.sdpd / 365.0
    );
    println!("\nper-sim-day budget at the G12 endpoint:");
    println!(
        "  dynamics {:.0}s | tracers {:.0}s | physics {:.0}s | communication {:.0}s",
        r12.dyn_s, r12.tracer_s, r12.physics_s, r12.comm_s
    );
    assert!(r12.sdpd > 100.0, "1 km year-scale projection collapsed");
    println!("\nok: the modeled system reaches year-scale 1 km simulation speed.");
}
