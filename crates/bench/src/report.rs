//! The paper's tables and figures, one function each — what `grist report
//! <name>` runs. Each prints its tables and writes them under `results/`;
//! `Err` names the first shape or threshold check that did not hold.
//!
//! | name | regenerates |
//! |---|---|
//! | `table2` | Tables 2 (grids and timesteps) and 3 (schemes) |
//! | `fig7` | Fig. 7 in shape: Doksuri rainfall vs resolution |
//! | `fig8` | Fig. 8 in shape: conventional vs ML-physics rainfall |
//! | `fig9` | Fig. 9: the executed kernels' modeled CPE speedups, plus their host time |
//! | `fig10` | Fig. 10: weak scaling, 128 → 524,288 CGs |
//! | `fig11` | Fig. 11: strong scaling, 32,768 → 524,288 CGs |
//! | `flops_radiation` | §4.7: ML vs RRTMG-like radiation FLOPs and peak fraction |
//! | `mixed_precision_gate` | §3.4: f32 vs f64 gold, relative L2 of `ps` and `vor` under 5 % |
//! | `ablations` | the design ablations DESIGN.md calls out |

use crate::smoke::FIG9_DOMAIN;
use crate::{fmt, Table};
use grist_core::datagen::{generate_training_data, train_ml_suite, CoarseMap, DataGenConfig};
use grist_core::{
    add_baroclinic_jet, add_supercell_patch, add_tropical_cyclone, precision_gate, GristModel,
    MlSuite, PrecisionGate, RunConfig, TropicalCyclone,
};
use grist_dycore::hevi::DYN_KERNELS;
use grist_dycore::tracer::FCT_KERNELS;
use grist_dycore::{PrecisionMode, Real};
use grist_mesh::{
    bfs_cell_order, edge_index_span, HaloLayout, HexMesh, Partition, Permutation, EARTH_RADIUS_M,
};
use grist_ml::flops::{achieved_peak_fraction, ml_mix, rrtmg_like_mix};
use grist_ml::models::RadiationMlp;
use grist_physics::radiation::{radiation, RadiationConfig};
use grist_physics::Column;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sunway_model::distributor::{AllocPolicy, PoolAllocator};
use sunway_model::ldcache::{simulate_streams, LdCache};
use sunway_model::perf::{fig9_table, ExecTarget};
use sunway_model::scaling::{grid_by_label, table2_grids, weak_scaling_ladder, Scheme, SdpdModel};
use sunway_model::SunwaySpec;
use sunway_sim::{format_kernel_report, KernelReportRow, KernelSpec};

/// A report by the name `grist report` takes.
pub type Report = (&'static str, fn() -> Result<(), String>);

/// The nine reports.
pub const REPORTS: [Report; 9] = [
    ("table2", table2),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("flops_radiation", flops_radiation),
    ("mixed_precision_gate", mixed_precision_gate),
    ("ablations", ablations),
];

/// `Err(what)` unless `ok`.
fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

// ---------------------------------------------------------------------------
// Tables 2 and 3
// ---------------------------------------------------------------------------

/// **Table 2** (grid and timestep configurations) and **Table 3** (scheme
/// matrix). Counts at levels ≤ 6 are verified against built meshes; higher
/// levels use the closed forms those builds validate.
fn table2() -> Result<(), String> {
    println!("# Table 2: Configuration of grids and timesteps\n");
    let mut t = Table::new(&[
        "Label",
        "Resolution(km)",
        "Layers",
        "Dyn",
        "Trac",
        "Phy",
        "Rad",
        "Cells",
        "Edges",
        "Vertices",
        "verified",
    ]);
    for g in table2_grids() {
        let level = match g.label {
            "G12" => 12,
            "G11W" | "G11S" => 11,
            "G10" => 10,
            "G9" => 9,
            "G8" => 8,
            "G6" => 6,
            other => return Err(format!("unknown grid {other}")),
        };
        // Verify counts by construction where tractable.
        let (verified, res_km) = if level <= 6 {
            let mesh = HexMesh::build(level);
            check(
                (mesh.n_cells(), mesh.n_edges(), mesh.n_verts()) == (g.cells, g.edges, g.verts),
                &format!("{}: the built mesh's counts differ from the table", g.label),
            )?;
            ("mesh-built", mesh.mean_spacing_km(EARTH_RADIUS_M))
        } else {
            // Mean spacing scales by exactly 2 per level from a built mesh.
            let base = HexMesh::build(6).mean_spacing_km(EARTH_RADIUS_M);
            ("closed-form", base / 2f64.powi(level as i32 - 6))
        };
        t.row(&[
            g.label.to_string(),
            fmt(res_km),
            g.nlev.to_string(),
            fmt(g.dt_dyn),
            fmt(g.dt_trac),
            fmt(g.dt_phy),
            fmt(g.dt_rad),
            g.cells.to_string(),
            g.edges.to_string(),
            g.verts.to_string(),
            verified.to_string(),
        ]);
    }
    t.print();
    let p = t.write_csv("table2")?;
    println!("\n(csv: {})\n", p.display());

    println!("# Table 3: Configuration of schemes\n");
    let mut t3 = Table::new(&["Label", "Dycore", "Physics"]);
    for s in Scheme::all() {
        let dyc = if s.mixed {
            "mixed precision"
        } else {
            "double precision"
        };
        let phy = if s.ml_physics {
            "ML-physics"
        } else {
            "Conventional"
        };
        t3.row(&[s.label().to_string(), dyc.to_string(), phy.to_string()]);
    }
    t3.print();
    t3.write_csv("table3")?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 7
// ---------------------------------------------------------------------------

/// Run the cyclone case at (level, nlev) for `hours`, returning accumulated
/// rainfall per cell.
fn rain_run(level: u32, nlev: usize, hours: f64) -> (HexMesh, Vec<f64>) {
    let cfg = RunConfig::for_level(level, nlev);
    let mut m = GristModel::<f64>::new(cfg);
    // Tight vortex: marginally resolved at L3 (~0.08 rad spacing), resolved
    // at L4/L5 — this is what makes horizontal resolution matter (Fig. 7).
    let tc = TropicalCyclone {
        rmax: 0.07,
        vmax: 30.0,
        ..Default::default()
    };
    add_tropical_cyclone(&mut m, &tc);
    m.advance(hours * 3600.0);
    (m.solver.mesh.clone(), m.precip_accum.clone())
}

/// **Figure 7** in shape: the "23.7" extreme-rainfall experiment. The paper
/// runs super-Typhoon Doksuri at G11L60 and G12L30 against CMPA rain
/// observations and finds the *higher horizontal resolution* run (G12L30)
/// correlates better.
///
/// Substitution (DESIGN.md): an idealized Doksuri-like cyclone on the
/// aqua-planet; "observations" are a finest-affordable run (one level
/// above), and the two contenders mirror the paper's pairing — coarse
/// horizontal + more levels (the G11L60 analogue) vs fine horizontal + fewer
/// levels (the G12L30 analogue).
fn fig7() -> Result<(), String> {
    let hours = 6.0;
    println!("# Figure 7 (shape): Doksuri-like extreme rainfall, resolution sensitivity\n");
    println!("truth:   L5L30  (finest affordable 'observation' stand-in)");
    println!("case A:  L3L40  (coarse horizontal, more levels — the G11L60 analogue)");
    println!("case B:  L4L20  (fine horizontal, fewer levels — the G12L30 analogue)\n");

    let (mesh_truth, rain_truth) = rain_run(5, 30, hours);
    let (mesh_a, rain_a) = rain_run(3, 40, hours);
    let (mesh_b, rain_b) = rain_run(4, 20, hours);

    // Evaluate on the *truth* grid (as the paper scores against the CMPA
    // analysis grid): upsample each contender by nearest-cell injection so
    // coarse-grid blockiness costs correlation, as it should.
    let upsample = |mesh_from: &HexMesh, vals: &[f64]| -> Vec<f64> {
        let map = CoarseMap::build(&mesh_truth, mesh_from);
        map.fine_to_coarse
            .iter()
            .map(|&c| vals[c as usize])
            .collect()
    };
    let a_on_truth = upsample(&mesh_a, &rain_a);
    let b_on_truth = upsample(&mesh_b, &rain_b);
    // Score in the storm sector (within ~30° of the vortex), where the
    // resolution of the rain band matters; background drizzle elsewhere
    // would wash the comparison out.
    let tc_center = {
        let (lat, lon) = (20f64.to_radians(), 120f64.to_radians());
        grist_mesh::Vec3::new(lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin())
    };
    let sector: Vec<usize> = (0..mesh_truth.n_cells())
        .filter(|&c| mesh_truth.cell_xyz[c].arc_dist(tc_center) < 0.5)
        .collect();
    let sector_corr = |x: &[f64]| -> f64 {
        // Pearson over the sector cells (area weights ≈ uniform there).
        let n = sector.len() as f64;
        let mx = sector.iter().map(|&c| x[c]).sum::<f64>() / n;
        let mt = sector.iter().map(|&c| rain_truth[c]).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vt = 0.0;
        for &c in &sector {
            cov += (x[c] - mx) * (rain_truth[c] - mt);
            vx += (x[c] - mx).powi(2);
            vt += (rain_truth[c] - mt).powi(2);
        }
        cov / (vx * vt).sqrt().max(1e-30)
    };
    let corr_a = sector_corr(&a_on_truth);
    let corr_b = sector_corr(&b_on_truth);

    let peak = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);

    let mut t = Table::new(&["run", "analogue", "peak rain (mm)", "corr vs truth"]);
    t.row(&[
        "truth L5L30".into(),
        "CMPA obs".into(),
        fmt(peak(&rain_truth)),
        "1.0".into(),
    ]);
    t.row(&[
        "A: L3L40".into(),
        "G11L60".into(),
        fmt(peak(&rain_a)),
        fmt(corr_a),
    ]);
    t.row(&[
        "B: L4L20".into(),
        "G12L30".into(),
        fmt(peak(&rain_b)),
        fmt(corr_b),
    ]);
    t.print();
    t.write_csv("fig7_doksuri")?;

    println!(
        "\nPaper shape: the higher-horizontal-resolution run (B) better captures \
         the Typhoon rain band and the extreme rainfall magnitude (Fig. 7: \
         \"G12L30 better simulates the Typhoon rain band, and the extreme \
         rainfall magnitude … closer to that in the CMPA observational data\")."
    );
    let peak_truth = peak(&rain_truth);
    let peak_err_a = (peak(&rain_a) - peak_truth).abs();
    let peak_err_b = (peak(&rain_b) - peak_truth).abs();
    println!(
        "extreme-rain magnitude error: A {:.2} mm vs B {:.2} mm -> {}",
        peak_err_a,
        peak_err_b,
        if peak_err_b < peak_err_a {
            "B closer (shape holds)"
        } else {
            "A closer (shape DOES NOT hold)"
        }
    );
    println!(
        "storm-sector correlation:     A {:.3} vs B {:.3} -> {}",
        corr_a,
        corr_b,
        if corr_b >= corr_a - 0.02 {
            "comparable or better"
        } else {
            "worse"
        }
    );
    check(
        peak_err_b < peak_err_a,
        "the Fig. 7 magnitude shape does not hold",
    )
}

// ---------------------------------------------------------------------------
// Fig. 8
// ---------------------------------------------------------------------------

/// Run `hours` and return per-cell mean precip rate (mm/day).
fn precip_run(level: u32, nlev: usize, hours: f64, suite: Option<MlSuite>) -> (HexMesh, Vec<f64>) {
    let cfg = RunConfig::for_level(level, nlev).with_ml_physics(false);
    let mut m = GristModel::<f64>::new(cfg);
    if let Some(s) = suite {
        m.set_ml_suite(s);
    }
    m.advance(hours * 3600.0);
    let rate: Vec<f64> = m
        .precip_accum
        .iter()
        .map(|&mm| mm / (hours / 24.0))
        .collect();
    (m.solver.mesh.clone(), rate)
}

/// Zonal-mean profile in `nbands` latitude bands.
fn zonal_mean(mesh: &HexMesh, field: &[f64], nbands: usize) -> Vec<f64> {
    let mut sum = vec![0.0; nbands];
    let mut wgt = vec![0.0; nbands];
    for c in 0..mesh.n_cells() {
        let lat = mesh.cell_xyz[c].lat();
        let i = (((lat / std::f64::consts::PI + 0.5) * nbands as f64) as usize).min(nbands - 1);
        sum[i] += field[c] * mesh.cell_area[c];
        wgt[i] += mesh.cell_area[c];
    }
    sum.iter()
        .zip(&wgt)
        .map(|(s, w)| if *w > 0.0 { s / w } else { 0.0 })
        .collect()
}

/// **Figure 8** in shape: rainfall from the conventional vs the ML-based
/// parameterization. The paper shows (a, b) 3-hour rain rate at high
/// resolution, and (c–f) annual-mean rainfall at G6 and G8 — the ML suite
/// reproduces the conventional suite's rain band at both resolutions.
///
/// Here: train the ML suite once on coarse-grained fine-run data (the
/// §3.2.1 workflow), then compare zonal-mean precipitation between the
/// conventional and ML runs at *two* grid levels, plus a short
/// high-resolution integration.
fn fig8() -> Result<(), String> {
    // --- train the ML suite (the §3.2 pipeline) ---
    println!("# Figure 8 (shape): conventional vs ML-based parameterization rainfall\n");
    println!("Training the ML suite on coarse-grained fine-run data...");
    let data = generate_training_data(&DataGenConfig {
        fine_level: 3,
        coarse_level: 2,
        nlev: 12,
        steps_per_day: 24, // 3 test steps/day → the paper's exact 7:1 split
        days_per_period: 1,
        n_periods: 2,
        cell_stride: 2,
    });
    let (suite, report) = train_ml_suite(&data, 16, 25, 7);
    println!(
        "  CNN test loss: {:.4} (untrained {:.4}); MLP test loss {:.4} (untrained {:.4}); split {:.1}:1\n",
        report.cnn_test_loss,
        report.cnn_test_loss_untrained,
        report.mlp_test_loss,
        report.mlp_test_loss_untrained,
        report.train_test_ratio
    );

    let hours = 6.0;
    let nbands = 12;
    let mut t = Table::new(&[
        "grid (analogue)",
        "suite",
        "global precip (mm/day)",
        "tropics/extratropics",
        "zonal corr vs conventional",
    ]);

    let mut failed = Vec::new(); // the grids whose ML rain band misses the shape
    for (level, label) in [(2u32, "L2 (G6 analogue)"), (3u32, "L3 (G8 analogue)")] {
        let (mesh, conv) = precip_run(level, 12, hours, None);
        let (_, ml) = precip_run(level, 12, hours, Some(suite.clone()));
        let zc = zonal_mean(&mesh, &conv, nbands);
        let zm = zonal_mean(&mesh, &ml, nbands);
        // Pearson correlation of the zonal profiles.
        let corr = {
            let n = nbands as f64;
            let (ma, mb) = (zc.iter().sum::<f64>() / n, zm.iter().sum::<f64>() / n);
            let mut cov = 0.0;
            let mut va = 0.0;
            let mut vb = 0.0;
            for i in 0..nbands {
                cov += (zc[i] - ma) * (zm[i] - mb);
                va += (zc[i] - ma).powi(2);
                vb += (zm[i] - mb).powi(2);
            }
            if va * vb > 0.0 {
                cov / (va * vb).sqrt()
            } else {
                0.0
            }
        };
        let gm = |mesh: &HexMesh, f: &[f64]| -> f64 {
            let w: f64 = mesh.cell_area.iter().sum();
            f.iter()
                .zip(&mesh.cell_area)
                .map(|(v, a)| v * a)
                .sum::<f64>()
                / w
        };
        let band_ratio = |mesh: &HexMesh, f: &[f64]| -> f64 {
            let mut tr = 0.0;
            let mut trw = 0.0;
            let mut ex = 0.0;
            let mut exw = 0.0;
            for c in 0..mesh.n_cells() {
                let lat = mesh.cell_xyz[c].lat().to_degrees().abs();
                if lat < 20.0 {
                    tr += f[c] * mesh.cell_area[c];
                    trw += mesh.cell_area[c];
                } else if lat > 40.0 {
                    ex += f[c] * mesh.cell_area[c];
                    exw += mesh.cell_area[c];
                }
            }
            (tr / trw) / (ex / exw).max(0.05)
        };
        for (name, field) in [("Conventional", &conv), ("ML-physics", &ml)] {
            t.row(&[
                label.to_string(),
                name.to_string(),
                fmt(gm(&mesh, field)),
                fmt(band_ratio(&mesh, field)),
                if name == "Conventional" {
                    "1.0".into()
                } else {
                    fmt(corr)
                },
            ]);
        }
        if corr < 0.3 {
            failed.push(format!("{label} ML zonal corr {corr:.3} < 0.3"));
        }
    }

    // Panel (a,b) analogue: short 3-hour high-resolution integration with the
    // (cross-resolution) ML suite stays stable and produces rain.
    let (_, hi_ml) = precip_run(4, 12, 3.0, Some(suite.clone()));
    let hi_finite = hi_ml.iter().all(|x| x.is_finite());
    let hi_rain: f64 = hi_ml.iter().cloned().fold(0.0, f64::max);

    t.print();
    t.write_csv("fig8_ml_physics")?;
    println!(
        "\n3-hour L4 (high-res) integration with the ML suite: finite = {hi_finite}, peak rain {} mm/day",
        fmt(hi_rain)
    );
    let shape_ok = failed.is_empty();
    println!(
        "Paper shape — ML suite reproduces the conventional rain band across \
         resolutions: {}",
        if shape_ok { "holds" } else { "DOES NOT hold" }
    );
    let failed = failed.join(", ");
    check(shape_ok, &format!("Fig. 8 shape fails: {failed}"))
}

// ---------------------------------------------------------------------------
// Fig. 9
// ---------------------------------------------------------------------------

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

/// **Figure 9**: per-kernel CPE speedups over the MPE double-precision
/// baseline, for DP / DP+DST / MIX / MIX+DST, of the kernels the dycore
/// executes — the seven of a dynamics step (`hevi::DYN_KERNELS`) and the five
/// of a tracer's FCT step (`tracer::FCT_KERNELS`) — on the G6 grid (the
/// artifact's 128-process, 100 km demo case).
///
/// Two tables: the modeled Sunway speedups (roofline + LDCache simulator) of
/// each kernel's cost descriptor, which is the Fig. 9 reproduction proper
/// (`fig9_modeled.csv`), and the same kernels' host time in one coupled
/// window (level 4 × 20 levels, a baroclinic jet, serial substrate), read
/// from `kernel_report()` after one warm-up window, once in f64 and once in
/// Mixed (`fig9_host.csv`, wall time).
fn fig9() -> Result<(), String> {
    let spec = SunwaySpec::next_gen();
    let kernels: Vec<KernelSpec> = DYN_KERNELS.iter().chain(&FCT_KERNELS).copied().collect();
    let table = fig9_table(&kernels, &FIG9_DOMAIN, &spec);

    let (t64, report) = host_window::<f64>(PrecisionMode::Double, &kernels);
    let (t32, _) = host_window::<f32>(PrecisionMode::Mixed, &kernels);

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
    t.write_csv("fig9_modeled")?;

    println!(
        "\n# Host measurement: one coupled window, f64 vs Mixed (level {HOST_LEVEL}, \
         {HOST_NLEV} levels, serial)\n"
    );
    let mut th = Table::new(&["kernel", "f64 (ms)", "Mixed (ms)", "f64/Mixed"]);
    for ((k, a), b) in kernels.iter().zip(&t64).zip(&t32) {
        th.row(&[k.name.to_string(), fmt(*a), fmt(*b), fmt(a / b)]);
    }
    th.print();
    th.write_csv("fig9_host")?;

    println!("\n# Substrate kernel report (the f64 window)\n");
    print!("{}", format_kernel_report(&report));
    Ok(())
}

// ---------------------------------------------------------------------------
// Figs. 10 and 11
// ---------------------------------------------------------------------------

const MIX_PHY: Scheme = Scheme {
    mixed: true,
    ml_physics: false,
};
const MIX_ML: Scheme = Scheme {
    mixed: true,
    ml_physics: true,
};

/// **Figure 10**: weak scaling from 128 to 524,288 processes (CGs) with ~320
/// cells/CG, all grids on the G12 timestep, for the MIX-PHY and MIX-ML
/// schemes: SDPD, the paper's efficiency `eff(N) = P_N / P_128` (eq. 1), and
/// the communication-time share (which the paper observes rising from 19%
/// to 37%).
fn fig10() -> Result<(), String> {
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

    let mut base_phy = 0.0;
    let mut base_ml = 0.0;
    let mut shares = Vec::new();
    let mut ml_above = true;
    for (i, (label, procs)) in ladder.iter().enumerate() {
        let g = grid_by_label(label).map_err(|e| e.to_string())?;
        let r_phy = model.project(&g, MIX_PHY, *procs);
        let r_ml = model.project(&g, MIX_ML, *procs);
        if i == 0 {
            base_phy = r_phy.sdpd;
            base_ml = r_ml.sdpd;
        }
        ml_above &= r_ml.sdpd > r_phy.sdpd;
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
    t.write_csv("fig10_weak_scaling")?;

    println!(
        "\nShape checks vs the paper:\n\
         - MIX-ML above MIX-PHY at every point: {}\n\
         - communication share rises ({}% -> {}%; paper: 19% -> 37%)\n\
         - largest run uses 524,288 × 65 = 34,078,720 cores (\"34 million cores\")",
        if ml_above { "yes" } else { "NO" },
        (shares[0] * 100.0).round(),
        (shares[shares.len() - 1] * 100.0).round(),
    );
    Ok(())
}

/// **Figure 11**: strong scaling of the G12 (1.47–1.92 km) grid under all
/// four Table-3 schemes, plus G11S (2.94–3.83 km) under MIX-ML, from 32,768
/// to 524,288 processes. Efficiency follows the paper's eq. (2):
/// `eff(N) = (P_N / N) / (P_32768 / 32768)`.
fn fig11() -> Result<(), String> {
    let model = SdpdModel::new(&DYN_KERNELS, &FCT_KERNELS);
    let g12 = &grid_by_label("G12").map_err(|e| e.to_string())?;
    let g11s = &grid_by_label("G11S").map_err(|e| e.to_string())?;
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
    let base_g12 = model.project(g12, MIX_ML, procs[0]).sdpd;
    let base_g11s = model.project(g11s, MIX_ML, procs[0]).sdpd;
    for &p in &procs {
        let vals: Vec<f64> = schemes
            .iter()
            .map(|&s| model.project(g12, s, p).sdpd)
            .collect();
        let g12_mixml = vals[3];
        let g11s_mixml = model.project(g11s, MIX_ML, p).sdpd;
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
    t.write_csv("fig11_strong_scaling")?;

    let top = procs[procs.len() - 1];
    let final_g12 = model.project(g12, MIX_ML, top).sdpd;
    let final_g11s = model.project(g11s, MIX_ML, top).sdpd;
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
    Ok(())
}

// ---------------------------------------------------------------------------
// §4.7 and §3.4
// ---------------------------------------------------------------------------

/// The **§4.7 efficiency comparison**: "ML diagnosed surface radiation
/// requires approximately twice the number of FLOPS operations compared to
/// RRTMG. However, it can achieve peak FLOPS ranging from 74% to 84% during
/// computation, a significant improvement over the 6% in RRTMG."
///
/// The conventional side is *measured* (the radiation scheme's FLOP ledger);
/// the ML side uses the exact layer FLOP counts of the CNN/MLP; the peak
/// fractions come from the instruction-mix model of `grist-ml::flops`.
fn flops_radiation() -> Result<(), String> {
    let nlev = 30;
    let col = Column::reference(nlev);
    let (_, _, ledger) = radiation(&col, &RadiationConfig::default());

    // The MLP that replaces the radiation *diagnostics* (gsw/glw); sized so
    // its FLOP count lands near 2× the measured conventional ledger, as the
    // paper reports for their configuration.
    let conv_flops = ledger.total() as f64;
    let mut width = 64;
    let mut mlp = RadiationMlp::new(2 * nlev + 2, width, 7);
    while (mlp.flops() as f64) < 2.0 * conv_flops && width < 4096 {
        width *= 2;
        mlp = RadiationMlp::new(2 * nlev + 2, width, 7);
    }

    let conv = rrtmg_like_mix(
        ledger.cheap as f64,
        ledger.expensive as f64,
        ledger.branches as f64,
    );
    let ml = ml_mix(mlp.flops() as f64);
    let f_conv = achieved_peak_fraction(&conv);
    let f_ml = achieved_peak_fraction(&ml);
    let t_conv = (conv.cheap_flops + conv.expensive_ops) / f_conv;
    let t_ml = (ml.cheap_flops + ml.expensive_ops) / f_ml;

    println!("# §4.7: conventional (RRTMG-like) vs ML radiation diagnostics, per column\n");
    let mut t = Table::new(&["quantity", "RRTMG-like", "ML radiation (MLP)"]);
    t.row(&[
        "FLOPs per column".into(),
        fmt(conv_flops),
        fmt(mlp.flops() as f64),
    ]);
    t.row(&[
        "FLOP ratio vs RRTMG".into(),
        "1.0".into(),
        fmt(mlp.flops() as f64 / conv_flops),
    ]);
    t.row(&[
        "achieved peak fraction".into(),
        format!("{:.1}%", f_conv * 100.0),
        format!("{:.1}%", f_ml * 100.0),
    ]);
    t.row(&["relative time".into(), "1.0".into(), fmt(t_ml / t_conv)]);
    t.row(&["speedup".into(), "-".into(), fmt(t_conv / t_ml)]);
    t.print();
    t.write_csv("flops_radiation")?;

    println!(
        "\nPaper targets: ~2x FLOPs, 74-84% vs 6% of peak; here: {:.1}x FLOPs, {:.0}% vs {:.0}%.",
        mlp.flops() as f64 / conv_flops,
        f_ml * 100.0,
        f_conv * 100.0
    );
    check(f_ml > 0.70, "ML fraction out of band")?;
    check(f_conv < 0.15, "conventional fraction out of band")?;
    check(t_conv / t_ml > 2.0, "ML radiation must win overall")
}

/// The **§3.4 mixed-precision validation hierarchy**: "We have performed a
/// hierarchy of tests ranging from idealized tropical cyclone, supercell,
/// baroclinic waves to real-world long-term climate simulations … we
/// establish a 5% error threshold", gauged by the relative L2 norm of
/// surface pressure (`ps`, mass field) and relative vorticity (`vor`,
/// velocity field) against the double-precision gold run (§3.4.1).
fn mixed_precision_gate() -> Result<(), String> {
    let cfg = RunConfig::for_level(3, 12);
    let hours = 6.0;
    let sim_seconds = hours * 3600.0;

    println!(
        "# §3.4 mixed-precision gate: f32 working precision vs f64 gold, {hours} h @ G{}L{}\n",
        cfg.level, cfg.nlev
    );
    let mut t = Table::new(&["case", "ps rel-L2", "vor rel-L2", "threshold", "verdict"]);
    let cases: [(&str, PrecisionGate); 4] = [
        (
            "idealized tropical cyclone",
            precision_gate(&cfg, sim_seconds, |m| {
                add_tropical_cyclone(
                    m,
                    &TropicalCyclone {
                        rmax: 0.12,
                        ..Default::default()
                    },
                )
            }),
        ),
        (
            "supercell patch",
            precision_gate(&cfg, sim_seconds, |m| add_supercell_patch(m, 0.6, 0.3)),
        ),
        (
            "baroclinic wave",
            precision_gate(&cfg, sim_seconds, |m| add_baroclinic_jet(m, 25.0, 1.0)),
        ),
        (
            "aqua-planet (rest + physics)",
            precision_gate(&cfg, sim_seconds, |_| {}),
        ),
    ];
    let mut failed = Vec::new();
    for (name, gate) in &cases {
        let verdict = if gate.passes() { "PASS" } else { "FAIL" };
        t.row(&[
            name.to_string(),
            fmt(gate.ps_error),
            fmt(gate.vor_error),
            fmt(gate.threshold),
            verdict.to_string(),
        ]);
        if !gate.passes() {
            failed.push(*name);
        }
    }

    t.print();
    t.write_csv("mixed_precision_gate")?;
    check(
        failed.is_empty(),
        &format!("over the 5% threshold: {}", failed.join(", ")),
    )?;
    println!("\nAll cases under the paper's 5% threshold.");
    Ok(())
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// Ablations for the design choices DESIGN.md calls out:
///
/// 1. **BFS index reordering** (§3.1.3) — cache-locality metric and LDCache
///    hit ratio with and without the breadth-first renumbering.
/// 2. **Gathered halo exchange** (§3.1.3) — message count of the linked-list
///    single-call exchange vs one message per variable.
/// 3. **Address distribution** (§3.3.3) — LDCache hit ratio sweep over the
///    number of concurrently streamed arrays, aligned vs distributed.
/// 4. **Grouped parallel I/O** (§3.1.3) — concurrent writer counts.
fn ablations() -> Result<(), String> {
    let spec = SunwaySpec::next_gen();

    // ---------------- 1. BFS reorder ----------------
    println!("# Ablation 1: BFS index-sequence optimization (§3.1.3)\n");
    let mesh = HexMesh::build(5);
    let ident = Permutation::identity(mesh.n_cells());
    let bfs = bfs_cell_order(&mesh, 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut shuffled: Vec<u32> = (0..mesh.n_cells() as u32).collect();
    shuffled.shuffle(&mut rng);
    let random = Permutation::from_order(shuffled);

    let mut t1 = Table::new(&["ordering", "mean edge index span", "vs random"]);
    let spans = [
        ("random", edge_index_span(&mesh, &random)),
        ("construction order", edge_index_span(&mesh, &ident)),
        ("BFS", edge_index_span(&mesh, &bfs)),
    ];
    for (name, s) in spans {
        t1.row(&[name.into(), fmt(s), fmt(s / spans[0].1)]);
    }
    t1.print();
    t1.write_csv("ablation_bfs")?;

    // ---------------- 2. Gathered exchange ----------------
    println!("\n# Ablation 2: gathered vs per-variable halo exchange\n");
    let partition = Partition::build(&mesh, 16, 2);
    let layout = HaloLayout::build(&mesh, &partition, 1);
    let pairs = layout.message_count();
    let mut t2 = Table::new(&[
        "variables",
        "gathered msgs",
        "per-variable msgs",
        "reduction",
    ]);
    for nvars in [1usize, 4, 10, 20] {
        t2.row(&[
            nvars.to_string(),
            pairs.to_string(),
            (pairs * nvars).to_string(),
            format!("{nvars}x"),
        ]);
    }
    t2.print();
    t2.write_csv("ablation_exchange")?;

    // ---------------- 3. Address distribution sweep ----------------
    println!("\n# Ablation 3: LDCache hit ratio vs streamed arrays (Fig. 6 mechanism)\n");
    let mut t3 = Table::new(&["arrays", "aligned hit%", "distributed hit%"]);
    for n in 1..=10usize {
        let mut hit = [0.0f64; 2];
        for (i, policy) in [AllocPolicy::Aligned, AllocPolicy::Distributed]
            .iter()
            .enumerate()
        {
            let mut alloc = PoolAllocator::new(*policy, &spec, n.max(1));
            let bases: Vec<u64> = (0..n).map(|_| alloc.alloc(512 * 1024)).collect();
            let mut cache = LdCache::sw26010p(&spec);
            hit[i] = simulate_streams(&mut cache, &bases, 8, 20_000);
        }
        t3.row(&[
            n.to_string(),
            format!("{:.1}", hit[0] * 100.0),
            format!("{:.1}", hit[1] * 100.0),
        ]);
    }
    t3.print();
    t3.write_csv("ablation_distributor")?;
    println!("\n(The aligned layout collapses once arrays exceed the 4 cache ways.)");

    // ---------------- 3b. BFS reorder → measured LDCache hits ----------------
    // Feed the *actual* edge→cell indirect access stream of a gradient-type
    // kernel through the cache simulator under each cell ordering.
    println!("\n# Ablation 3b: cell ordering vs LDCache hit ratio (real index streams, G6)\n");
    let mesh6 = HexMesh::build(6);
    let ident6 = Permutation::identity(mesh6.n_cells());
    let bfs6 = bfs_cell_order(&mesh6, 0);
    let mut shuffled6: Vec<u32> = (0..mesh6.n_cells() as u32).collect();
    shuffled6.shuffle(&mut rng);
    let random6 = Permutation::from_order(shuffled6);
    let mesh = &mesh6;
    let mut t3b = Table::new(&["ordering", "hit ratio %"]);
    let run_stream = |perm: &Permutation| -> f64 {
        let mut cache = LdCache::sw26010p(&spec);
        // Two cell arrays (e.g. ke at c1 and c2) + one edge output stream.
        let cell_base0: u64 = 0;
        let cell_base1: u64 = 1 << 24;
        let edge_base: u64 = 1 << 25;
        for e in 0..mesh.n_edges() {
            let [c1, c2] = mesh.edge_cells[e];
            let a = perm.new_of_old[c1 as usize] as u64;
            let b = perm.new_of_old[c2 as usize] as u64;
            cache.access(cell_base0 + a * 8);
            cache.access(cell_base1 + b * 8);
            cache.access(edge_base + e as u64 * 8);
        }
        cache.hit_ratio()
    };
    for (name, perm) in [
        ("random", &random6),
        ("construction order", &ident6),
        ("BFS", &bfs6),
    ] {
        t3b.row(&[name.into(), format!("{:.1}", run_stream(perm) * 100.0)]);
    }
    t3b.print();
    t3b.write_csv("ablation_reorder_cache")?;

    // ---------------- 4. Grouped I/O ----------------
    // Groups of `g` ranks ship to one leader that writes: `⌈p / g⌉` writers.
    println!("\n# Ablation 4: grouped parallel I/O writer counts\n");
    let mut t4 = Table::new(&["processes", "group=1 (naive)", "group=64", "group=256"]);
    for p in [128usize, 32_768, 524_288] {
        t4.row(&[
            p.to_string(),
            p.div_ceil(1).to_string(),
            p.div_ceil(64).to_string(),
            p.div_ceil(256).to_string(),
        ]);
    }
    t4.print();
    t4.write_csv("ablation_pio")?;
    Ok(())
}
