//! Execution-target equivalence: the Serial and CpeTeams substrates must
//! produce the same trajectories. Every hot-loop kernel computes each
//! cell/edge/column index independently, so the CPE-team scheduling order
//! must not leak into the numbers — the paper's bit-reproducibility
//! requirement for moving loops onto the accelerator (§3.3).

use grist_core::{GristModel, RunConfig};
use grist_dycore::SweSolver;
use grist_mesh::HexMesh;
use sunway_sim::{format_kernel_report, Substrate};

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

/// TC2 shallow-water `h` after 12 RK3 steps: serial vs 64-CPE teams.
#[test]
fn swe_tc2_height_matches_serial_on_cpe_teams() {
    let level = 3;
    let dt = 400.0;
    let steps = 12;

    let mut serial = SweSolver::<f64>::with_substrate(HexMesh::build(level), Substrate::serial());
    let mut teams =
        SweSolver::<f64>::with_substrate(HexMesh::build(level), Substrate::cpe_teams(64));
    let mut s_state = grist_dycore::swe::williamson_tc2::<f64>(&serial.mesh);
    let mut t_state = grist_dycore::swe::williamson_tc2::<f64>(&teams.mesh);
    for _ in 0..steps {
        serial.step_rk3(&mut s_state, dt);
        teams.step_rk3(&mut t_state, dt);
    }

    let mut worst = 0.0f64;
    for c in 0..serial.mesh.n_cells() {
        worst = worst.max(rel_err(t_state.h.at(0, c), s_state.h.at(0, c)));
    }
    assert!(
        worst <= 1e-12,
        "TC2 h diverged across substrates: rel err {worst:e}"
    );

    // The teams run must actually have dispatched through the profiler.
    let report = teams.sub.kernel_report();
    assert!(!report.is_empty(), "CPE-teams run recorded no kernels");
    // A stage is four kernels, three stages a step; names are
    // span-qualified (`dycore/swe_momentum_tend`).
    for kernel in [
        "swe_mass_flux",
        "swe_cell_tend",
        "swe_vertex",
        "swe_momentum_tend",
    ] {
        let name = format!("dycore/{kernel}");
        assert!(
            report
                .iter()
                .any(|r| r.name == name && r.calls == 3 * steps as u64),
            "{name} not dispatched 3 x {steps} times: {report:?}"
        );
    }
    // The stand-alone operators the four absorbed are no longer dispatched.
    for absorbed in [
        "cell_to_edge",
        "vert_to_edge",
        "vert_velocity",
        "tangential_velocity",
        "gradient",
        "kinetic_energy",
        "vorticity",
        "divergence",
    ] {
        assert!(
            !report.iter().any(|r| r.name.ends_with(absorbed)),
            "a shallow-water step dispatched the stand-alone {absorbed}: {report:?}"
        );
    }
}

/// Coupled-model surface pressure after ≥10 dynamics steps (with physics
/// firing on its cadence): serial vs CPE teams.
#[test]
fn coupled_surface_pressure_matches_serial_on_cpe_teams() {
    let config = RunConfig::for_level(2, 10);
    let seconds = 16.0 * config.dt_dyn; // 16 dyn steps, ≥1 physics step
    let mut serial = GristModel::<f64>::with_substrate(config.clone(), Substrate::serial());
    let mut teams = GristModel::<f64>::with_substrate(config, Substrate::cpe_teams(64));
    serial.advance(seconds);
    teams.advance(seconds);

    let ps_s = serial.surface_pressure();
    let ps_t = teams.surface_pressure();
    let mut worst = 0.0f64;
    for (a, b) in ps_t.iter().zip(&ps_s) {
        worst = worst.max(rel_err(*a, *b));
    }
    assert!(
        worst <= 1e-12,
        "coupled ps diverged across substrates: rel err {worst:e}"
    );
}

/// The kernel report exposes per-kernel wall time and call counts for the
/// whole coupled step (dycore + physics share one profiler).
#[test]
fn kernel_report_covers_dycore_and_physics() {
    let config = RunConfig::for_level(2, 10);
    let seconds = 16.0 * config.dt_dyn;
    let mut m = GristModel::<f64>::with_substrate(config, Substrate::cpe_teams(16));
    m.advance(seconds);

    let report = m.kernel_report();
    assert!(!report.is_empty());
    let names: Vec<&str> = report.iter().map(|r| r.name.as_str()).collect();
    // Names carry the full trace-span path (model step → suite → kernel).
    // The dynamics are seven kernels; the stand-alone operators they absorbed
    // are no longer dispatched by a step (`divergence` still is, by the
    // tracer step).
    for kernel in [
        "hevi_diagnose",
        "hevi_ke_divergence",
        "hevi_vertex_vorticity_velocity",
        "hevi_momentum_update",
        "hevi_mass_flux",
        "hevi_mass_theta_update",
        "hevi_implicit_vertical",
    ] {
        assert!(
            names.contains(&format!("step/dycore/{kernel}").as_str()),
            "dycore kernel {kernel} missing: {names:?}"
        );
    }
    for absorbed in [
        "kinetic_energy",
        "vorticity",
        "vert_to_edge",
        "vert_velocity",
        "tangential_velocity",
        "gradient",
        "cell_to_edge",
    ] {
        assert!(
            !names.contains(&format!("step/dycore/{absorbed}").as_str()),
            "a dyn step dispatched the stand-alone {absorbed}: {names:?}"
        );
    }
    assert!(
        names.contains(&"step/physics/physics_columns"),
        "physics kernel missing: {names:?}"
    );
    for r in &report {
        assert!(r.calls > 0, "{}: zero calls", r.name);
        assert!(r.total_ms >= 0.0 && r.mean_us >= 0.0);
    }
    // Hottest-first ordering.
    for w in report.windows(2) {
        assert!(w[0].total_ms >= w[1].total_ms);
    }

    // The formatted table carries every kernel name.
    let text = format_kernel_report(&m.kernel_report());
    for r in &report {
        assert!(text.contains(r.name.as_str()));
    }

    // And reset clears the accumulation.
    m.reset_kernel_report();
    assert!(m.kernel_report().is_empty());
}
