//! The tracer cadence (`RunConfig::dt_trac`, Table 2's 4 s / 30 s split):
//! what replaces "the state hash did not move" as the acceptance of
//! sub-cycled tracer transport. Accuracy against per-step transport in the
//! same binary, exact kernel counts per physics window, the flush before
//! physics when `dt_phy` is not a multiple of `dt_trac`, and the one bitwise
//! pin left: a solver on the default `NhConfig` steps as it did before the
//! cadence existed.

use grist_core::checkpoint::hash_f64_bits;
use grist_core::{add_baroclinic_jet, GristModel, RunConfig};
use grist_dycore::hevi::{NhConfig, NhSolver};
use grist_dycore::{relative_l2_error, VerticalCoord};
use grist_mesh::HexMesh;
use sunway_sim::KernelReportRow;

fn calls(rows: &[KernelReportRow], kernel: &str) -> u64 {
    // Rows are span-qualified: `step/dycore/fct_limiter`.
    rows.iter()
        .filter(|r| r.name.rsplit('/').next() == Some(kernel))
        .map(|r| r.calls)
        .sum()
}

#[test]
fn sub_cycled_transport_tracks_per_step_transport() {
    // The aqua_conv_dp set-up one grid level down, for 16 physics windows.
    let sub_cycled = RunConfig::for_level(3, 20);
    let per_step = RunConfig {
        dt_trac: sub_cycled.dt_dyn,
        ..sub_cycled.clone()
    };
    assert_eq!((sub_cycled.dyn_per_trac(), per_step.dyn_per_trac()), (8, 1));
    let run = |cfg: RunConfig| {
        let mut m = GristModel::<f64>::new(cfg);
        add_baroclinic_jet(&mut m, 35.0, 1.5);
        m.advance(16.0 * m.config.dt_phy);
        m
    };
    let (a, b) = (run(sub_cycled), run(per_step));
    for m in [&a, &b] {
        assert_eq!(m.metrics().counter("tracer.cfl_violations"), 0);
        assert_eq!(m.solver.flux_steps, 0, "a window ends between cycles");
    }

    let e_qv = relative_l2_error(
        &a.state.tracers[0].to_f64_vec(),
        &b.state.tracers[0].to_f64_vec(),
    );
    let e_ps = relative_l2_error(&a.surface_pressure(), &b.surface_pressure());
    assert!(e_qv < 1e-2, "qv relative L2 {e_qv}");
    assert!(e_ps < 1e-5, "ps relative L2 {e_ps}");

    // Transport adds no extrema and the physics is the same on both sides:
    // every tracer stays inside the per-step run's range, widened by the
    // size of the difference the L2 bound above allows.
    for (t, (qa, qb)) in a.state.tracers.iter().zip(&b.state.tracers).enumerate() {
        let (lo, hi) = (qb.min_value(), qb.max_value());
        let slack = 0.05 * (hi - lo) + 1e-12;
        assert!(
            qa.min_value() >= lo - slack && qa.max_value() <= hi + slack,
            "tracer {t}: [{}, {}] sub-cycled vs [{lo}, {hi}] per-step",
            qa.min_value(),
            qa.max_value()
        );
        assert!(qa.min_value() >= 0.0, "tracer {t} went negative");
    }
}

#[test]
fn one_physics_window_runs_the_tracer_kernels_on_the_tracer_cadence() {
    // One aqua_conv_dp op: advance_resilient over dt_phy (16 dyn steps, two
    // tracer steps of three tracers, one physics step), after a warm-up
    // window so the entry checkpoint is not in the count.
    let mut m = GristModel::<f64>::new(RunConfig::for_level(2, 6));
    let dt_phy = m.config.dt_phy;
    assert!(m.advance_resilient(dt_phy).completed);
    m.reset_kernel_report();
    assert!(m.advance_resilient(dt_phy).completed);
    let rows = m.kernel_report();
    let (ntracers, dyn_per_phy, dyn_per_trac) = (3, 16, 8);
    // The dynamics: seven kernels a step, and one more diagnosis when the
    // physics extracts its columns.
    for per_dyn_step in [
        "hevi_ke_divergence",
        "hevi_vertex_vorticity_velocity",
        "hevi_momentum_update",
        "hevi_mass_flux",
        "hevi_mass_theta_update",
        "hevi_implicit_vertical",
    ] {
        assert_eq!(calls(&rows, per_dyn_step), dyn_per_phy, "{per_dyn_step}");
    }
    assert_eq!(calls(&rows, "hevi_diagnose"), dyn_per_phy + 1);
    let tracer_steps = dyn_per_phy / dyn_per_trac;
    for per_tracer in [
        "fct_loworder",
        "fct_antidiffusive",
        "fct_limiter",
        "fct_apply",
    ] {
        assert_eq!(
            calls(&rows, per_tracer),
            ntracers * tracer_steps,
            "{per_tracer}"
        );
    }
    // `divergence`: of the time-mean flux, the only stand-alone operator left.
    for per_step in [
        "hevi_flux_mean",
        "divergence",
        "hevi_tracer_mass",
        "fct_transport",
    ] {
        assert_eq!(calls(&rows, per_step), tracer_steps, "{per_step}");
    }
    for per_window in ["cell_velocity", "physics_columns"] {
        assert_eq!(calls(&rows, per_window), 1, "{per_window}");
    }
    // What `substrate.dispatch_calls_per_op` reads on aqua_conv_dp:
    // 16 · 7 + 1 dynamics, 2 · (4 + 3 · 4) tracers, 2 physics.
    assert_eq!(rows.iter().map(|r| r.calls).sum::<u64>(), 147);
}

#[test]
fn physics_reads_tracers_transported_up_to_its_own_time() {
    // dt_phy = 8 dyn steps, dt_trac = 3: tracer steps after dyn steps 3 and
    // 6, and the two steps left over are transported before physics runs —
    // three tracer steps a window, never a cycle carried across physics.
    let base = RunConfig::for_level(2, 6);
    let cfg = RunConfig {
        dt_trac: 3.0 * base.dt_dyn,
        dt_phy: 8.0 * base.dt_dyn,
        ..base
    };
    assert_eq!((cfg.dyn_per_trac(), cfg.dyn_per_phy()), (3, 8));
    let mut m = GristModel::<f64>::new(cfg);
    for window in 1..=2 {
        m.advance(m.config.dt_phy);
        assert_eq!(m.solver.flux_steps, 0, "window {window}");
        let rows = m.kernel_report();
        assert_eq!(calls(&rows, "fct_transport"), 3 * window, "window {window}");
        assert_eq!(calls(&rows, "hevi_mass_flux"), 8 * window);
    }
    // Mid-window the cycle is open, and physics called by hand closes it.
    m.advance(2.0 * m.config.dt_dyn);
    assert_eq!(m.solver.flux_steps, 2);
    m.step_physics();
    assert_eq!(m.solver.flux_steps, 0);
    assert_eq!(m.metrics().counter("tracer.cfl_violations"), 0);
}

#[test]
fn a_tracer_step_shorter_than_the_dynamics_step_means_every_step() {
    let base = RunConfig::for_level(2, 6);
    for dt_trac in [0.0, 0.25 * base.dt_dyn, base.dt_dyn, 1.4 * base.dt_dyn] {
        let cfg = RunConfig {
            dt_trac,
            ..base.clone()
        };
        assert_eq!(cfg.dyn_per_trac(), 1, "dt_trac {dt_trac}");
    }
    let mut m = GristModel::<f64>::new(RunConfig {
        dt_trac: 0.25 * base.dt_dyn,
        ..base
    });
    m.advance(4.0 * m.config.dt_dyn);
    assert_eq!(calls(&m.kernel_report(), "fct_transport"), 4);
    assert_eq!(calls(&m.kernel_report(), "hevi_flux_mean"), 0);
    assert_eq!(m.solver.flux_steps, 0);
}

#[test]
fn default_cadence_steps_bit_for_bit_as_before_the_cadence_existed() {
    // Ten steps of a three-tracer solver on the default NhConfig
    // (dyn_per_trac = 1). The hash was 0ba8bbbdb51ef672 on the commit before
    // the cadence existed, where every step transported every tracer, and
    // stayed there until the equation of state went from chained `powf` to
    // one `ln` (last bits of p and Π; `integration_eos` bounds the move, and
    // `integration_fused_step` holds this cadence to the per-step operator
    // composition bit for bit), which re-pinned it once.
    let nlev = 7;
    let config = NhConfig {
        ntracers: 3,
        ..NhConfig::default()
    };
    assert_eq!(config.dyn_per_trac, 1);
    let mut solver = NhSolver::<f64>::new(HexMesh::build(2), VerticalCoord::uniform(nlev), config);
    let mut state = solver.isothermal_rest_state(285.0, 1.0e5);
    for e in 0..solver.mesh.n_edges() {
        let m = solver.mesh.edge_mid[e];
        let zonal = grist_mesh::Vec3::new(0.0, 0.0, 1.0).cross(m);
        for k in 0..nlev {
            let speed = 15.0 * m.lat().cos() + k as f64;
            state
                .u
                .set(k, e, speed * zonal.dot(solver.mesh.edge_normal[e]));
        }
    }
    for (t, q) in state.tracers.iter_mut().enumerate() {
        for c in 0..solver.mesh.n_cells() {
            let p = solver.mesh.cell_xyz[c];
            for k in 0..nlev {
                q.set(
                    k,
                    c,
                    (1.0 + t as f64) * 1e-3 * (1.0 + 0.5 * p.x * p.z) + 1e-4 * k as f64,
                );
            }
        }
    }
    for _ in 0..10 {
        solver.step(&mut state, 150.0);
    }
    let mut fields = vec![
        state.dpi.as_slice(),
        state.theta_m.as_slice(),
        state.w.as_slice(),
        state.phi.as_slice(),
        state.u.as_slice(),
    ];
    fields.extend(state.tracers.iter().map(|q| q.as_slice()));
    assert_eq!(
        format!("{:016x}", hash_f64_bits(&fields)),
        "3a3bd300e6290d02",
        "NhSolver::step on the default NhConfig moved"
    );
}
