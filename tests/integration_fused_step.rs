//! `NhSolver::step` against the step it replaced: one dynamics step composed
//! from the stand-alone `grist_dycore::operators`, one field written per
//! pass, in the order the solver dispatched them before its kernels were
//! fused. The fused kernels form the same per-level expressions in registers
//! and column scratch, so every prognostic field must agree bit for bit — on
//! both precisions, both substrates and both tracer cadences, from a state
//! with a jet, vertical motion and physics tendencies in it, so that no term
//! of the equations is identically zero.
//!
//! This file is the only place the unfused sequence lives.

// Indexed loops, as in the kernels this spells out.
#![allow(clippy::needless_range_loop)]

use grist_core::{add_baroclinic_jet, GristModel, RunConfig};
use grist_dycore::constants::{CP, GRAVITY, KAPPA, P0, RDRY};
use grist_dycore::hevi::{NhSolver, NhState};
use grist_dycore::operators::{self as op, ScaledGeometry};
use grist_dycore::tracer::{fct_transport_step, FctWorkspace};
use grist_dycore::vertical::thomas_solve;
use grist_dycore::{Field2, PrecisionMode, Real};
use grist_mesh::{HexMesh, EARTH_OMEGA, EARTH_RADIUS_M};
use sunway_sim::Substrate;

/// The unfused step: every intermediate a whole field, every operator its
/// own pass. Runs serially; the solver under test may not.
struct Unfused<R: Real> {
    mesh: HexMesh,
    sigma_i: Vec<f64>,
    p_top: f64,
    div_damp: f64,
    beta: f64,
    dyn_per_trac: usize,
    dx2: f64,
    sub: Substrate,
    geom: ScaledGeometry<R>,
    geom64: ScaledGeometry<f64>,
    flux_sum: Field2<f64>,
    flux_steps: usize,
    fct_ws: FctWorkspace<R>,
}

impl<R: Real> Unfused<R> {
    fn like(solver: &NhSolver<R>) -> Self {
        let mesh = solver.mesh.clone();
        let mean_de = mesh.edge_de.iter().sum::<f64>() / mesh.n_edges() as f64 * EARTH_RADIUS_M;
        Unfused {
            sigma_i: solver.vc.sigma_i.clone(),
            p_top: solver.vc.p_top,
            div_damp: solver.config.div_damp,
            beta: solver.config.beta,
            dyn_per_trac: solver.config.dyn_per_trac,
            dx2: mean_de * mean_de,
            sub: Substrate::serial(),
            geom: ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA),
            geom64: ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA),
            flux_sum: Field2::zeros(solver.vc.nlev, mesh.n_edges()),
            flux_steps: 0,
            fct_ws: FctWorkspace::new(solver.vc.nlev, &mesh),
            mesh,
        }
    }

    /// `p` and `δφ` of every layer, and with them θ and Π.
    fn diagnose(st: &NhState<R>) -> [Field2<f64>; 4] {
        let (nlev, nc) = (st.dpi.nlev(), st.dpi.ncols());
        let gamma = 1.0 / (1.0 - KAPPA);
        let mut out = [(); 4].map(|_| Field2::zeros(nlev, nc));
        for c in 0..nc {
            for k in 0..nlev {
                let t = st.theta_m.at(k, c) / st.dpi.at(k, c);
                let d = st.phi.at(k, c) - st.phi.at(k + 1, c);
                let rho = st.dpi.at(k, c) / d;
                let p = P0 * (rho * RDRY * t / P0).powf(gamma);
                out[0].set(k, c, t);
                out[1].set(k, c, d);
                out[2].set(k, c, p);
                out[3].set(k, c, (p / P0).powf(KAPPA));
            }
        }
        out
    }

    fn step(&mut self, st: &mut NhState<R>, dt: f64) {
        let (sub, mesh, geom, geom64) = (&self.sub, &self.mesh, &self.geom, &self.geom64);
        let nlev = st.dpi.nlev();
        let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_verts());
        let cells = || Field2::<R>::zeros(nlev, nc);
        let edges = || Field2::<R>::zeros(nlev, ne);
        let verts = || Field2::<R>::zeros(nlev, nv);
        let [theta, _, _, exner] = Self::diagnose(st);

        // Vector-invariant momentum pieces in working precision.
        let (mut ke, mut vor, mut pv_edge) = (cells(), verts(), edges());
        let (mut ve, mut vn, mut vt) = (verts(), verts(), edges());
        let (mut grad_ke, mut div_u, mut grad_div) = (edges(), cells(), edges());
        op::kinetic_energy(sub, mesh, geom, &st.u, &mut ke);
        op::vorticity(sub, mesh, geom, &st.u, &mut vor);
        for v in 0..nv {
            for k in 0..nlev {
                *vor.at_mut(k, v) += geom.f_vert[v];
            }
        }
        op::vert_to_edge(sub, mesh, &vor, &mut pv_edge);
        op::vert_velocity(sub, mesh, geom, &st.u, &mut ve, &mut vn);
        op::tangential_velocity(sub, mesh, geom, &ve, &vn, &mut vt);
        op::gradient(sub, mesh, geom, &ke, &mut grad_ke);
        // Divergence damping.
        op::divergence(sub, mesh, geom, &st.u, &mut div_u);
        op::gradient(sub, mesh, geom, &div_u, &mut grad_div);
        // Pressure-gradient force in f64.
        let mut grad_exner = Field2::<f64>::zeros(nlev, ne);
        let mut theta_edge = Field2::<f64>::zeros(nlev, ne);
        op::gradient(sub, mesh, geom64, &exner, &mut grad_exner);
        op::cell_to_edge(sub, mesh, &theta, &mut theta_edge);

        // Momentum update (forward step).
        let nu = R::from_f64(self.div_damp * self.dx2 / dt);
        let dt_r = R::from_f64(dt);
        for e in 0..ne {
            for k in 0..nlev {
                let cor = pv_edge.at(k, e) * vt.at(k, e);
                let pgf = R::from_f64(CP * theta_edge.at(k, e) * grad_exner.at(k, e));
                let tend = cor - grad_ke.at(k, e) - pgf + nu * grad_div.at(k, e);
                *st.u.at_mut(k, e) += dt_r * tend;
            }
        }

        // Dry-mass flux with the updated velocity, summed over a tracer cycle.
        let sub_cycled = self.dyn_per_trac > 1 && !st.tracers.is_empty();
        let mut mass_flux = Field2::<f64>::zeros(nlev, ne);
        for e in 0..ne {
            let [c1, c2] = mesh.edge_cells[e].map(|c| c as usize);
            for k in 0..nlev {
                let f = 0.5 * (st.dpi.at(k, c1) + st.dpi.at(k, c2)) * st.u.at(k, e).to_f64();
                mass_flux.set(k, e, f);
                if sub_cycled {
                    let sum = if self.flux_steps == 0 {
                        f
                    } else {
                        self.flux_sum.at(k, e) + f
                    };
                    self.flux_sum.set(k, e, sum);
                }
            }
        }
        let mut div_mass = Field2::<f64>::zeros(nlev, nc);
        op::divergence(sub, mesh, geom64, &mass_flux, &mut div_mass);

        // Vertical (σ-coordinate) mass flux ṁ at interfaces.
        let mut mdot = Field2::<f64>::zeros(nlev + 1, nc);
        for c in 0..nc {
            let dps_dt: f64 = -div_mass.col(c).iter().sum::<f64>();
            let mut acc = 0.0;
            for k in 0..nlev {
                acc += div_mass.at(k, c);
                mdot.set(k + 1, c, -(self.sigma_i[k + 1] * dps_dt + acc));
            }
            mdot.set(nlev, c, 0.0);
        }

        // Θ flux and divergence (centered horizontal).
        let mut theta_flux = Field2::<f64>::zeros(nlev, ne);
        for e in 0..ne {
            let [c1, c2] = mesh.edge_cells[e].map(|c| c as usize);
            for k in 0..nlev {
                let f = mass_flux.at(k, e) * 0.5 * (theta.at(k, c1) + theta.at(k, c2));
                theta_flux.set(k, e, f);
            }
        }
        let mut div_theta = Field2::<f64>::zeros(nlev, nc);
        op::divergence(sub, mesh, geom64, &theta_flux, &mut div_theta);

        // Update δπ and Θ, vertical transport first-order upwind on ṁ.
        for c in 0..nc {
            let (md, th) = (mdot.col(c), theta.col(c));
            for k in 0..nlev {
                let th_top = if k == 0 {
                    th[0]
                } else if md[k] >= 0.0 {
                    th[k - 1]
                } else {
                    th[k]
                };
                let th_bot = if k + 1 == nlev || md[k + 1] >= 0.0 {
                    th[k]
                } else {
                    th[k + 1]
                };
                *st.dpi.at_mut(k, c) += dt * (-div_mass.at(k, c) - (md[k + 1] - md[k]));
                *st.theta_m.at_mut(k, c) +=
                    dt * (-div_theta.at(k, c) - (md[k + 1] * th_bot - md[k] * th_top));
            }
        }

        self.implicit_vertical(st, dt);

        if sub_cycled {
            self.flux_steps += 1;
            if self.flux_steps >= self.dyn_per_trac {
                let steps = self.flux_steps as f64;
                let inv = 1.0 / steps;
                let mean = Field2::from_fn(nlev, ne, |k, e| self.flux_sum.at(k, e) * inv);
                op::divergence(&self.sub, &self.mesh, &self.geom64, &mean, &mut div_mass);
                self.flux_steps = 0;
                self.transport(st, &mean, &div_mass, steps * dt);
            }
        } else {
            self.transport(st, &mass_flux, &div_mass, dt);
        }
    }

    /// The implicit w–φ solve on `p`, `δφ` re-diagnosed as whole fields.
    fn implicit_vertical(&self, st: &mut NhState<R>, dt: f64) {
        let [_, dphi, pres, _] = Self::diagnose(st);
        let n = st.dpi.nlev();
        let gamma = 1.0 / (1.0 - KAPPA);
        let g = GRAVITY;
        let (mut cc, mut a, mut b, mut cvec, mut scratch) = (
            vec![0.0; n],
            vec![0.0; n],
            vec![0.0; n],
            vec![0.0; n],
            vec![0.0; n],
        );
        for c in 0..st.dpi.ncols() {
            let (dpi, p, dp) = (st.dpi.col(c), pres.col(c), dphi.col(c));
            let mut d: Vec<f64> = st.w.col(c)[..n].to_vec();
            for k in 0..n {
                cc[k] = gamma * p[k] * dt * g / dp[k];
            }
            for i in 0..n {
                let dpi_half = if i == 0 {
                    0.5 * dpi[0]
                } else {
                    0.5 * (dpi[i - 1] + dpi[i])
                };
                let fac = self.beta * dt * g / dpi_half;
                let p_above = if i == 0 { self.p_top } else { p[i - 1] };
                let c_above = if i == 0 { 0.0 } else { cc[i - 1] };
                a[i] = -fac * c_above;
                b[i] = 1.0 + fac * (cc[i] + c_above);
                cvec[i] = -fac * cc[i];
                d[i] += dt * g * ((p[i] - p_above) / dpi_half - 1.0);
            }
            thomas_solve(&a, &b, &cvec, &mut d, &mut scratch);
            for i in 0..n {
                st.w.set(i, c, d[i]);
                *st.phi.at_mut(i, c) += dt * g * d[i];
            }
            st.w.set(n, c, 0.0);
        }
    }

    /// FCT transport of every tracer from the same pre-transport mass.
    fn transport(&mut self, st: &mut NhState<R>, flux: &Field2<f64>, div: &Field2<f64>, dt: f64) {
        let r2 = EARTH_RADIUS_M * EARTH_RADIUS_M;
        let mass = Field2::<R>::from_fn(st.dpi.nlev(), st.dpi.ncols(), |k, c| {
            let area = self.mesh.cell_area[c] * r2;
            R::from_f64((st.dpi.at(k, c) + dt * div.at(k, c)) * area)
        });
        let flux: Field2<R> = flux.cast();
        for q in &mut st.tracers {
            let mut m = mass.clone();
            fct_transport_step(
                &self.sub,
                &self.mesh,
                &self.geom,
                &mut m,
                &flux,
                q,
                dt,
                &mut self.fct_ws,
            );
        }
    }
}

fn bits<R: Real>(f: &Field2<R>) -> Vec<u64> {
    f.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
}

/// Steps the solver and the unfused reference side by side from one state.
fn fused_equals_unfused<R: Real>(level: u32, sub: Substrate, dyn_per_trac: usize) {
    let base = RunConfig::for_level(level, 7);
    let precision = if R::BYTES == 8 {
        PrecisionMode::Double
    } else {
        PrecisionMode::Mixed
    };
    let cfg = RunConfig {
        dt_trac: dyn_per_trac as f64 * base.dt_dyn,
        ..base.with_precision(precision)
    };
    let what = format!("level {level}, {precision:?}, {sub:?}, dyn_per_trac {dyn_per_trac}");
    let mut m = GristModel::<R>::with_substrate(cfg, sub);
    assert_eq!(m.solver.config.dyn_per_trac, dyn_per_trac, "{what}");
    add_baroclinic_jet(&mut m, 35.0, 1.5);
    // One physics window first: w, φ perturbations, heating and moistening
    // are all in the state the comparison starts from.
    m.advance(m.config.dt_phy);
    assert_eq!(
        m.solver.flux_steps, 0,
        "{what}: a window ends between cycles"
    );

    let dt = m.config.dt_dyn;
    let mut reference = Unfused::like(&m.solver);
    let mut expect = m.state.clone();
    // Past one whole tracer cycle and into the next.
    for step in 1..=dyn_per_trac + 2 {
        m.solver.step(&mut m.state, dt);
        reference.step(&mut expect, dt);
        let (got, want) = (&m.state, &expect);
        assert_eq!(bits(&got.u), bits(&want.u), "{what}: u, step {step}");
        assert_eq!(bits(&got.dpi), bits(&want.dpi), "{what}: δπ, step {step}");
        assert_eq!(
            bits(&got.theta_m),
            bits(&want.theta_m),
            "{what}: Θ, step {step}"
        );
        assert_eq!(bits(&got.w), bits(&want.w), "{what}: w, step {step}");
        assert_eq!(bits(&got.phi), bits(&want.phi), "{what}: φ, step {step}");
        for (t, (q, q_want)) in got.tracers.iter().zip(&want.tracers).enumerate() {
            assert_eq!(bits(q), bits(q_want), "{what}: tracer {t}, step {step}");
        }
        assert_eq!(m.solver.flux_steps, reference.flux_steps, "{what}");
        if reference.flux_steps > 0 {
            assert_eq!(
                bits(&m.solver.flux_sum),
                bits(&reference.flux_sum),
                "{what}: accumulated flux, step {step}"
            );
        }
    }
    // The state moved, and in every field: nothing compared equal by being
    // left alone.
    let w_max = expect
        .w
        .as_slice()
        .iter()
        .fold(0.0f64, |a, &b| a.max(b.abs()));
    assert!(w_max > 1e-6, "{what}: no vertical motion ({w_max})");
    assert_eq!(m.metrics().counter("tracer.cfl_violations"), 0, "{what}");
}

fn every_configuration<R: Real>() {
    for level in [2, 3] {
        for dyn_per_trac in [1, 8] {
            fused_equals_unfused::<R>(level, Substrate::serial(), dyn_per_trac);
            fused_equals_unfused::<R>(level, Substrate::cpe_teams(4), dyn_per_trac);
        }
    }
}

#[test]
fn fused_step_equals_the_operator_composition_bit_for_bit_in_f64() {
    every_configuration::<f64>();
}

#[test]
fn fused_step_equals_the_operator_composition_bit_for_bit_in_f32() {
    every_configuration::<f32>();
}
