//! One dynamics step composed from the stand-alone
//! `grist_dycore::operators` (and the four of `unfused_operators.rs`), one
//! field written per pass, in the order the solver dispatched them before
//! its kernels were fused — the reference `tests/integration_fused_step.rs`
//! holds `NhSolver::step` to bit for bit, and, run on the `powf` form of the
//! equation of state the solver used to evaluate, the reference
//! `tests/integration_eos.rs` bounds the one-logarithm form against.
//!
//! This file is the only place the unfused sequence lives.

// Indexed loops, as in the kernels this spells out.
#![allow(clippy::needless_range_loop)]

#[path = "unfused_operators.rs"]
mod unfused_operators;

use grist_dycore::constants::{CP, GRAVITY, KAPPA, P0, RDRY};
use grist_dycore::hevi::{NhSolver, NhState};
use grist_dycore::operators::{self as op, ScaledGeometry};
use grist_dycore::tracer::{fct_transport_step, FctWorkspace};
use grist_dycore::vertical::thomas_solve;
use grist_dycore::{Field2, PrecisionMode, Real};
use grist_mesh::{HexMesh, EARTH_OMEGA, EARTH_RADIUS_M};
use sunway_sim::Substrate;
use unfused_operators::{cell_to_edge, tangential_velocity, vert_to_edge, vert_velocity};

/// The `RunConfig` precision whose model is a `GristModel<R>`.
pub fn precision_of<R: Real>() -> PrecisionMode {
    if R::BYTES == 8 {
        PrecisionMode::Double
    } else {
        PrecisionMode::Mixed
    }
}

/// `γ = 1/(1−κ)` of the equation of state `p = p₀ X^γ`, `X = ρ R_d θ / p₀`.
pub const GAMMA: f64 = 1.0 / (1.0 - KAPPA);

/// An equation of state: `(p, Π)` of a layer of dry mass `δπ`, potential
/// temperature `θ` and geopotential thickness `δφ`.
pub type Eos = fn(f64, f64, f64) -> (f64, f64);

/// The solver's expressions, copied: `p` and `Π` as exponentials of one
/// `ln X`.
pub fn eos_one_log(dpi: f64, theta: f64, dphi: f64) -> (f64, f64) {
    let rho = dpi / dphi;
    let ln_x = (rho * RDRY * theta / P0).ln();
    (P0 * (GAMMA * ln_x).exp(), (KAPPA * GAMMA * ln_x).exp())
}

/// What the solver evaluated before: `p = p₀ X^γ`, then `Π = (p/p₀)^κ`, two
/// chained `powf`.
#[allow(dead_code)] // each test binary uses one of the two
pub fn eos_powf(dpi: f64, theta: f64, dphi: f64) -> (f64, f64) {
    let rho = dpi / dphi;
    let p = P0 * (rho * RDRY * theta / P0).powf(GAMMA);
    (p, (p / P0).powf(KAPPA))
}

/// The unfused step: every intermediate a whole field, every operator its
/// own pass. Runs serially; the solver under test may not.
pub struct Unfused<R: Real> {
    eos: Eos,
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
    pub flux_sum: Field2<f64>,
    pub flux_steps: usize,
    fct_ws: FctWorkspace<R>,
}

impl<R: Real> Unfused<R> {
    pub fn like(solver: &NhSolver<R>, eos: Eos) -> Self {
        let mesh = solver.mesh.clone();
        let mean_de = mesh.edge_de.iter().sum::<f64>() / mesh.n_edges() as f64 * EARTH_RADIUS_M;
        Unfused {
            eos,
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
    fn diagnose(&self, st: &NhState<R>) -> [Field2<f64>; 4] {
        let (nlev, nc) = (st.dpi.nlev(), st.dpi.ncols());
        let mut out = [(); 4].map(|_| Field2::zeros(nlev, nc));
        for c in 0..nc {
            for k in 0..nlev {
                let t = st.theta_m.at(k, c) / st.dpi.at(k, c);
                let d = st.phi.at(k, c) - st.phi.at(k + 1, c);
                let (p, exner) = (self.eos)(st.dpi.at(k, c), t, d);
                out[0].set(k, c, t);
                out[1].set(k, c, d);
                out[2].set(k, c, p);
                out[3].set(k, c, exner);
            }
        }
        out
    }

    pub fn step(&mut self, st: &mut NhState<R>, dt: f64) {
        let (sub, mesh, geom, geom64) = (&self.sub, &self.mesh, &self.geom, &self.geom64);
        let nlev = st.dpi.nlev();
        let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_verts());
        let cells = || Field2::<R>::zeros(nlev, nc);
        let edges = || Field2::<R>::zeros(nlev, ne);
        let verts = || Field2::<R>::zeros(nlev, nv);
        let [theta, _, _, exner] = self.diagnose(st);

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
        vert_to_edge(mesh, &vor, &mut pv_edge);
        vert_velocity(mesh, geom, &st.u, &mut ve, &mut vn);
        tangential_velocity(mesh, geom, &ve, &vn, &mut vt);
        op::gradient(sub, mesh, geom, &ke, &mut grad_ke);
        // Divergence damping.
        op::divergence(sub, mesh, geom, &st.u, &mut div_u);
        op::gradient(sub, mesh, geom, &div_u, &mut grad_div);
        // Pressure-gradient force in f64.
        let mut grad_exner = Field2::<f64>::zeros(nlev, ne);
        let mut theta_edge = Field2::<f64>::zeros(nlev, ne);
        op::gradient(sub, mesh, geom64, &exner, &mut grad_exner);
        cell_to_edge(mesh, &theta, &mut theta_edge);

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
        let [_, dphi, pres, _] = self.diagnose(st);
        let n = st.dpi.nlev();
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
                cc[k] = GAMMA * p[k] * dt * g / dp[k];
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
