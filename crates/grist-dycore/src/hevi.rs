//! The layer-averaged nonhydrostatic core with HEVI time stepping (§3.1.2):
//! "A horizontally explicit and vertically implicit approach is used to
//! discretely solve the nonhydrostatic compressible equation set, requiring
//! minimal data exchange procedures across the horizontal computations
//! without the need for global communication."
//!
//! ## Equations (the six prognostic equations of Fig. 3)
//!
//! In the dry-mass vertical coordinate `π` (σ-type, [`VerticalCoord`]):
//!
//! 1. dry mass           `∂δπ/∂t = −∇·(δπ V) − δ(ṁ)`
//! 2. horizontal momentum `∂u/∂t = (ζ+f)·v_t − ∂ₙK − c_p θ_e ∂ₙΠ − ν∇(∇·V)` (vector-invariant)
//! 3. potential temperature `∂Θ/∂t = −∇·(Θ V) − δ(ṁ θ̃)`, `Θ = δπ·θ`
//! 4. vertical momentum   `∂w/∂t = g (∂p/∂π − 1)`   (implicit)
//! 5. geopotential        `∂φ/∂t = g w`              (implicit)
//! 6. tracers             flux-form FCT transport ([`crate::tracer`])
//!
//! The implicit vertical solve linearizes the equation of state
//! `p = p₀ (ρ R_d θ / p₀)^{1/(1−κ)}` in `δφ` and reduces each column to a
//! tridiagonal system in the interface `w` — the standard HEVI treatment of
//! vertically-propagating acoustic modes.
//!
//! ## Precision split (§3.4.2)
//!
//! The solver is generic over `R`, the paper's `ns` kind: horizontal
//! advective/vector-invariant terms run in `R`. The *sensitive* quantities —
//! the accumulated dry-mass flux `δπV`, the mass/Θ fields themselves, and the
//! pressure-gradient / gravity (implicit) terms — always use `f64`.
//!
//! ## Tracer cadence (Table 2: dyn 4 s, tracer 30 s)
//!
//! With [`NhConfig::dyn_per_trac`] `= n > 1` the tracers are not transported
//! every dynamics step: each step adds its `f64` dry-mass flux to
//! [`NhSolver::flux_sum`], and every `n`-th step transports all tracers once,
//! over `n·Δt`, by the time-mean flux `F̄ = ΣF / n` from the pre-transport
//! mass `M = (δπ_end + nΔt·∇·F̄)·A` — the mass the summed horizontal fluxes
//! acted on, so a uniform tracer stays uniform and `Σ M q` is conserved
//! exactly as in the per-step form. [`NhSolver::flush_tracers`] ends a cycle
//! early (before physics reads the tracers).

use crate::constants::{CP, GRAVITY, KAPPA, P0, RDRY};
use crate::field::Field2;
use crate::operators::{self as op, ScaledGeometry};
use crate::real::Real;
use crate::tracer::{fct_edge_transports, fct_transport_keep_mass, FctWorkspace};
use crate::vertical::{thomas_solve, VerticalCoord};
use grist_mesh::{HexMesh, EARTH_OMEGA, EARTH_RADIUS_M};
use std::cell::RefCell;
use sunway_sim::{ColumnsMut, Substrate};

/// Prognostic state of the nonhydrostatic core.
///
/// Layer fields have `nlev` levels; interface fields have `nlev + 1`
/// (index 0 = model top, `nlev` = surface).
#[derive(Debug, Clone)]
pub struct NhState<R: Real> {
    /// Dry-mass thickness `δπ` per layer \[Pa\] — sensitive, always `f64`.
    pub dpi: Field2<f64>,
    /// Mass-weighted potential temperature `Θ = δπ θ` \[Pa·K\] — `f64`.
    pub theta_m: Field2<f64>,
    /// Edge-normal velocity \[m/s\] — working precision.
    pub u: Field2<R>,
    /// Interface vertical velocity \[m/s\] — enters the gravity terms, `f64`.
    pub w: Field2<f64>,
    /// Interface geopotential \[m²/s²\] — `f64`.
    pub phi: Field2<f64>,
    /// Tracer mixing ratios (e.g. qv, qc, qr) — working precision.
    pub tracers: Vec<Field2<R>>,
}

impl<R: Real> NhState<R> {
    /// Surface dry pressure `p_top + Σ δπ` per cell — the `ps` observable of
    /// the mixed-precision gate (§3.4.1).
    pub fn surface_pressure(&self, p_top: f64) -> Vec<f64> {
        (0..self.dpi.ncols())
            .map(|c| p_top + self.dpi.col(c).iter().sum::<f64>())
            .collect()
    }

    /// Cast the working-precision fields to another precision (the
    /// initialization-time conversion of §3.4.3).
    pub fn cast<S: Real>(&self) -> NhState<S> {
        NhState {
            dpi: self.dpi.clone(),
            theta_m: self.theta_m.clone(),
            u: self.u.cast(),
            w: self.w.clone(),
            phi: self.phi.clone(),
            tracers: self.tracers.iter().map(|t| t.cast()).collect(),
        }
    }
}

/// Configuration of the nonhydrostatic solver.
#[derive(Debug, Clone)]
pub struct NhConfig {
    /// Divergence damping coefficient (fraction of the maximum stable value;
    /// 0 disables). Applied as `+ν ∂ₙ(∇·V)` to suppress acoustic noise, as
    /// all HEVI cores do.
    pub div_damp: f64,
    /// Off-centering of the implicit vertical solve (1 = backward Euler).
    pub beta: f64,
    /// Number of passive tracers carried.
    pub ntracers: usize,
    /// Dynamics steps per tracer step (0 and 1 both mean every step): the
    /// tracers move once per this many [`NhSolver::step`]s, by the mass flux
    /// accumulated over them.
    pub dyn_per_trac: usize,
}

impl Default for NhConfig {
    fn default() -> Self {
        NhConfig {
            div_damp: 0.12,
            beta: 1.0,
            ntracers: 1,
            dyn_per_trac: 1,
        }
    }
}

/// The nonhydrostatic HEVI solver with pre-allocated scratch space.
pub struct NhSolver<R: Real> {
    pub mesh: HexMesh,
    pub vc: VerticalCoord,
    pub config: NhConfig,
    /// Execution target for every hot loop (§3.3): serial MPE fallback or
    /// SWGOMP CPE-team offload. Clones share the job server and profiler.
    pub sub: Substrate,
    /// Working-precision metric terms.
    pub geom: ScaledGeometry<R>,
    /// Double-precision metric terms for the sensitive terms.
    pub geom64: ScaledGeometry<f64>,
    /// Edge dry-mass flux summed over the [`Self::flux_steps`] dynamics steps
    /// of the tracer cycle in progress (§3.4.2: accumulated in `f64`).
    /// Meaningful only while `flux_steps > 0`; with it, part of what a
    /// restart must carry.
    pub flux_sum: Field2<f64>,
    /// Dynamics steps accumulated into [`Self::flux_sum`] since the last
    /// tracer step; 0 between cycles and whenever `dyn_per_trac <= 1`.
    pub flux_steps: usize,
    // --- scratch (layer fields) ---
    theta: Field2<f64>,
    dphi: Field2<f64>,
    pres: Field2<f64>,
    exner: Field2<f64>,
    mass_flux: Field2<f64>,
    div_mass: Field2<f64>,
    theta_flux: Field2<f64>,
    div_theta: Field2<f64>,
    ke: Field2<R>,
    vor: Field2<R>,
    pv_edge: Field2<R>,
    ve: Field2<R>,
    vn: Field2<R>,
    vt: Field2<R>,
    grad_ke: Field2<R>,
    grad_exner: Field2<f64>,
    theta_edge: Field2<f64>,
    div_u: Field2<R>,
    grad_div: Field2<R>,
    mdot: Field2<f64>,
    fct_ws: FctWorkspace<R>,
    tracer_mass: Field2<R>,
    /// Squared mean edge spacing \[m²\]: the length scale of the divergence
    /// damping coefficient `ν = c·Δx²/Δt`.
    dx2: f64,
}

thread_local! {
    /// Per-thread scratch of the implicit column solve (five `nlev`-long
    /// rows), grown on first use by whichever thread runs the column — the
    /// MPE or a CPE-team worker.
    static COLUMN_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

impl<R: Real> NhSolver<R> {
    pub fn new(mesh: HexMesh, vc: VerticalCoord, config: NhConfig) -> Self {
        Self::with_substrate(mesh, vc, config, Substrate::serial())
    }

    /// Build the solver on an explicit execution target (the `!$omp target`
    /// choice of §3.3): pass [`Substrate::cpe_teams`] to offload every hot
    /// loop through the SWGOMP job server.
    pub fn with_substrate(
        mesh: HexMesh,
        vc: VerticalCoord,
        config: NhConfig,
        sub: Substrate,
    ) -> Self {
        let nlev = vc.nlev;
        let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_verts());
        let geom = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
        let geom64 = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
        let dx2 = {
            let mean_de: f64 = mesh.edge_de.iter().sum::<f64>() / mesh.n_edges() as f64;
            let d = mean_de * EARTH_RADIUS_M;
            d * d
        };
        NhSolver {
            geom,
            geom64,
            flux_sum: Field2::zeros(nlev, ne),
            flux_steps: 0,
            theta: Field2::zeros(nlev, nc),
            dphi: Field2::zeros(nlev, nc),
            pres: Field2::zeros(nlev, nc),
            exner: Field2::zeros(nlev, nc),
            mass_flux: Field2::zeros(nlev, ne),
            div_mass: Field2::zeros(nlev, nc),
            theta_flux: Field2::zeros(nlev, ne),
            div_theta: Field2::zeros(nlev, nc),
            ke: Field2::zeros(nlev, nc),
            vor: Field2::zeros(nlev, nv),
            pv_edge: Field2::zeros(nlev, ne),
            ve: Field2::zeros(nlev, nv),
            vn: Field2::zeros(nlev, nv),
            vt: Field2::zeros(nlev, ne),
            grad_ke: Field2::zeros(nlev, ne),
            grad_exner: Field2::zeros(nlev, ne),
            theta_edge: Field2::zeros(nlev, ne),
            div_u: Field2::zeros(nlev, nc),
            grad_div: Field2::zeros(nlev, ne),
            mdot: Field2::zeros(nlev + 1, nc),
            fct_ws: FctWorkspace::new(nlev, &mesh),
            tracer_mass: Field2::zeros(nlev, nc),
            dx2,
            mesh,
            vc,
            config,
            sub,
        }
    }

    /// Hydrostatically balanced isothermal state at rest with temperature
    /// `t0` and uniform surface pressure `ps`, carrying `ntracers` zeroed
    /// tracers (the first initialized to a constant 1e-3 mixing ratio).
    pub fn isothermal_rest_state(&self, t0: f64, ps: f64) -> NhState<R> {
        let nlev = self.vc.nlev;
        let nc = self.mesh.n_cells();
        let pi_i = self.vc.pi_interfaces(ps);
        let dpi_col = self.vc.dpi(ps);

        let mut dpi = Field2::zeros(nlev, nc);
        let mut theta_m = Field2::zeros(nlev, nc);
        let mut phi = Field2::zeros(nlev + 1, nc);
        for c in 0..nc {
            // Hydrostatic: p = π at layer midpoints; integrate φ upward.
            let mut phi_below = 0.0; // flat surface, z_s = 0
            phi.set(nlev, c, phi_below);
            for k in (0..nlev).rev() {
                let p_mid = 0.5 * (pi_i[k] + pi_i[k + 1]);
                let theta = t0 * (P0 / p_mid).powf(KAPPA);
                dpi.set(k, c, dpi_col[k]);
                theta_m.set(k, c, dpi_col[k] * theta);
                // δφ = δπ R_d T / p  (ρ = p/(R_d T))
                let dphi = dpi_col[k] * RDRY * t0 / p_mid;
                phi_below += dphi;
                phi.set(k, c, phi_below);
            }
        }
        let mut tracers = Vec::with_capacity(self.config.ntracers);
        for i in 0..self.config.ntracers {
            let v = if i == 0 { R::from_f64(1e-3) } else { R::ZERO };
            tracers.push(Field2::constant(nlev, nc, v));
        }
        NhState {
            dpi,
            theta_m,
            u: Field2::zeros(nlev, self.mesh.n_edges()),
            w: Field2::zeros(nlev + 1, nc),
            phi,
            tracers,
        }
    }

    /// Diagnose layer δφ and p — and, unless `PRESSURE_ONLY`, θ and Π — from
    /// the prognostic state. The pressure-only form is what the implicit
    /// solve needs after the horizontal update: it saves the Π `powf`, and
    /// every later reader of θ and Π diagnoses in full first. (A const
    /// parameter, so each form compiles to a branch-free level loop.)
    fn diagnose<const PRESSURE_ONLY: bool>(&mut self, state: &NhState<R>) {
        let nlev = self.vc.nlev;
        let gamma = 1.0 / (1.0 - KAPPA);
        let theta = ColumnsMut::new(self.theta.as_mut_slice(), nlev);
        let dphi = ColumnsMut::new(self.dphi.as_mut_slice(), nlev);
        let pres = ColumnsMut::new(self.pres.as_mut_slice(), nlev);
        let exner = ColumnsMut::new(self.exner.as_mut_slice(), nlev);
        self.sub.run("hevi_diagnose", theta.len(), |c| {
            // SAFETY: each cell index is dispatched exactly once.
            let th = unsafe { theta.col(c) };
            let dp = unsafe { dphi.col(c) };
            let pr = unsafe { pres.col(c) };
            let ex = unsafe { exner.col(c) };
            let dpi = state.dpi.col(c);
            let phi = state.phi.col(c);
            let theta_m = state.theta_m.col(c);
            for k in 0..nlev {
                let t = theta_m[k] / dpi[k];
                let d = phi[k] - phi[k + 1];
                debug_assert!(d > 0.0, "negative layer thickness at cell {c} lev {k}");
                let rho = dpi[k] / d;
                let p = P0 * (rho * RDRY * t / P0).powf(gamma);
                dp[k] = d;
                pr[k] = p;
                if !PRESSURE_ONLY {
                    th[k] = t;
                    ex[k] = (p / P0).powf(KAPPA);
                }
            }
        });
    }

    /// One full HEVI dynamics step of `dt` seconds: explicit horizontal
    /// forward-backward update, then the implicit vertical acoustic solve,
    /// then FCT tracer transport — every step, or with
    /// [`NhConfig::dyn_per_trac`] `> 1` on the step that completes a tracer
    /// cycle (every step of one cycle must use the same `dt`).
    pub fn step(&mut self, state: &mut NhState<R>, dt: f64) {
        // All kernels below record under the "dycore" trace span, so the
        // metrics registry can attribute step time to the dynamical core.
        // (Cloned handle: the guard must not borrow `self`.)
        let span_sub = self.sub.clone();
        let _span = span_sub.span("dycore");
        self.diagnose::<false>(state);
        let nlev = self.vc.nlev;
        let mesh = &self.mesh;

        // ---------- horizontal explicit phase ----------
        // Vector-invariant momentum pieces in working precision.
        let sub = self.sub.clone();
        op::kinetic_energy(&sub, mesh, &self.geom, &state.u, &mut self.ke);
        op::vorticity(&sub, mesh, &self.geom, &state.u, &mut self.vor);
        {
            let f = &self.geom.f_vert;
            let cols = ColumnsMut::new(self.vor.as_mut_slice(), nlev);
            sub.run("hevi_abs_vorticity", cols.len(), |v| {
                // SAFETY: each vertex index is dispatched exactly once.
                for x in unsafe { cols.col(v) }.iter_mut() {
                    *x += f[v];
                }
            });
        }
        op::vert_to_edge(&sub, mesh, &self.vor, &mut self.pv_edge);
        op::vert_velocity(&sub, mesh, &self.geom, &state.u, &mut self.ve, &mut self.vn);
        op::tangential_velocity(&sub, mesh, &self.geom, &self.ve, &self.vn, &mut self.vt);
        op::gradient(&sub, mesh, &self.geom, &self.ke, &mut self.grad_ke);

        // Divergence damping (working precision).
        op::divergence(&sub, mesh, &self.geom, &state.u, &mut self.div_u);
        op::gradient(&sub, mesh, &self.geom, &self.div_u, &mut self.grad_div);

        // Pressure-gradient force in f64 (sensitive, §3.4.2).
        op::gradient(&sub, mesh, &self.geom64, &self.exner, &mut self.grad_exner);
        op::cell_to_edge(&sub, mesh, &self.theta, &mut self.theta_edge);

        // Damping coefficient ν = c·Δx²/dt.
        let nu = R::from_f64(self.config.div_damp * self.dx2 / dt);

        // Momentum update (forward step).
        let dt_r = R::from_f64(dt);
        {
            let pv = &self.pv_edge;
            let vt = &self.vt;
            let gke = &self.grad_ke;
            let gdiv = &self.grad_div;
            let gex = &self.grad_exner;
            let te = &self.theta_edge;
            let cols = ColumnsMut::new(state.u.as_mut_slice(), nlev);
            sub.run("hevi_momentum_update", cols.len(), |e| {
                // SAFETY: each edge index is dispatched exactly once.
                let col = unsafe { cols.col(e) };
                for k in 0..nlev {
                    let cor = pv.at(k, e) * vt.at(k, e);
                    // Pressure-gradient force assembled in f64, cast once
                    // (§3.4.2: sensitive term).
                    let pgf = R::from_f64(CP * te.at(k, e) * gex.at(k, e));
                    let tend = cor - gke.at(k, e) - pgf + nu * gdiv.at(k, e);
                    col[k] += dt_r * tend;
                }
            });
        }

        // Dry-mass flux δπ·u with the *updated* velocity (forward-backward)
        // — accumulated in f64 per §3.4.2.
        // A sub-cycled tracer step also sums it, in the same pass.
        let sub_cycled = self.config.dyn_per_trac > 1 && !state.tracers.is_empty();
        {
            let u = &state.u;
            let dpi = &state.dpi;
            let cols = ColumnsMut::new(self.mass_flux.as_mut_slice(), nlev);
            let sums = sub_cycled.then(|| ColumnsMut::new(self.flux_sum.as_mut_slice(), nlev));
            let first = self.flux_steps == 0;
            sub.run("hevi_mass_flux", cols.len(), |e| {
                // SAFETY: each edge index is dispatched exactly once.
                let col = unsafe { cols.col(e) };
                let [c1, c2] = mesh.edge_cells[e];
                let (a, b) = (dpi.col(c1 as usize), dpi.col(c2 as usize));
                for k in 0..nlev {
                    col[k] = 0.5 * (a[k] + b[k]) * u.at(k, e).to_f64();
                }
                if let Some(sums) = &sums {
                    // SAFETY: as above.
                    let sum = unsafe { sums.col(e) };
                    if first {
                        sum.copy_from_slice(col);
                    } else {
                        for k in 0..nlev {
                            sum[k] += col[k];
                        }
                    }
                }
            });
        }
        op::divergence(
            &sub,
            mesh,
            &self.geom64,
            &self.mass_flux,
            &mut self.div_mass,
        );

        // Vertical (σ-coordinate) mass flux ṁ at interfaces.
        {
            let sigma_i = &self.vc.sigma_i;
            let div_mass = &self.div_mass;
            let cols = ColumnsMut::new(self.mdot.as_mut_slice(), nlev + 1);
            sub.run("hevi_vertical_mdot", cols.len(), |c| {
                // SAFETY: each cell index is dispatched exactly once.
                let col = unsafe { cols.col(c) };
                let dcol = div_mass.col(c);
                let dps_dt: f64 = -dcol.iter().sum::<f64>();
                let mut acc = 0.0;
                col[0] = 0.0;
                for k in 0..nlev {
                    acc += dcol[k];
                    col[k + 1] = -(sigma_i[k + 1] * dps_dt + acc);
                }
                col[nlev] = 0.0; // exact closure at the surface
            });
        }

        // Θ flux and divergence (centered horizontal).
        {
            let theta = &self.theta;
            let mass_flux = &self.mass_flux;
            let cols = ColumnsMut::new(self.theta_flux.as_mut_slice(), nlev);
            sub.run("hevi_theta_flux", cols.len(), |e| {
                // SAFETY: each edge index is dispatched exactly once.
                let col = unsafe { cols.col(e) };
                let [c1, c2] = mesh.edge_cells[e];
                let (a, b) = (theta.col(c1 as usize), theta.col(c2 as usize));
                for k in 0..nlev {
                    col[k] = mass_flux.at(k, e) * 0.5 * (a[k] + b[k]);
                }
            });
        }
        op::divergence(
            &sub,
            mesh,
            &self.geom64,
            &self.theta_flux,
            &mut self.div_theta,
        );

        // Update δπ and Θ, including vertical transport (first-order upwind
        // for the vertical θ̃).
        {
            let div_mass = &self.div_mass;
            let div_theta = &self.div_theta;
            let mdot = &self.mdot;
            let theta = &self.theta;
            let dpi_cols = ColumnsMut::new(state.dpi.as_mut_slice(), nlev);
            let th_cols = ColumnsMut::new(state.theta_m.as_mut_slice(), nlev);
            sub.run("hevi_mass_theta_update", dpi_cols.len(), |c| {
                // SAFETY: each cell index is dispatched exactly once.
                let dpi_c = unsafe { dpi_cols.col(c) };
                let th_c = unsafe { th_cols.col(c) };
                let md = mdot.col(c);
                let th = theta.col(c);
                for k in 0..nlev {
                    // Interface θ̃ by upwinding on ṁ (positive = downward).
                    let th_top = if k == 0 {
                        th[0]
                    } else if md[k] >= 0.0 {
                        th[k - 1]
                    } else {
                        th[k]
                    };
                    // At the surface (k+1 == nlev) ṁ is zero so the
                    // upwind pick is immaterial; otherwise upwind on ṁ.
                    let th_bot = if k + 1 == nlev || md[k + 1] >= 0.0 {
                        th[k]
                    } else {
                        th[k + 1]
                    };
                    dpi_c[k] += dt * (-div_mass.at(k, c) - (md[k + 1] - md[k]));
                    th_c[k] += dt * (-div_theta.at(k, c) - (md[k + 1] * th_bot - md[k] * th_top));
                }
            });
        }

        // ---------- implicit vertical acoustic phase ----------
        self.implicit_vertical(state, dt);

        // ---------- tracer transport ----------
        if sub_cycled {
            self.flux_steps += 1;
            if self.flux_steps >= self.config.dyn_per_trac {
                self.end_tracer_cycle(state, dt);
            }
        } else {
            self.transport_tracers(state, dt);
        }
    }

    /// Transport the tracers over whatever part of a tracer cycle has been
    /// accumulated (nothing, when none has), so they are current at the
    /// state's time — what a reader of the tracers outside the dynamics
    /// (physics coupling) calls first. `dt` is the length of each accumulated
    /// dynamics step.
    pub fn flush_tracers(&mut self, state: &mut NhState<R>, dt: f64) {
        if self.flux_steps > 0 {
            let span_sub = self.sub.clone();
            let _span = span_sub.span("dycore");
            self.end_tracer_cycle(state, dt);
        }
    }

    /// One tracer step over the `flux_steps` accumulated dynamics steps of
    /// `dt` seconds each: the time-mean flux `F̄` and its divergence take the
    /// per-step scratch fields, then the tracers move as in a single step of
    /// the whole interval.
    fn end_tracer_cycle(&mut self, state: &mut NhState<R>, dt: f64) {
        let nlev = self.vc.nlev;
        let steps = self.flux_steps as f64;
        {
            let inv = 1.0 / steps;
            let sum = &self.flux_sum;
            let cols = ColumnsMut::new(self.mass_flux.as_mut_slice(), nlev);
            self.sub.run("hevi_flux_mean", cols.len(), |e| {
                // SAFETY: each edge index is dispatched exactly once.
                let col = unsafe { cols.col(e) };
                for (x, &s) in col.iter_mut().zip(sum.col(e)) {
                    *x = s * inv;
                }
            });
        }
        op::divergence(
            &self.sub,
            &self.mesh,
            &self.geom64,
            &self.mass_flux,
            &mut self.div_mass,
        );
        self.flux_steps = 0;
        self.transport_tracers(state, steps * dt);
    }

    /// FCT transport of every tracer over `dt` seconds by the dry-mass flux
    /// in `mass_flux`, whose divergence is in `div_mass`.
    fn transport_tracers(&mut self, state: &mut NhState<R>, dt: f64) {
        if state.tracers.is_empty() {
            return;
        }
        let nlev = self.vc.nlev;
        let (sub, mesh) = (&self.sub, &self.mesh);
        // Pre-transport tracer mass in working precision,
        // M_i = (δπ_new + Δt·∇·F)_i · A_i R²: the mass the horizontal
        // flux field acted on.
        let r2 = EARTH_RADIUS_M * EARTH_RADIUS_M;
        {
            let dpi = &state.dpi;
            let div_mass = &self.div_mass;
            let cols = ColumnsMut::new(self.tracer_mass.as_mut_slice(), nlev);
            sub.run("hevi_tracer_mass", cols.len(), |c| {
                // SAFETY: each cell index is dispatched exactly once.
                let col = unsafe { cols.col(c) };
                let a = mesh.cell_area[c] * r2;
                for (k, x) in col.iter_mut().enumerate() {
                    *x = R::from_f64((dpi.at(k, c) + dt * div_mass.at(k, c)) * a);
                }
            });
        }
        fct_edge_transports(sub, &self.geom, &self.mass_flux, dt, &mut self.fct_ws);
        for q in &mut state.tracers {
            fct_transport_keep_mass(
                sub,
                mesh,
                &self.geom,
                &self.tracer_mass,
                q,
                &mut self.fct_ws,
            );
        }
    }

    /// Backward-Euler (β-off-centered) solve of the coupled w–φ acoustic
    /// system, column by column.
    fn implicit_vertical(&mut self, state: &mut NhState<R>, dt: f64) {
        self.diagnose::<true>(state); // refresh p, δφ after the horizontal update
        let nlev = self.vc.nlev;
        let gamma = 1.0 / (1.0 - KAPPA);
        let g = GRAVITY;
        let beta = self.config.beta;
        let p_top = self.vc.p_top;
        let pres = &self.pres;
        let dphi = &self.dphi;

        let w_cols = ColumnsMut::new(state.w.as_mut_slice(), nlev + 1);
        let phi_cols = ColumnsMut::new(state.phi.as_mut_slice(), nlev + 1);
        let dpi_ro = &state.dpi;
        self.sub.run("hevi_implicit_vertical", w_cols.len(), |c| {
            // SAFETY: each cell index is dispatched exactly once.
            let w = unsafe { w_cols.col(c) };
            let phi = unsafe { phi_cols.col(c) };
            COLUMN_SCRATCH.with_borrow_mut(|buf| {
                let dpi = dpi_ro.col(c);
                let p = pres.col(c);
                let dp = dphi.col(c);
                // Unknowns w_i, i = 0..nlev-1 (w_nlev = 0 at the flat surface);
                // the right-hand side, then the solution, is w[..n] itself.
                let n = nlev;
                if buf.len() < 5 * n {
                    buf.resize(5 * n, 0.0);
                }
                let (cc, rest) = buf.split_at_mut(n);
                let (a, rest) = rest.split_at_mut(n);
                let (b, rest) = rest.split_at_mut(n);
                let (cvec, rest) = rest.split_at_mut(n);
                let scratch = &mut rest[..n];
                let (d, w_sfc) = w.split_at_mut(n);
                // Linearization coefficients C_k = γ p_k Δt g / δφ_k
                // (δφ responds with the *full* Δt; β enters through the
                // pressure off-centering below).
                for k in 0..n {
                    cc[k] = gamma * p[k] * dt * g / dp[k];
                }
                for i in 0..n {
                    let dpi_half = if i == 0 {
                        0.5 * dpi[0]
                    } else {
                        0.5 * (dpi[i - 1] + dpi[i])
                    };
                    let fac = beta * dt * g / dpi_half;
                    let p_above = if i == 0 { p_top } else { p[i - 1] };
                    let c_above = if i == 0 { 0.0 } else { cc[i - 1] };
                    a[i] = -fac * c_above;
                    b[i] = 1.0 + fac * (cc[i] + c_above);
                    cvec[i] = -fac * cc[i]; // couples to w_{i+1}; w_n = 0
                    d[i] += dt * g * ((p[i] - p_above) / dpi_half - 1.0);
                }
                thomas_solve(a, b, cvec, d, scratch);
                for i in 0..n {
                    phi[i] += dt * g * d[i];
                }
                // Surface: rigid flat lower boundary.
                w_sfc[0] = 0.0;
            });
        });
    }

    /// Diagnose and expose the layer fields the physics–dynamics coupling
    /// interface needs (§3.2.4): pressure, potential temperature, and layer
    /// geopotential thickness.
    pub fn diagnose_fields(
        &mut self,
        state: &NhState<R>,
    ) -> (&Field2<f64>, &Field2<f64>, &Field2<f64>, &Field2<f64>) {
        self.diagnose::<false>(state);
        (&self.pres, &self.theta, &self.dphi, &self.exner)
    }

    /// Relative vorticity at dual vertices of the current `u` — the `vor`
    /// observable of the mixed-precision gate, returned as f64.
    pub fn vorticity_diag(&mut self, state: &NhState<R>) -> Vec<f64> {
        let sub = self.sub.clone();
        op::vorticity(&sub, &self.mesh, &self.geom, &state.u, &mut self.vor);
        self.vor.to_f64_vec()
    }

    /// Global dry-air mass `Σ_c A_c Σ_k δπ_k` (conservation diagnostic).
    pub fn total_dry_mass(&self, state: &NhState<R>) -> f64 {
        let r2 = EARTH_RADIUS_M * EARTH_RADIUS_M;
        (0..self.mesh.n_cells())
            .map(|c| state.dpi.col(c).iter().sum::<f64>() * self.mesh.cell_area[c] * r2)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver(level: u32, nlev: usize) -> NhSolver<f64> {
        NhSolver::new(
            HexMesh::build(level),
            VerticalCoord::uniform(nlev),
            NhConfig::default(),
        )
    }

    #[test]
    fn isothermal_state_is_hydrostatic() {
        // p diagnosed from the EOS must equal π at layer midpoints.
        let mut s = solver(2, 12);
        let st = s.isothermal_rest_state(280.0, 1.0e5);
        s.diagnose::<false>(&st);
        let pi_i = s.vc.pi_interfaces(1.0e5);
        for k in 0..12 {
            let p_mid = 0.5 * (pi_i[k] + pi_i[k + 1]);
            let p = s.pres.at(k, 0);
            assert!(
                ((p - p_mid) / p_mid).abs() < 1e-10,
                "lev {k}: p = {p}, π_mid = {p_mid}"
            );
        }
    }

    #[test]
    fn pressure_only_diagnosis_matches_full_diagnosis_bitwise() {
        // On a state with motion, the re-diagnosis the implicit solve uses
        // must reproduce the full one's p and δφ bit for bit and leave θ, Π
        // alone.
        let mut s = solver(2, 9);
        let mut st = s.isothermal_rest_state(285.0, 1.0e5);
        for e in 0..s.mesh.n_edges() {
            let m = s.mesh.edge_mid[e];
            for k in 0..9 {
                st.u.set(k, e, 8.0 * m.z * s.mesh.edge_normal[e].x);
            }
        }
        for _ in 0..5 {
            s.step(&mut st, 120.0);
        }
        s.diagnose::<false>(&st);
        let bits =
            |f: &Field2<f64>| -> Vec<u64> { f.as_slice().iter().map(|x| x.to_bits()).collect() };
        let (pres, dphi) = (bits(&s.pres), bits(&s.dphi));
        let (theta, exner) = (bits(&s.theta), bits(&s.exner));
        s.pres.fill(f64::NAN);
        s.dphi.fill(f64::NAN);
        s.diagnose::<true>(&st);
        assert_eq!(bits(&s.pres), pres);
        assert_eq!(bits(&s.dphi), dphi);
        assert_eq!(bits(&s.theta), theta);
        assert_eq!(bits(&s.exner), exner);
    }

    #[test]
    fn rest_state_stays_at_rest() {
        let mut s = solver(2, 10);
        let mut st = s.isothermal_rest_state(280.0, 1.0e5);
        for _ in 0..20 {
            s.step(&mut st, 120.0);
        }
        let umax = st.u.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let wmax = st.w.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(umax < 1e-8, "spurious horizontal wind {umax}");
        assert!(wmax < 1e-6, "spurious vertical wind {wmax}");
    }

    #[test]
    fn dry_mass_conserved_under_motion() {
        let mut s = solver(2, 8);
        let mut st = s.isothermal_rest_state(280.0, 1.0e5);
        // Kick the flow.
        for e in 0..s.mesh.n_edges() {
            for k in 0..8 {
                let m = s.mesh.edge_mid[e];
                st.u.set(k, e, 5.0 * m.z * s.mesh.edge_normal[e].x);
            }
        }
        let m0 = s.total_dry_mass(&st);
        for _ in 0..20 {
            s.step(&mut st, 120.0);
        }
        let m1 = s.total_dry_mass(&st);
        assert!(
            ((m1 - m0) / m0).abs() < 1e-12,
            "dry mass drift {}",
            (m1 - m0) / m0
        );
    }

    #[test]
    fn warm_bubble_rises() {
        // Heating the lowest layers of one column must produce upward w there.
        let mut s = solver(2, 12);
        let mut st = s.isothermal_rest_state(280.0, 1.0e5);
        let hot = 0usize;
        for k in 8..12 {
            let dpi = st.dpi.at(k, hot);
            let th = st.theta_m.at(k, hot) / dpi;
            st.theta_m.set(k, hot, dpi * (th + 5.0));
        }
        // The pressure perturbation launches an updraft that the implicit
        // (backward-Euler) solver rings down over a few steps — track the
        // peak across the adjustment.
        let mut w_peak = f64::MIN;
        for _ in 0..10 {
            s.step(&mut st, 60.0);
            let w_max_col = (0..13).map(|i| st.w.at(i, hot)).fold(f64::MIN, f64::max);
            w_peak = w_peak.max(w_max_col);
        }
        assert!(w_peak > 0.05, "no updraft over warm bubble: {w_peak}");
        // And the adjustment must decay, not blow up.
        let w_final = (0..13)
            .map(|i| st.w.at(i, hot).abs())
            .fold(0.0f64, f64::max);
        assert!(w_final < w_peak, "acoustic adjustment did not decay");
    }

    #[test]
    fn stable_integration_with_perturbed_flow() {
        let mut s = solver(3, 10);
        let mut st = s.isothermal_rest_state(290.0, 1.0e5);
        for e in 0..s.mesh.n_edges() {
            let m = s.mesh.edge_mid[e];
            for k in 0..10 {
                let jet = 15.0 * (2.0 * m.lat()).cos().powi(2);
                let zonal = grist_mesh::Vec3::new(0.0, 0.0, 1.0).cross(m);
                st.u.set(k, e, jet * zonal.dot(s.mesh.edge_normal[e]));
            }
        }
        for _ in 0..40 {
            s.step(&mut st, 120.0);
        }
        assert!(st.u.as_slice().iter().all(|x| x.is_finite()));
        assert!(st.w.as_slice().iter().all(|x| x.is_finite()));
        let umax = st.u.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(umax < 200.0, "flow blew up: max |u| = {umax}");
    }

    #[test]
    fn tracer_stays_constant_when_uniform() {
        let mut s = solver(2, 8);
        let mut st = s.isothermal_rest_state(280.0, 1.0e5);
        for e in 0..s.mesh.n_edges() {
            let m = s.mesh.edge_mid[e];
            let zonal = grist_mesh::Vec3::new(0.0, 0.0, 1.0).cross(m);
            for k in 0..8 {
                st.u.set(k, e, 10.0 * zonal.dot(s.mesh.edge_normal[e]));
            }
        }
        for _ in 0..10 {
            s.step(&mut st, 120.0);
        }
        for &q in st.tracers[0].as_slice() {
            assert!((q - 1e-3).abs() < 1e-9, "uniform tracer drifted: {q}");
        }
    }

    /// A solver on the Table-2 tracer cadence and a state in zonal flow.
    fn sub_cycled(level: u32, nlev: usize, dyn_per_trac: usize) -> (NhSolver<f64>, NhState<f64>) {
        let config = NhConfig {
            dyn_per_trac,
            ..NhConfig::default()
        };
        let s = NhSolver::new(HexMesh::build(level), VerticalCoord::uniform(nlev), config);
        let mut st = s.isothermal_rest_state(280.0, 1.0e5);
        for e in 0..s.mesh.n_edges() {
            let m = s.mesh.edge_mid[e];
            let zonal = grist_mesh::Vec3::new(0.0, 0.0, 1.0).cross(m);
            for k in 0..nlev {
                let speed = 10.0 + 10.0 * k as f64 / nlev as f64;
                st.u.set(k, e, speed * zonal.dot(s.mesh.edge_normal[e]));
            }
        }
        (s, st)
    }

    #[test]
    fn sub_cycled_uniform_tracer_stays_uniform() {
        let (mut s, mut st) = sub_cycled(2, 8, 8);
        for _ in 0..16 {
            s.step(&mut st, 120.0);
        }
        assert_eq!(s.flux_steps, 0, "16 steps are two whole cycles");
        for &q in st.tracers[0].as_slice() {
            assert!((q - 1e-3).abs() < 1e-9, "uniform tracer drifted: {q}");
        }
        assert_eq!(s.sub.metrics().counter("tracer.cfl_violations"), 0);
    }

    #[test]
    fn sub_cycled_transport_conserves_tracer_mass_and_adds_no_extrema() {
        let (mut s, mut st) = sub_cycled(3, 6, 8);
        let center = grist_mesh::Vec3::new(1.0, 0.0, 0.0);
        for c in 0..s.mesh.n_cells() {
            let d = s.mesh.cell_xyz[c].arc_dist(center) / 0.3;
            for k in 0..6 {
                st.tracers[0].set(k, c, (-d * d).exp());
            }
        }
        let q_start = st.tracers[0].clone();
        let (q_min, q_max) = (q_start.min_value(), q_start.max_value());
        let r2 = EARTH_RADIUS_M * EARTH_RADIUS_M;
        for cycle in 0..3 {
            let q_old = st.tracers[0].clone();
            for _ in 0..7 {
                s.step(&mut st, 300.0);
            }
            assert_eq!(
                st.tracers[0].as_slice(),
                q_old.as_slice(),
                "tracers moved before the cycle's last step"
            );
            s.step(&mut st, 300.0);
            assert_eq!(s.flux_steps, 0);
            // Σ M q over the tracer step: M the pre-transport mass before,
            // the dry mass the dynamics arrived at after.
            let before = crate::tracer::total_tracer(&s.tracer_mass, &q_old);
            let mass_end = Field2::from_fn(6, s.mesh.n_cells(), |k, c| {
                st.dpi.at(k, c) * s.mesh.cell_area[c] * r2
            });
            let after = crate::tracer::total_tracer(&mass_end, &st.tracers[0]);
            assert!(
                ((after - before) / before).abs() < 1e-12,
                "cycle {cycle}: tracer mass drift {}",
                (after - before) / before
            );
            assert!(st.tracers[0].min_value() >= q_min - 1e-12, "undershoot");
            assert!(st.tracers[0].max_value() <= q_max + 1e-12, "overshoot");
        }
        assert_ne!(
            st.tracers[0].as_slice(),
            q_start.as_slice(),
            "blob never moved"
        );
        assert_eq!(s.sub.metrics().counter("tracer.cfl_violations"), 0);
    }

    #[test]
    fn flush_transports_a_partial_cycle_over_exactly_its_elapsed_time() {
        // Three of eight steps, then a flush: a uniform tracer stays uniform
        // only if the transported mass is the mass the three steps moved.
        let (mut s, mut st) = sub_cycled(2, 8, 8);
        for _ in 0..3 {
            s.step(&mut st, 120.0);
        }
        assert_eq!(s.flux_steps, 3);
        s.flush_tracers(&mut st, 120.0);
        assert_eq!(s.flux_steps, 0);
        for &q in st.tracers[0].as_slice() {
            assert!((q - 1e-3).abs() < 1e-9, "uniform tracer drifted: {q}");
        }
        let moved = st.tracers[0].clone();
        s.flush_tracers(&mut st, 120.0);
        assert_eq!(
            st.tracers[0].as_slice(),
            moved.as_slice(),
            "nothing to flush"
        );
        // The next cycle starts from an empty sum: five more steps do not
        // complete one, eight do.
        for _ in 0..5 {
            s.step(&mut st, 120.0);
        }
        assert_eq!(s.flux_steps, 5);
        for _ in 0..3 {
            s.step(&mut st, 120.0);
        }
        assert_eq!(s.flux_steps, 0);
        for &q in st.tracers[0].as_slice() {
            assert!((q - 1e-3).abs() < 1e-9, "uniform tracer drifted: {q}");
        }
    }

    #[test]
    fn mixed_precision_gate_on_short_run() {
        // §3.4.1: ps and vor relative-L2 deviation of the f32 working
        // precision vs the f64 gold standard stays under 5%.
        let mesh = HexMesh::build(2);
        let vc = VerticalCoord::uniform(8);
        let mut s64 = NhSolver::<f64>::new(mesh.clone(), vc.clone(), NhConfig::default());
        let mut s32 = NhSolver::<f32>::new(mesh, vc, NhConfig::default());
        let mut g = s64.isothermal_rest_state(285.0, 1.0e5);
        for e in 0..s64.mesh.n_edges() {
            let m = s64.mesh.edge_mid[e];
            let zonal = grist_mesh::Vec3::new(0.0, 0.0, 1.0).cross(m);
            for k in 0..8 {
                g.u.set(
                    k,
                    e,
                    20.0 * m.lat().cos() * zonal.dot(s64.mesh.edge_normal[e]),
                );
            }
        }
        let mut m = g.cast::<f32>();
        for _ in 0..30 {
            s64.step(&mut g, 120.0);
            s32.step(&mut m, 120.0);
        }
        let ps_g = g.surface_pressure(s64.vc.p_top);
        let ps_m = m.surface_pressure(s32.vc.p_top);
        let e_ps = crate::real::relative_l2_error(&ps_m, &ps_g);
        assert!(
            e_ps < crate::real::MIXED_PRECISION_ERROR_THRESHOLD,
            "ps deviation {e_ps}"
        );
        let vor_g = s64.vorticity_diag(&g);
        let vor_m = s32.vorticity_diag(&m);
        let e_vor = crate::real::relative_l2_error(&vor_m, &vor_g);
        assert!(
            e_vor < crate::real::MIXED_PRECISION_ERROR_THRESHOLD,
            "vor deviation {e_vor}"
        );
    }
}
