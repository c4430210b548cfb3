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
use sunway_sim::Substrate;
use sunway_sim::{IterSpace, KernelSpec};

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
    exner: Field2<f64>,
    /// `p` and `δφ` for [`Self::diagnose_fields`] only: the step's implicit
    /// solve diagnoses its own, column by column.
    pres: Field2<f64>,
    dphi: Field2<f64>,
    mass_flux: Field2<f64>,
    theta_flux: Field2<f64>,
    div_mass: Field2<f64>,
    ke: Field2<R>,
    div_u: Field2<R>,
    vor: Field2<R>,
    ve: Field2<R>,
    vn: Field2<R>,
    fct_ws: FctWorkspace<R>,
    tracer_mass: Field2<R>,
    /// Squared mean edge spacing \[m²\]: the length scale of the divergence
    /// damping coefficient `ν = c·Δx²/Δt`.
    dx2: f64,
}

thread_local! {
    /// Per-thread column scratch of the two cell kernels that keep their
    /// intermediates out of memory (`hevi_mass_theta_update`: `∇·(Θ V)` and
    /// `ṁ`; `hevi_implicit_vertical`: `p`, `δφ` and the five tridiagonal
    /// rows), grown on first use by whichever thread runs the column — the
    /// MPE or a CPE-team worker.
    static COLUMN_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// `γ = 1/(1−κ)` of the equation of state `p = p₀ X^γ`, `X = ρ R_d θ / p₀`.
const GAMMA: f64 = 1.0 / (1.0 - KAPPA);

/// `ln X` of a layer of dry mass `dpi`, potential temperature `theta` and
/// geopotential thickness `dphi` (`ρ = δπ/δφ`): the one logarithm both `p`
/// and `Π = (p/p₀)^κ = X^{κγ}` are exponentials of — one definition for the
/// full-field diagnosis and the implicit solve's column diagnosis, which
/// must agree bit for bit.
#[inline(always)]
fn eos_ln_x(dpi: f64, theta: f64, dphi: f64) -> f64 {
    let rho = dpi / dphi;
    (rho * RDRY * theta / P0).ln()
}

/// Pressure `p = p₀ exp(γ ln X)`.
#[inline(always)]
fn eos_pressure(ln_x: f64) -> f64 {
    P0 * (GAMMA * ln_x).exp()
}

/// Exner function `Π = exp(κγ ln X)`, without forming `p`.
#[inline(always)]
fn eos_exner(ln_x: f64) -> f64 {
    (KAPPA * GAMMA * ln_x).exp()
}

// Cost descriptors of the seven dyn-step kernels, each counted from its
// per-level code below (DESIGN.md §5 "Cost descriptors": a cell has six
// edges; a fused multiply-add is two cheap ops).

/// `θ = Θ/δπ`, `δφ`, `ln X`, `Π`: 4 cheap, 3 ÷ + `ln` + `exp`; streams `δπ`,
/// `Θ`, `φ`, `θ`, `Π`.
const HEVI_DIAGNOSE: KernelSpec = KernelSpec {
    name: "hevi_diagnose",
    space: IterSpace::Cells,
    flops_per_point: 4.0,
    expensive_per_point: 5.0,
    arrays: 5,
    mixed: false,
};
/// Six edges × (`K += w u u`: 3, `∇·V` fma: 2), then two scalings: 32;
/// streams `u` of six edges, `K`, `∇·V`.
const HEVI_KE_DIVERGENCE: KernelSpec = KernelSpec {
    name: "hevi_ke_divergence",
    space: IterSpace::Cells,
    flops_per_point: 32.0,
    expensive_per_point: 0.0,
    arrays: 8,
    mixed: true,
};
/// `ζ`, `b_e`, `b_n` as three fmas each (18), `ζ A⁻¹ + f` (2), the 2 × 2
/// solve (6): 26; streams `u` of three edges, `ζ+f`, `v_e`, `v_n`.
const HEVI_VERTEX_VORTICITY_VELOCITY: KernelSpec = KernelSpec {
    name: "hevi_vertex_vorticity_velocity",
    space: IterSpace::Vertices,
    flops_per_point: 26.0,
    expensive_per_point: 0.0,
    arrays: 6,
    mixed: true,
};
/// `(ζ+f)_e` 2, `v_t` 7, Coriolis 1, `∂ₙK` / `∂ₙ(∇·V)` / `∂ₙΠ` 2 each, `θ_e` 2,
/// pressure gradient 2, tendency 4, `u += Δt·tend` 2: 26; streams `K`,
/// `∇·V`, `Π`, `θ` of two cells, `ζ+f`, `v_e`, `v_n` of two vertices, `u`.
const HEVI_MOMENTUM_UPDATE: KernelSpec = KernelSpec {
    name: "hevi_momentum_update",
    space: IterSpace::Edges,
    flops_per_point: 26.0,
    expensive_per_point: 0.0,
    arrays: 15,
    mixed: true,
};
/// `F = ½(δπ₁+δπ₂)u` 3, `F θ_e` 3, `ΣF += F` 1: 7; streams `δπ`, `θ` of two
/// cells, `u`, `F`, `F θ_e` and `ΣF` (sub-cycled tracers, as on every
/// Table 2 grid) — `f64` in every scheme (§3.4.2).
const HEVI_MASS_FLUX: KernelSpec = KernelSpec {
    name: "hevi_mass_flux",
    space: IterSpace::Edges,
    flops_per_point: 7.0,
    expensive_per_point: 0.0,
    arrays: 8,
    mixed: false,
};
/// Six edges × two flux fmas (24), two scalings, the column sum, `ṁ` (3),
/// two upwind compares, the `δπ` (4) and `Θ` (6) updates: 42; streams `F`
/// and `F θ_e` of six edges, `θ`, `δπ`, `Θ`, `∇·F`.
const HEVI_MASS_THETA_UPDATE: KernelSpec = KernelSpec {
    name: "hevi_mass_theta_update",
    space: IterSpace::Cells,
    flops_per_point: 42.0,
    expensive_per_point: 0.0,
    arrays: 16,
    mixed: false,
};
/// Column `p` (5 cheap; 3 ÷ + `ln` + `exp`), `C_k` (3; ÷), the tridiagonal
/// row (11; 2 ÷), the Thomas sweep (6; 2 ÷), `φ += Δt g w` (2): 27 cheap,
/// 10 expensive; streams `δπ`, `Θ`, `w`, `φ` (`p`, `δφ` and the rows are
/// column scratch).
const HEVI_IMPLICIT_VERTICAL: KernelSpec = KernelSpec {
    name: "hevi_implicit_vertical",
    space: IterSpace::Cells,
    flops_per_point: 27.0,
    expensive_per_point: 10.0,
    arrays: 4,
    mixed: false,
};

/// The kernels of one [`NhSolver::step`]'s dynamics, in dispatch order, one
/// dispatch each: the per-dyn-step ensemble of the SDPD model and Fig. 9.
pub const DYN_KERNELS: [KernelSpec; 7] = [
    HEVI_DIAGNOSE,
    HEVI_KE_DIVERGENCE,
    HEVI_VERTEX_VORTICITY_VELOCITY,
    HEVI_MOMENTUM_UPDATE,
    HEVI_MASS_FLUX,
    HEVI_MASS_THETA_UPDATE,
    HEVI_IMPLICIT_VERTICAL,
];

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
            exner: Field2::zeros(nlev, nc),
            pres: Field2::zeros(nlev, nc),
            dphi: Field2::zeros(nlev, nc),
            mass_flux: Field2::zeros(nlev, ne),
            theta_flux: Field2::zeros(nlev, ne),
            div_mass: Field2::zeros(nlev, nc),
            ke: Field2::zeros(nlev, nc),
            div_u: Field2::zeros(nlev, nc),
            vor: Field2::zeros(nlev, nv),
            ve: Field2::zeros(nlev, nv),
            vn: Field2::zeros(nlev, nv),
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

    /// Diagnose θ and Π — and, with `WITH_PRESSURE`, layer `p` and `δφ` —
    /// from the prognostic state. The step needs only θ and Π (its implicit
    /// solve diagnoses `p`, `δφ` per column, after the horizontal update);
    /// [`Self::diagnose_fields`] stores all four. (A const parameter, so
    /// each form compiles to a branch-free level loop.)
    fn diagnose<const WITH_PRESSURE: bool>(&mut self, state: &NhState<R>) {
        let nlev = self.vc.nlev;
        let outs = (
            self.theta.cols_mut(),
            self.exner.cols_mut(),
            self.pres.cols_mut(),
            self.dphi.cols_mut(),
        );
        let sub = &self.sub;
        sub.run_cols(HEVI_DIAGNOSE.name, 0, outs, |c, (th, ex, pr, dp)| {
            let dpi = state.dpi.col(c);
            let phi = state.phi.col(c);
            let theta_m = state.theta_m.col(c);
            for k in 0..nlev {
                let t = theta_m[k] / dpi[k];
                let d = phi[k] - phi[k + 1];
                debug_assert!(d > 0.0, "negative layer thickness at cell {c} lev {k}");
                let lx = eos_ln_x(dpi[k], t, d);
                th[k] = t;
                ex[k] = eos_exner(lx);
                if WITH_PRESSURE {
                    pr[k] = eos_pressure(lx);
                    dp[k] = d;
                }
            }
        });
    }

    /// One full HEVI dynamics step of `dt` seconds: explicit horizontal
    /// forward-backward update, then the implicit vertical acoustic solve,
    /// then FCT tracer transport — every step, or with
    /// [`NhConfig::dyn_per_trac`] `> 1` on the step that completes a tracer
    /// cycle (every step of one cycle must use the same `dt`).
    ///
    /// The dynamics are seven kernels, one per iteration space and data
    /// dependence: every intermediate that is a pointwise function of cell
    /// or vertex columns (`∂ₙK`, `∂ₙ(∇·V)`, `∂ₙΠ`, `θ_e`, `(ζ+f)_e`, `v_t`,
    /// `∇·(Θ V)`, `ṁ`) is formed in registers or column scratch by the kernel
    /// that consumes it, per level in the order a stand-alone operator
    /// would.
    pub fn step(&mut self, state: &mut NhState<R>, dt: f64) {
        // All kernels below record under the "dycore" trace span, so the
        // metrics registry can attribute step time to the dynamical core.
        // (Cloned handle: the guard must not borrow `self`.)
        let sub = self.sub.clone();
        let _span = sub.span("dycore");
        self.diagnose::<false>(state);
        let nlev = self.vc.nlev;
        let mesh = &self.mesh;
        let (geom, geom64) = (&self.geom, &self.geom64);

        // ---------- horizontal explicit phase ----------
        // Cell pieces of the vector-invariant momentum equation, in working
        // precision: kinetic energy and the divergence the damping acts on,
        // in one walk over the cell's edges.
        {
            let u = &state.u;
            let outs = (self.ke.cols_mut(), self.div_u.cols_mut());
            sub.run_cols(HEVI_KE_DIVERGENCE.name, 0, outs, |c, (ke, div)| {
                ke.fill(R::ZERO);
                div.fill(R::ZERO);
                let signs = &geom.cell_edge_sign[mesh.cell_edges.row_range(c)];
                for (&e, &sign) in mesh.cell_edges.row(c).iter().zip(signs) {
                    let w_ke = geom.ke_weight[e as usize];
                    let w_div = sign * geom.edge_le[e as usize];
                    let ue = &u.col(e as usize)[..nlev];
                    for k in 0..nlev {
                        ke[k] += w_ke * ue[k] * ue[k];
                        div[k] = ue[k].mul_add(w_div, div[k]);
                    }
                }
                let ia = geom.inv_cell_area[c];
                for k in 0..nlev {
                    ke[k] *= ia;
                    div[k] *= ia;
                }
            });
        }

        // Vertex pieces: absolute vorticity and the least-squares (east,
        // north) velocity, from the same three edge columns.
        {
            let u = &state.u;
            let outs = (self.vor.cols_mut(), self.ve.cols_mut(), self.vn.cols_mut());
            let name = HEVI_VERTEX_VORTICITY_VELOCITY.name;
            sub.run_cols(name, 0, outs, |v, (vor, ve, vn)| {
                let edges = mesh.vert_edges[v].map(|e| e as usize);
                let [u0, u1, u2] = edges.map(|e| &u.col(e)[..nlev]);
                let [w0, w1, w2]: [R; 3] =
                    std::array::from_fn(|i| geom.vert_edge_sign[v][i] * geom.edge_de[edges[i]]);
                let ia = geom.inv_vert_area[v];
                let f = geom.f_vert[v];
                let rc = &geom.vert_recon[v];
                let [n0, n1, n2] = rc.normals;
                for k in 0..nlev {
                    let zeta = u2[k].mul_add(w2, u1[k].mul_add(w1, u0[k].mul_add(w0, R::ZERO)));
                    vor[k] = zeta * ia + f;
                    let be =
                        u2[k].mul_add(n2[0], u1[k].mul_add(n1[0], u0[k].mul_add(n0[0], R::ZERO)));
                    let bn =
                        u2[k].mul_add(n2[1], u1[k].mul_add(n1[1], u0[k].mul_add(n0[1], R::ZERO)));
                    ve[k] = rc.minv[0][0] * be + rc.minv[0][1] * bn;
                    vn[k] = rc.minv[1][0] * be + rc.minv[1][1] * bn;
                }
            });
        }

        // Damping coefficient ν = c·Δx²/dt.
        let nu = R::from_f64(self.config.div_damp * self.dx2 / dt);

        // Momentum update (forward step). The edge values — (ζ+f)_e, v_t,
        // ∂ₙK, ∂ₙ(∇·V) in working precision, ∂ₙΠ and θ_e in f64 — are formed
        // from the two cell and two vertex columns as they are consumed.
        let dt_r = R::from_f64(dt);
        {
            let (ke, div_u, vor, ve, vn) = (&self.ke, &self.div_u, &self.vor, &self.ve, &self.vn);
            let (theta, exner) = (&self.theta, &self.exner);
            let half = R::from_f64(0.5);
            let out = state.u.cols_mut();
            sub.run_cols(HEVI_MOMENTUM_UPDATE.name, 0, out, |e, col| {
                let [c1, c2] = mesh.edge_cells[e].map(|c| c as usize);
                let [v1, v2] = mesh.edge_verts[e].map(|v| v as usize);
                let (ke1, ke2) = (&ke.col(c1)[..nlev], &ke.col(c2)[..nlev]);
                let (dv1, dv2) = (&div_u.col(c1)[..nlev], &div_u.col(c2)[..nlev]);
                let (ex1, ex2) = (&exner.col(c1)[..nlev], &exner.col(c2)[..nlev]);
                let (th1, th2) = (&theta.col(c1)[..nlev], &theta.col(c2)[..nlev]);
                let (pv1, pv2) = (&vor.col(v1)[..nlev], &vor.col(v2)[..nlev]);
                let (ae, an) = (&ve.col(v1)[..nlev], &vn.col(v1)[..nlev]);
                let (be, bn) = (&ve.col(v2)[..nlev], &vn.col(v2)[..nlev]);
                let [te, tn] = geom.edge_tangent_en[e];
                let inv_de = geom.inv_edge_de[e];
                let inv_de64 = geom64.inv_edge_de[e];
                for k in 0..nlev {
                    let pv = (pv1[k] + pv2[k]) * half;
                    let vt = (ae[k] + be[k]) * half * te + (an[k] + bn[k]) * half * tn;
                    let cor = pv * vt;
                    let grad_ke = (ke2[k] - ke1[k]) * inv_de;
                    let grad_div = (dv2[k] - dv1[k]) * inv_de;
                    // Pressure-gradient force assembled in f64, cast once
                    // (§3.4.2: sensitive term).
                    let grad_exner = (ex2[k] - ex1[k]) * inv_de64;
                    let theta_edge = (th1[k] + th2[k]) * 0.5;
                    let pgf = R::from_f64(CP * theta_edge * grad_exner);
                    let tend = cor - grad_ke - pgf + nu * grad_div;
                    col[k] += dt_r * tend;
                }
            });
        }

        // Dry-mass flux δπ·u with the *updated* velocity (forward-backward)
        // — accumulated in f64 per §3.4.2 — and the centered Θ flux it
        // carries. A sub-cycled tracer step also sums the mass flux, in the
        // same pass.
        let sub_cycled = self.config.dyn_per_trac > 1 && !state.tracers.is_empty();
        {
            let u = &state.u;
            let dpi = &state.dpi;
            let theta = &self.theta;
            let first = self.flux_steps == 0;
            let outs = (
                self.mass_flux.cols_mut(),
                self.theta_flux.cols_mut(),
                sub_cycled.then(|| self.flux_sum.cols_mut()),
            );
            sub.run_cols(HEVI_MASS_FLUX.name, 0, outs, |e, (mf, tf, sum)| {
                let [c1, c2] = mesh.edge_cells[e].map(|c| c as usize);
                let (d1, d2) = (&dpi.col(c1)[..nlev], &dpi.col(c2)[..nlev]);
                let (th1, th2) = (&theta.col(c1)[..nlev], &theta.col(c2)[..nlev]);
                let ue = &u.col(e)[..nlev];
                for k in 0..nlev {
                    mf[k] = 0.5 * (d1[k] + d2[k]) * ue[k].to_f64();
                    tf[k] = mf[k] * 0.5 * (th1[k] + th2[k]);
                }
                if let Some(sum) = sum {
                    if first {
                        sum.copy_from_slice(mf);
                    } else {
                        for k in 0..nlev {
                            sum[k] += mf[k];
                        }
                    }
                }
            });
        }

        // Update δπ and Θ: both flux divergences in one walk over the cell's
        // edges, the σ-coordinate vertical mass flux ṁ at interfaces from the
        // column of ∇·(δπ V), then horizontal plus vertical transport
        // (first-order upwind for the vertical θ̃). ∇·(δπ V) is kept: a
        // per-step tracer transport reads it.
        {
            let (mass_flux, theta_flux, theta) = (&self.mass_flux, &self.theta_flux, &self.theta);
            let sigma_i = &self.vc.sigma_i;
            let outs = (
                state.dpi.cols_mut(),
                state.theta_m.cols_mut(),
                self.div_mass.cols_mut(),
            );
            let name = HEVI_MASS_THETA_UPDATE.name;
            sub.run_cols(name, 0, outs, |c, (dpi_c, th_c, div_mass)| {
                COLUMN_SCRATCH.with_borrow_mut(|buf| {
                    if buf.len() < 2 * nlev + 1 {
                        buf.resize(2 * nlev + 1, 0.0);
                    }
                    let (div_theta, rest) = buf.split_at_mut(nlev);
                    let md = &mut rest[..nlev + 1];
                    div_mass.fill(0.0);
                    div_theta.fill(0.0);
                    let signs = &geom64.cell_edge_sign[mesh.cell_edges.row_range(c)];
                    for (&e, &sign) in mesh.cell_edges.row(c).iter().zip(signs) {
                        let w = sign * geom64.edge_le[e as usize];
                        let mf = &mass_flux.col(e as usize)[..nlev];
                        let tf = &theta_flux.col(e as usize)[..nlev];
                        for k in 0..nlev {
                            div_mass[k] = mf[k].mul_add(w, div_mass[k]);
                            div_theta[k] = tf[k].mul_add(w, div_theta[k]);
                        }
                    }
                    let ia = geom64.inv_cell_area[c];
                    for k in 0..nlev {
                        div_mass[k] *= ia;
                        div_theta[k] *= ia;
                    }
                    let dps_dt: f64 = -div_mass.iter().sum::<f64>();
                    let mut acc = 0.0;
                    md[0] = 0.0;
                    for k in 0..nlev {
                        acc += div_mass[k];
                        md[k + 1] = -(sigma_i[k + 1] * dps_dt + acc);
                    }
                    md[nlev] = 0.0; // exact closure at the surface
                    let th = &theta.col(c)[..nlev];
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
                        dpi_c[k] += dt * (-div_mass[k] - (md[k + 1] - md[k]));
                        th_c[k] += dt * (-div_theta[k] - (md[k + 1] * th_bot - md[k] * th_top));
                    }
                });
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
        let steps = self.flux_steps as f64;
        {
            let inv = 1.0 / steps;
            let sum = &self.flux_sum;
            let out = self.mass_flux.cols_mut();
            self.sub.run_cols("hevi_flux_mean", 0, out, |e, col| {
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
        let (sub, mesh) = (&self.sub, &self.mesh);
        // Pre-transport tracer mass in working precision,
        // M_i = (δπ_new + Δt·∇·F)_i · A_i R²: the mass the horizontal
        // flux field acted on.
        let r2 = EARTH_RADIUS_M * EARTH_RADIUS_M;
        {
            let dpi = &state.dpi;
            let div_mass = &self.div_mass;
            let out = self.tracer_mass.cols_mut();
            sub.run_cols("hevi_tracer_mass", 0, out, |c, col| {
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
    /// system, column by column, on `p` and `δφ` diagnosed from the column
    /// as the horizontal update left it.
    fn implicit_vertical(&mut self, state: &mut NhState<R>, dt: f64) {
        let nlev = self.vc.nlev;
        let g = GRAVITY;
        let beta = self.config.beta;
        let p_top = self.vc.p_top;

        let outs = (state.w.cols_mut(), state.phi.cols_mut());
        let (dpi_ro, theta_m_ro) = (&state.dpi, &state.theta_m);
        let sub = &self.sub;
        sub.run_cols(HEVI_IMPLICIT_VERTICAL.name, 0, outs, |c, (w, phi)| {
            COLUMN_SCRATCH.with_borrow_mut(|buf| {
                let dpi = dpi_ro.col(c);
                let theta_m = theta_m_ro.col(c);
                // Unknowns w_i, i = 0..nlev-1 (w_nlev = 0 at the flat surface);
                // the right-hand side, then the solution, is w[..n] itself.
                let n = nlev;
                if buf.len() < 7 * n {
                    buf.resize(7 * n, 0.0);
                }
                let (p, rest) = buf.split_at_mut(n);
                let (dp, rest) = rest.split_at_mut(n);
                let (cc, rest) = rest.split_at_mut(n);
                let (a, rest) = rest.split_at_mut(n);
                let (b, rest) = rest.split_at_mut(n);
                let (cvec, rest) = rest.split_at_mut(n);
                let scratch = &mut rest[..n];
                let (d, w_sfc) = w.split_at_mut(n);
                for k in 0..n {
                    let t = theta_m[k] / dpi[k];
                    dp[k] = phi[k] - phi[k + 1];
                    debug_assert!(dp[k] > 0.0, "negative layer thickness at cell {c} lev {k}");
                    p[k] = eos_pressure(eos_ln_x(dpi[k], t, dp[k]));
                }
                // Linearization coefficients C_k = γ p_k Δt g / δφ_k
                // (δφ responds with the *full* Δt; β enters through the
                // pressure off-centering below).
                for k in 0..n {
                    cc[k] = GAMMA * p[k] * dt * g / dp[k];
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
        self.diagnose::<true>(state);
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
        s.diagnose::<true>(&st);
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
    fn step_diagnosis_matches_full_diagnosis_bitwise_and_leaves_pressure_alone() {
        // On a state with motion, the θ, Π the step diagnoses must be those
        // `diagnose_fields` hands out, and the step form must not touch the
        // stored p and δφ.
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
        s.diagnose::<true>(&st);
        let bits =
            |f: &Field2<f64>| -> Vec<u64> { f.as_slice().iter().map(|x| x.to_bits()).collect() };
        let (pres, dphi) = (bits(&s.pres), bits(&s.dphi));
        let (theta, exner) = (bits(&s.theta), bits(&s.exner));
        s.theta.fill(f64::NAN);
        s.exner.fill(f64::NAN);
        s.diagnose::<false>(&st);
        assert_eq!(bits(&s.theta), theta);
        assert_eq!(bits(&s.exner), exner);
        assert_eq!(bits(&s.pres), pres);
        assert_eq!(bits(&s.dphi), dphi);
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
