//! Shallow-water mode of the dynamical core.
//!
//! The rotating shallow-water equations in vector-invariant form are the
//! classical proving ground for a C-grid operator set (GRIST's own baseline
//! evaluation does the same [Zhang et al. 2019]). The solver exercises every
//! horizontal operator of the 3-D core — divergence, gradient, vorticity,
//! kinetic energy, tangential reconstruction, nonlinear Coriolis — fused
//! into four kernels, one per iteration space, and is validated on
//! Williamson test case 2 (steady geostrophic flow).
//!
//! Equations (h: fluid thickness, u: edge-normal velocity, b: bottom
//! topography):
//!
//! ```text
//! ∂h/∂t = −∇·(h V)
//! ∂u/∂t = +(ζ+f)·v_t − ∂/∂n (K + g(h+b))
//! ```

use crate::constants::GRAVITY;
use crate::field::Field2;
use crate::operators::{self, ScaledGeometry};
use crate::real::Real;
use grist_mesh::{HexMesh, Vec3, EARTH_OMEGA, EARTH_RADIUS_M};
use std::collections::BTreeSet;
use sunway_sim::{over, IndexSet, Substrate};

/// Per-kernel index subsets for one phase of a phased tendency evaluation,
/// one set per kernel of [`SweSolver::tendencies`]. Built by
/// [`SwePhases::build`]; each is an [`IndexSet`], so no index is dispatched
/// twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweSubset {
    /// `swe_cell_tend`: cells whose mass tendency and Bernoulli function
    /// the phase writes.
    cells: IndexSet,
    /// `swe_mass_flux`: every edge incident to a phase cell.
    flux_edges: IndexSet,
    /// `swe_momentum_tend`: edges whose both cells are phase cells, so the
    /// Bernoulli values they read were computed in the same phase.
    momentum_edges: IndexSet,
    /// `swe_vertex`: the vertices of the momentum edges.
    verts: IndexSet,
}

/// A two-phase cover of the full index space for the shallow-water
/// tendencies: `interior` runs first (e.g. overlapped with an in-flight
/// halo exchange), `remainder` completes every output index the interior
/// phase skipped. Each cell/edge/vertex of every kernel is dispatched
/// exactly once across the two phases, and every stencil a phase-1 kernel
/// reads is produced in phase 1, so
/// `tendencies_subset(interior); tendencies_subset(remainder)` is bitwise
/// identical to one full [`SweSolver::tendencies`] call — for *any* choice
/// of interior cells.
///
/// For overlap correctness (reading only owned data while halos are in
/// flight) the interior cells must additionally come from a
/// `RankLocale::phase_split` with pad ≥ 1: the interior mass-flux chain
/// reads `h` at the interior cells and their first neighbours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwePhases {
    pub interior: SweSubset,
    pub remainder: SweSubset,
}

impl SwePhases {
    /// Derive the kernel subsets from an interior cell set (in any order,
    /// repeats ignored).
    pub fn build(mesh: &HexMesh, interior_cells: &[u32]) -> Self {
        let interior_set: BTreeSet<u32> = interior_cells.iter().copied().collect();
        let mut flux_edges: BTreeSet<u32> = BTreeSet::new();
        for &c in interior_cells {
            for &e in mesh.cell_edges.row(c as usize) {
                flux_edges.insert(e);
            }
        }
        let momentum_edges: Vec<u32> = (0..mesh.n_edges() as u32)
            .filter(|&e| {
                let [c1, c2] = mesh.edge_cells[e as usize];
                interior_set.contains(&c1) && interior_set.contains(&c2)
            })
            .collect();
        let mut verts: BTreeSet<u32> = BTreeSet::new();
        for &e in &momentum_edges {
            for v in mesh.edge_verts[e as usize] {
                verts.insert(v);
            }
        }
        let momentum_set: BTreeSet<u32> = momentum_edges.iter().copied().collect();
        // `0..n` without `taken`, in increasing order.
        let rest = |n: usize, taken: &BTreeSet<u32>| {
            IndexSet::new((0..n as u32).filter(|i| !taken.contains(i)).collect())
        };
        let remainder = SweSubset {
            cells: rest(mesh.n_cells(), &interior_set),
            flux_edges: rest(mesh.n_edges(), &flux_edges),
            momentum_edges: rest(mesh.n_edges(), &momentum_set),
            verts: rest(mesh.n_verts(), &verts),
        };
        // The sets iterate in increasing order, each index once.
        let interior = SweSubset {
            cells: IndexSet::new(interior_set.into_iter().collect()),
            flux_edges: IndexSet::new(flux_edges.into_iter().collect()),
            momentum_edges: IndexSet::new(momentum_edges),
            verts: IndexSet::new(verts.into_iter().collect()),
        };
        SwePhases {
            interior,
            remainder,
        }
    }
}

/// Dispatch one kernel body over all of `out` (`set: None`) or over `set`'s
/// indices of it: same name, same per-index arithmetic, so interior then
/// remainder writes bitwise what one full dispatch writes. (A macro, so a
/// full dispatch pays no per-index subset lookup.)
macro_rules! run_over {
    ($sub:expr, $name:literal, $set:expr, $out:expr, $body:expr) => {
        match $set {
            None => $sub.run_cols($name, 0, $out, $body),
            Some(set) => $sub.run_cols($name, 0, over(set, $out), $body),
        }
    };
}

/// Shallow-water prognostic state.
#[derive(Debug, Clone)]
pub struct SweState<R: Real> {
    /// Fluid thickness at cells \[m\].
    pub h: Field2<R>,
    /// Normal velocity at edges \[m/s\].
    pub u: Field2<R>,
}

/// The shallow-water solver with its scratch fields.
pub struct SweSolver<R: Real> {
    pub mesh: HexMesh,
    pub geom: ScaledGeometry<R>,
    /// Execution target for every hot loop (§3.3): serial MPE fallback or
    /// SWGOMP CPE-team offload. Clones share the job server and profiler.
    pub sub: Substrate,
    /// Bottom topography at cells \[m\].
    pub topo: Field2<R>,
    // What one kernel of a tendency evaluation hands the next.
    flux: Field2<R>,
    bern: Field2<R>,
    vor: Field2<R>,
    ve: Field2<R>,
    vn: Field2<R>,
    /// Scratch of [`Self::total_energy`] only.
    ke: Field2<R>,
    /// The stage state and the two tendencies of an RK3 step; `None` while
    /// a step has them out.
    rk3: Option<Rk3Work<R>>,
}

struct Rk3Work<R: Real> {
    stage: SweState<R>,
    th: Field2<R>,
    tu: Field2<R>,
}

impl<R: Real> SweSolver<R> {
    pub fn new(mesh: HexMesh) -> Self {
        Self::with_substrate(mesh, Substrate::serial())
    }

    /// Build the solver on an explicit execution target (the `!$omp target`
    /// choice of §3.3): pass [`Substrate::cpe_teams`] to offload every hot
    /// loop through the SWGOMP job server.
    pub fn with_substrate(mesh: HexMesh, sub: Substrate) -> Self {
        let geom = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
        let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_verts());
        SweSolver {
            geom,
            sub,
            topo: Field2::zeros(1, nc),
            flux: Field2::zeros(1, ne),
            bern: Field2::zeros(1, nc),
            vor: Field2::zeros(1, nv),
            ve: Field2::zeros(1, nv),
            vn: Field2::zeros(1, nv),
            ke: Field2::zeros(1, nc),
            rk3: Some(Rk3Work {
                stage: SweState {
                    h: Field2::zeros(1, nc),
                    u: Field2::zeros(1, ne),
                },
                th: Field2::zeros(1, nc),
                tu: Field2::zeros(1, ne),
            }),
            mesh,
        }
    }

    /// Evaluate tendencies `(dh/dt, du/dt)` for `state` into `(th, tu)`.
    pub fn tendencies(&mut self, state: &SweState<R>, th: &mut Field2<R>, tu: &mut Field2<R>) {
        self.tendencies_impl(state, th, tu, None);
    }

    /// [`Self::tendencies`] restricted to one phase of a [`SwePhases`]
    /// cover: only the subset's cells/edges/vertices are written, through
    /// the same kernels (same names, same per-index arithmetic). Running
    /// the interior and remainder subsets back-to-back is bitwise identical
    /// to one full `tendencies` call.
    pub fn tendencies_subset(
        &mut self,
        state: &SweState<R>,
        th: &mut Field2<R>,
        tu: &mut Field2<R>,
        subset: &SweSubset,
    ) {
        self.tendencies_impl(state, th, tu, Some(subset));
    }

    /// Four kernels, one per iteration space and data dependence; each forms
    /// its intermediates in registers with the operand order, association
    /// and `mul_add`s of the stand-alone operator it absorbed
    /// (`tests/integration_swe_fused.rs` holds the result to that
    /// composition bit for bit).
    fn tendencies_impl(
        &mut self,
        state: &SweState<R>,
        th: &mut Field2<R>,
        tu: &mut Field2<R>,
        subset: Option<&SweSubset>,
    ) {
        let (nc, ne) = (self.mesh.n_cells(), self.mesh.n_edges());
        for (what, f, n) in [
            ("h", &state.h, nc),
            ("u", &state.u, ne),
            ("dh/dt", &*th, nc),
            ("du/dt", &*tu, ne),
        ] {
            // The kernels index these as flat slices: a second level would
            // be read as the next column.
            assert!(
                f.nlev() == 1 && f.ncols() == n,
                "shallow water is one layer on this mesh: {what} must be 1 x {n}, got {} x {}",
                f.nlev(),
                f.ncols()
            );
        }
        let mesh = &self.mesh;
        let geom = &self.geom;
        let sub = self.sub.clone();
        let (h, u) = (state.h.as_slice(), state.u.as_slice());
        let half = R::from_f64(0.5);

        // Mass flux h_e·u at edges, h_e the centered cell average.
        let (edges, out) = (subset.map(|s| &s.flux_edges), self.flux.as_mut_slice());
        run_over!(sub, "swe_mass_flux", edges, out, |e, flux| {
            let [c1, c2] = mesh.edge_cells[e].map(|c| c as usize);
            *flux = (h[c1] + h[c2]) * half * u[e];
        });

        // Cells: dh/dt = −∇·F and the Bernoulli function K + g(h+b), from
        // one walk over the cell's edges.
        {
            let g = R::from_f64(GRAVITY);
            let (flux, topo) = (self.flux.as_slice(), self.topo.as_slice());
            let cells = subset.map(|s| &s.cells);
            let out = (th.as_mut_slice(), self.bern.as_mut_slice());
            run_over!(sub, "swe_cell_tend", cells, out, |c, (th, bern)| {
                let (mut div, mut ke) = (R::ZERO, R::ZERO);
                let signs = &geom.cell_edge_sign[mesh.cell_edges.row_range(c)];
                for (&e, &sign) in mesh.cell_edges.row(c).iter().zip(signs) {
                    let e = e as usize;
                    div = flux[e].mul_add(sign * geom.edge_le[e], div);
                    ke += geom.ke_weight[e] * u[e] * u[e];
                }
                let ia = geom.inv_cell_area[c];
                *th = -(div * ia);
                *bern = ke * ia + g * (h[c] + topo[c]);
            });
        }

        // Vertices: absolute vorticity and the least-squares (east, north)
        // velocity, from the same three edges.
        {
            let outs = (
                self.vor.as_mut_slice(),
                self.ve.as_mut_slice(),
                self.vn.as_mut_slice(),
            );
            let verts = subset.map(|s| &s.verts);
            run_over!(sub, "swe_vertex", verts, outs, |v, (vor, ve, vn)| {
                let edges = mesh.vert_edges[v].map(|e| e as usize);
                let [u0, u1, u2] = edges.map(|e| u[e]);
                let [w0, w1, w2]: [R; 3] =
                    std::array::from_fn(|i| geom.vert_edge_sign[v][i] * geom.edge_de[edges[i]]);
                let rc = &geom.vert_recon[v];
                let [n0, n1, n2] = rc.normals;
                let zeta = u2.mul_add(w2, u1.mul_add(w1, u0.mul_add(w0, R::ZERO)));
                let be = u2.mul_add(n2[0], u1.mul_add(n1[0], u0.mul_add(n0[0], R::ZERO)));
                let bn = u2.mul_add(n2[1], u1.mul_add(n1[1], u0.mul_add(n0[1], R::ZERO)));
                *vor = zeta * geom.inv_vert_area[v] + geom.f_vert[v];
                *ve = rc.minv[0][0] * be + rc.minv[0][1] * bn;
                *vn = rc.minv[1][0] * be + rc.minv[1][1] * bn;
            });
        }

        // Edges: du/dt = (ζ+f)_e·v_t − ∂ₙ(K + g(h+b)), the edge values
        // formed from the two cells and two vertices as they are consumed.
        {
            let (bern, vor) = (self.bern.as_slice(), self.vor.as_slice());
            let (ve, vn) = (self.ve.as_slice(), self.vn.as_slice());
            let edges = subset.map(|s| &s.momentum_edges);
            let out = tu.as_mut_slice();
            run_over!(sub, "swe_momentum_tend", edges, out, |e, tu| {
                let [c1, c2] = mesh.edge_cells[e].map(|c| c as usize);
                let [v1, v2] = mesh.edge_verts[e].map(|v| v as usize);
                let [te, tn] = geom.edge_tangent_en[e];
                let pv = (vor[v1] + vor[v2]) * half;
                let vt = (ve[v1] + ve[v2]) * half * te + (vn[v1] + vn[v2]) * half * tn;
                let grad_b = (bern[c2] - bern[c1]) * geom.inv_edge_de[e];
                *tu = pv * vt - grad_b;
            });
        }
    }

    /// One Wicker–Skamarock RK3 step of size `dt` seconds.
    pub fn step_rk3(&mut self, state: &mut SweState<R>, dt: f64) {
        self.step_rk3_with_stage1(state, dt, |solver, st, th, tu| {
            solver.tendencies(st, th, tu);
        });
    }

    /// [`Self::step_rk3`] with the first-stage tendency evaluation supplied
    /// by the caller — the hook the halo-overlap driver uses to interleave
    /// an async exchange with phased tendencies: `stage1` typically runs
    /// the interior subset, completes the in-flight exchange (restoring
    /// `state.h` halos, hence the `&mut SweState`), then runs the
    /// remainder subset. Stages 2 and 3 always evaluate full tendencies;
    /// with `stage1 = |s, st, th, tu| s.tendencies(st, th, tu)` this is
    /// exactly `step_rk3`.
    pub fn step_rk3_with_stage1<F>(&mut self, state: &mut SweState<R>, dt: f64, stage1: F)
    where
        F: FnOnce(&mut Self, &mut SweState<R>, &mut Field2<R>, &mut Field2<R>),
    {
        // Attribute every kernel in the three RK stages to the dycore span.
        // (Cloned handle: the guard must not borrow `self`.)
        let span_sub = self.sub.clone();
        let _span = span_sub.span("dycore");
        let dt = R::from_f64(dt);
        // Out of `self` for the step, so the stages can borrow the solver.
        let mut work = self
            .rk3
            .take()
            .expect("an RK3 step is not re-entered from its own stage 1");
        let Rk3Work { stage, th, tu } = &mut work;

        stage1(self, state, th, tu);
        for frac in [3.0, 2.0] {
            stage.h.copy_from(&state.h);
            stage.u.copy_from(&state.u);
            stage.h.axpy(dt / R::from_f64(frac), th);
            stage.u.axpy(dt / R::from_f64(frac), tu);
            self.tendencies(stage, th, tu);
        }
        state.h.axpy(dt, th);
        state.u.axpy(dt, tu);
        self.rk3 = Some(work);
    }

    /// Total mass `Σ A_i h_i` (unit-sphere areas × R²).
    pub fn total_mass(&self, state: &SweState<R>) -> f64 {
        let r2 = self.geom.rearth * self.geom.rearth;
        (0..self.mesh.n_cells())
            .map(|c| state.h.at(0, c).to_f64() * self.mesh.cell_area[c] * r2)
            .sum()
    }

    /// Total energy `Σ A_i (h K + g h(h/2+b))`.
    pub fn total_energy(&mut self, state: &SweState<R>) -> f64 {
        let sub = self.sub.clone();
        operators::kinetic_energy(&sub, &self.mesh, &self.geom, &state.u, &mut self.ke);
        let r2 = self.geom.rearth * self.geom.rearth;
        (0..self.mesh.n_cells())
            .map(|c| {
                let h = state.h.at(0, c).to_f64();
                let k = self.ke.at(0, c).to_f64();
                let b = self.topo.at(0, c).to_f64();
                (h * k + GRAVITY * h * (0.5 * h + b)) * self.mesh.cell_area[c] * r2
            })
            .sum()
    }
}

/// Williamson et al. (1992) test case 2: steady zonal geostrophic flow.
///
/// `u = u0 cos(lat)` eastward, `g h = g h0 − (R Ω u0 + u0²/2) sin²(lat)`.
pub fn williamson_tc2<R: Real>(mesh: &HexMesh) -> SweState<R> {
    let u0 = 2.0 * std::f64::consts::PI * EARTH_RADIUS_M / (12.0 * 86400.0);
    let gh0 = 2.94e4;
    let h = Field2::from_fn(1, mesh.n_cells(), |_, c| {
        let sl = mesh.cell_xyz[c].lat().sin();
        R::from_f64((gh0 - (EARTH_RADIUS_M * EARTH_OMEGA * u0 + 0.5 * u0 * u0) * sl * sl) / GRAVITY)
    });
    let u = Field2::from_fn(1, mesh.n_edges(), |_, e| {
        let m = mesh.edge_mid[e];
        // Zonal flow u0·cos(lat) east = u0 · (ẑ × m̂)/|ẑ × m̂| · cos(lat)
        //          = u0 · (ẑ × m̂)  (since |ẑ×m̂| = cos(lat))
        let v = Vec3::new(0.0, 0.0, 1.0).cross(m) * u0;
        R::from_f64(v.dot(mesh.edge_normal[e]))
    });
    SweState { h, u }
}

/// Mean absolute deviation of `h` from a reference state, normalized by the
/// reference dynamic range — the standard TC2 error measure.
pub fn tc2_height_error<R: Real>(
    mesh: &HexMesh,
    state: &SweState<R>,
    reference: &SweState<R>,
) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for c in 0..mesh.n_cells() {
        let a = mesh.cell_area[c];
        num += (state.h.at(0, c).to_f64() - reference.h.at(0, c).to_f64()).abs() * a;
        den += reference.h.at(0, c).to_f64().abs() * a;
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tc2_initial_state_is_balanced() {
        // The discrete tendencies of the analytically balanced state must be
        // small compared with the advective scales of the flow.
        let mesh = HexMesh::build(4);
        let mut solver = SweSolver::<f64>::new(mesh);
        let state = williamson_tc2::<f64>(&solver.mesh);
        let mut th = Field2::zeros(1, solver.mesh.n_cells());
        let mut tu = Field2::zeros(1, solver.mesh.n_edges());
        solver.tendencies(&state, &mut th, &mut tu);
        let max_tu = tu.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        // u ~ 40 m/s; du/dt imbalance should correspond to ≪ u/day.
        assert!(max_tu < 40.0 / 86400.0 * 5.0, "max |du/dt| = {max_tu}");
    }

    #[test]
    fn tc2_stays_steady_for_one_day() {
        let mesh = HexMesh::build(4);
        let mut solver = SweSolver::<f64>::new(mesh);
        let reference = williamson_tc2::<f64>(&solver.mesh);
        let mut state = reference.clone();
        let dt = 300.0;
        for _ in 0..(86400.0 / dt) as usize {
            solver.step_rk3(&mut state, dt);
        }
        let err = tc2_height_error(&solver.mesh, &state, &reference);
        assert!(err < 5e-3, "TC2 height error after 1 day: {err}");
    }

    #[test]
    fn mass_is_conserved_to_roundoff() {
        let mesh = HexMesh::build(3);
        let mut solver = SweSolver::<f64>::new(mesh);
        let mut state = williamson_tc2::<f64>(&solver.mesh);
        let m0 = solver.total_mass(&state);
        for _ in 0..50 {
            solver.step_rk3(&mut state, 400.0);
        }
        let m1 = solver.total_mass(&state);
        assert!(
            ((m1 - m0) / m0).abs() < 1e-12,
            "mass drift {}",
            (m1 - m0) / m0
        );
    }

    #[test]
    fn energy_drift_is_small() {
        let mesh = HexMesh::build(3);
        let mut solver = SweSolver::<f64>::new(mesh);
        let mut state = williamson_tc2::<f64>(&solver.mesh);
        let e0 = solver.total_energy(&state);
        for _ in 0..100 {
            solver.step_rk3(&mut state, 400.0);
        }
        let e1 = solver.total_energy(&state);
        assert!(
            ((e1 - e0) / e0).abs() < 1e-4,
            "energy drift {}",
            (e1 - e0) / e0
        );
    }

    #[test]
    fn f32_run_tracks_f64_under_threshold() {
        // The §3.4.1 methodology on the shallow-water core: surface-height
        // (mass field) deviation between f32 and f64 stays below 5% over a
        // short integration.
        let mesh = HexMesh::build(3);
        let mut s64 = SweSolver::<f64>::new(mesh.clone());
        let mut s32 = SweSolver::<f32>::new(mesh);
        let mut st64 = williamson_tc2::<f64>(&s64.mesh);
        let mut st32 = williamson_tc2::<f32>(&s32.mesh);
        for _ in 0..30 {
            s64.step_rk3(&mut st64, 400.0);
            s32.step_rk3(&mut st32, 400.0);
        }
        let err = crate::real::relative_l2_error(&st32.h.to_f64_vec(), &st64.h.to_f64_vec());
        assert!(
            err < crate::real::MIXED_PRECISION_ERROR_THRESHOLD,
            "f32 deviation {err}"
        );
    }

    #[test]
    fn swe_phases_cover_every_index_exactly_once() {
        let mesh = HexMesh::build(3);
        // An arbitrary, deliberately ragged interior set.
        let interior: Vec<u32> = (0..mesh.n_cells() as u32).filter(|c| c % 3 != 1).collect();
        let phases = SwePhases::build(&mesh, &interior);
        let check = |a: &[u32], b: &[u32], n: usize, what: &str| {
            let mut all: Vec<u32> = a.iter().chain(b).copied().collect();
            all.sort_unstable();
            let expect: Vec<u32> = (0..n as u32).collect();
            assert_eq!(all, expect, "{what} must partition 0..{n}");
        };
        let (a, b) = (&phases.interior, &phases.remainder);
        check(
            a.cells.as_slice(),
            b.cells.as_slice(),
            mesh.n_cells(),
            "cells",
        );
        let (af, bf) = (a.flux_edges.as_slice(), b.flux_edges.as_slice());
        check(af, bf, mesh.n_edges(), "flux edges");
        let (am, bm) = (a.momentum_edges.as_slice(), b.momentum_edges.as_slice());
        check(am, bm, mesh.n_edges(), "momentum edges");
        check(
            a.verts.as_slice(),
            b.verts.as_slice(),
            mesh.n_verts(),
            "verts",
        );
    }

    /// Three steps with stage 1 phased over `interior`, and three plain
    /// steps, on `sub`: they must agree bit for bit.
    fn assert_phased_matches_plain(sub: &Substrate, mesh: HexMesh, interior: &[u32]) {
        let phases = SwePhases::build(&mesh, interior);
        let dt = 400.0;

        let mut plain = SweSolver::<f64>::with_substrate(mesh.clone(), sub.clone());
        let mut a = williamson_tc2::<f64>(&plain.mesh);
        let mut phased = SweSolver::<f64>::with_substrate(mesh, sub.clone());
        let mut b = williamson_tc2::<f64>(&phased.mesh);
        for _ in 0..3 {
            plain.step_rk3(&mut a, dt);
            phased.step_rk3_with_stage1(&mut b, dt, |sv, st, th, tu| {
                sv.tendencies_subset(st, th, tu, &phases.interior);
                // An async halo completion would land here.
                sv.tendencies_subset(st, th, tu, &phases.remainder);
            });
        }
        let bits =
            |f: &Field2<f64>| -> Vec<u64> { f.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&a.h), bits(&b.h), "h must match bit-for-bit");
        assert_eq!(bits(&a.u), bits(&b.u), "u must match bit-for-bit");
    }

    #[test]
    fn phased_stage1_is_bitwise_identical_to_full_step() {
        // The tentpole invariant: interior-then-remainder phased tendencies
        // in stage 1 must reproduce the plain step exactly, for an
        // arbitrary interior set (no tolerance — bit equality).
        let mesh = HexMesh::build(3);
        let interior: Vec<u32> = (0..mesh.n_cells() as u32).filter(|c| c % 2 == 0).collect();
        assert_phased_matches_plain(&Substrate::serial(), mesh, &interior);
    }

    #[test]
    fn repeated_interior_cells_are_dispatched_once() {
        let mesh = HexMesh::build(2);
        assert_eq!(
            SwePhases::build(&mesh, &[7, 3, 7, 3]),
            SwePhases::build(&mesh, &[3, 7])
        );
        // Every interior cell listed twice, on CPE teams: a cell dispatched
        // twice would be written by two workers at once.
        let mesh = HexMesh::build(3);
        let evens: Vec<u32> = (0..mesh.n_cells() as u32).filter(|c| c % 2 == 0).collect();
        let twice: Vec<u32> = evens.iter().chain(&evens).copied().collect();
        assert_phased_matches_plain(&Substrate::cpe_teams(4), mesh, &twice);
    }

    #[test]
    fn an_out_of_range_subset_is_refused_before_any_kernel_runs() {
        // (A repeated index cannot be built: `IndexSet::new` refuses it.)
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut solver =
            SweSolver::<f64>::with_substrate(HexMesh::build(2), Substrate::cpe_teams(2));
        let (nc, ne) = (solver.mesh.n_cells(), solver.mesh.n_edges());
        let mut subset = SwePhases::build(&solver.mesh, &[0, 1]).interior;
        subset.flux_edges = IndexSet::new(vec![0, ne as u32]);
        let state = williamson_tc2::<f64>(&solver.mesh);
        let (mut th, mut tu) = (Field2::zeros(1, nc), Field2::zeros(1, ne));
        let run = catch_unwind(AssertUnwindSafe(|| {
            solver.tendencies_subset(&state, &mut th, &mut tu, &subset)
        }));
        assert!(run.is_err(), "edge {ne} of {ne} edges");
        assert!(solver.sub.kernel_report().is_empty(), "no kernel ran");
    }

    #[test]
    fn topography_enters_the_momentum_balance() {
        // A mountain under fluid at rest must accelerate the flow.
        let mesh = HexMesh::build(3);
        let mut solver = SweSolver::<f64>::new(mesh);
        let n = solver.mesh.n_cells();
        solver.topo = Field2::from_fn(1, n, |_, c| {
            let d = solver.mesh.cell_xyz[c].arc_dist(Vec3::new(1.0, 0.0, 0.0));
            2000.0 * (-(d / 0.3) * (d / 0.3)).exp()
        });
        let state = SweState {
            h: Field2::constant(1, n, 5000.0),
            u: Field2::zeros(1, solver.mesh.n_edges()),
        };
        let mut th = Field2::zeros(1, n);
        let mut tu = Field2::zeros(1, solver.mesh.n_edges());
        solver.tendencies(&state, &mut th, &mut tu);
        let max_tu = tu.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(
            max_tu > 1e-4,
            "topography gradient missing from momentum eq"
        );
    }
}
