//! The shallow-water tendencies composed from stand-alone operators, one
//! field written per pass, in the order `SweSolver` dispatched them before
//! its stage became four kernels — twelve passes — and the RK3 step as
//! copies and `axpy`s around them. `tests/integration_swe_fused.rs` holds
//! `SweSolver::{tendencies, step_rk3}` and the phased stage 1 to this, bit
//! for bit.
//!
//! This file is the only place the twelve-pass sequence lives.

#[path = "unfused_operators.rs"]
pub mod unfused_operators;

use grist_dycore::constants::GRAVITY;
use grist_dycore::operators::{self as op, ScaledGeometry};
use grist_dycore::swe::{SweSolver, SweState};
use grist_dycore::{Field2, Real};
use grist_mesh::{HexMesh, EARTH_OMEGA, EARTH_RADIUS_M};
use sunway_sim::Substrate;
use unfused_operators::{cell_to_edge, tangential_velocity, vert_to_edge, vert_velocity};

/// The unfused solver: every intermediate a whole field, every operator its
/// own pass. Runs serially; the solver under test may not.
pub struct UnfusedSwe<R: Real> {
    mesh: HexMesh,
    geom: ScaledGeometry<R>,
    topo: Field2<R>,
    sub: Substrate,
}

impl<R: Real> UnfusedSwe<R> {
    /// On the solver's mesh and topography (install the mountain first).
    pub fn like(solver: &SweSolver<R>) -> Self {
        UnfusedSwe {
            mesh: solver.mesh.clone(),
            geom: ScaledGeometry::new(&solver.mesh, EARTH_RADIUS_M, EARTH_OMEGA),
            topo: solver.topo.clone(),
            sub: Substrate::serial(),
        }
    }

    /// `(dh/dt, du/dt)` of `state` into `(th, tu)`.
    pub fn tendencies(&self, state: &SweState<R>, th: &mut Field2<R>, tu: &mut Field2<R>) {
        let (sub, mesh, geom) = (&self.sub, &self.mesh, &self.geom);
        let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_verts());
        let cells = || Field2::<R>::zeros(1, nc);
        let edges = || Field2::<R>::zeros(1, ne);
        let verts = || Field2::<R>::zeros(1, nv);

        // Mass flux and its divergence.
        let (mut h_edge, mut flux) = (edges(), edges());
        cell_to_edge(mesh, &state.h, &mut h_edge);
        for e in 0..ne {
            flux.set(0, e, h_edge.at(0, e) * state.u.at(0, e));
        }
        op::divergence(sub, mesh, geom, &flux, th);
        for v in th.as_mut_slice() {
            *v = -*v;
        }

        // Bernoulli function K + g(h+b) and its gradient.
        let (mut ke, mut bern, mut grad_b) = (cells(), cells(), edges());
        op::kinetic_energy(sub, mesh, geom, &state.u, &mut ke);
        let g = R::from_f64(GRAVITY);
        for c in 0..nc {
            bern.set(
                0,
                c,
                ke.at(0, c) + g * (state.h.at(0, c) + self.topo.at(0, c)),
            );
        }
        op::gradient(sub, mesh, geom, &bern, &mut grad_b);

        // Absolute vorticity at edges, tangential velocity, Coriolis term.
        let (mut vor, mut pv_edge) = (verts(), edges());
        let (mut ve, mut vn, mut vt) = (verts(), verts(), edges());
        op::vorticity(sub, mesh, geom, &state.u, &mut vor);
        for v in 0..nv {
            *vor.at_mut(0, v) += geom.f_vert[v];
        }
        vert_to_edge(mesh, &vor, &mut pv_edge);
        vert_velocity(mesh, geom, &state.u, &mut ve, &mut vn);
        tangential_velocity(mesh, geom, &ve, &vn, &mut vt);
        for e in 0..ne {
            tu.set(0, e, pv_edge.at(0, e) * vt.at(0, e) - grad_b.at(0, e));
        }
    }

    /// One Wicker–Skamarock RK3 step, each stage state a fresh copy.
    pub fn step_rk3(&self, state: &mut SweState<R>, dt: f64) {
        let dt = R::from_f64(dt);
        let mut th = Field2::zeros(1, self.mesh.n_cells());
        let mut tu = Field2::zeros(1, self.mesh.n_edges());

        self.tendencies(state, &mut th, &mut tu);
        let mut s1 = state.clone();
        s1.h.axpy(dt / R::from_f64(3.0), &th);
        s1.u.axpy(dt / R::from_f64(3.0), &tu);

        self.tendencies(&s1, &mut th, &mut tu);
        let mut s2 = state.clone();
        s2.h.axpy(dt / R::from_f64(2.0), &th);
        s2.u.axpy(dt / R::from_f64(2.0), &tu);

        self.tendencies(&s2, &mut th, &mut tu);
        state.h.axpy(dt, &th);
        state.u.axpy(dt, &tu);
    }
}
