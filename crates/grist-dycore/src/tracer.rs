//! Passive tracer transport: flux-form advection with a Zalesak-style
//! flux-corrected-transport (FCT) limiter — the paper's
//! `tracer_transport_hori_flux_limiter` kernel (Fig. 9), here five kernels
//! ([`FCT_KERNELS`]).
//!
//! The tracer equation "can be computed almost entirely using lower
//! precision; the sole exception is the mass flux δπV, which is accumulated
//! from the dry mass equation and requires double precision" (§3.4.2).
//! Accordingly the whole routine is generic over [`Real`]; the coupled model
//! keeps its master mass fluxes in `f64` and casts them into the working
//! precision here.
//!
//! Bookkeeping is done in area-integrated mass units:
//! `M_i = δπ_i A_i` and per-step edge transports `T_e = Δt F_e ℓ_e`
//! (positive from `edge_cells[e][0]` to `edge_cells[e][1]`), which makes
//! conservation exact by construction.

use crate::field::Field2;
use crate::operators::ScaledGeometry;
use crate::real::Real;
use grist_mesh::HexMesh;
use sunway_sim::perf::{IterSpace, KernelSpec};
use sunway_sim::Substrate;

/// Scratch buffers for one FCT transport invocation, reusable across steps.
pub struct FctWorkspace<R: Real> {
    q_td: Field2<R>,
    mass_new: Field2<R>,
    anti: Field2<R>,
    r_plus: Field2<R>,
    r_minus: Field2<R>,
    transport: Field2<R>,
}

impl<R: Real> FctWorkspace<R> {
    pub fn new(nlev: usize, mesh: &HexMesh) -> Self {
        FctWorkspace {
            q_td: Field2::zeros(nlev, mesh.n_cells()),
            mass_new: Field2::zeros(nlev, mesh.n_cells()),
            anti: Field2::zeros(nlev, mesh.n_edges()),
            r_plus: Field2::zeros(nlev, mesh.n_cells()),
            r_minus: Field2::zeros(nlev, mesh.n_cells()),
            transport: Field2::zeros(nlev, mesh.n_edges()),
        }
    }
}

/// Levels one cell kernel works on at a time. Fields are level-fastest, so
/// the FCT cell kernels run edges/neighbours in the outer loop and levels in
/// the inner one over contiguous column slices, with the per-level
/// accumulators of one block of levels in fixed-size stack arrays; columns
/// taller than a block are walked block by block. For each level the
/// operations and their order are those of a level-outer loop, so results do
/// not depend on the block size. (Each kernel spells out
/// `n = LEVEL_BLOCK.min(nlev - k0)`: behind an iterator the optimiser loses
/// `n ≤ LEVEL_BLOCK` and `fct_limiter` runs ≈ 35 % slower.)
const LEVEL_BLOCK: usize = 32;

/// One forward-Euler FCT transport step.
///
/// * `mass` — area-integrated cell mass `M_i = δπ_i A_i` (updated in place to
///   the post-step mass).
/// * `flux` — edge-normal dry-mass flux `F_e = (δπ u)_e` \[Pa·m/s\].
/// * `q`    — mixing ratio, updated in place, guaranteed monotone (no new
///   extrema) and exactly conservative in `Σ M_i q_i`.
///
/// The caller must respect the flux CFL: total outflow of any cell during
/// `dt` may not exceed its mass. A cell-level that ends the step without
/// mass ticks the `tracer.cfl_violations` counter of `sub`'s registry.
#[allow(clippy::too_many_arguments)]
pub fn fct_transport_step<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    mass: &mut Field2<R>,
    flux: &Field2<R>,
    q: &mut Field2<R>,
    dt: f64,
    ws: &mut FctWorkspace<R>,
) {
    fct_edge_transports(sub, geom, flux, dt, ws);
    fct_transport_keep_mass(sub, mesh, geom, mass, q, ws);
    mass.copy_from(&ws.mass_new);
}

// Cost descriptors of the five FCT kernels, each counted from its per-level
// code below (DESIGN.md §5 "Cost descriptors": a cell has six edges and six
// neighbours; selects are free, compares count one).

/// `T_e = F_e ℓ_e Δt`: 2 cheap; streams `F`, `T`.
const FCT_TRANSPORT: KernelSpec = KernelSpec {
    name: "fct_transport",
    space: IterSpace::Edges,
    flops_per_point: 2.0,
    expensive_per_point: 0.0,
    arrays: 2,
    mixed: true,
};
/// `M q` (1), six edges × (upwind compare, `M −= sT`, `Mq −= sT q_up`: 5),
/// the emptied-cell count (2), `q_td = Mq/M` (÷): 33 cheap, 1 expensive;
/// streams `M`, `q`, `T` of six edges, `q` of six neighbours, `M_new`, `q_td`.
const FCT_LOWORDER: KernelSpec = KernelSpec {
    name: "fct_loworder",
    space: IterSpace::Cells,
    flops_per_point: 33.0,
    expensive_per_point: 1.0,
    arrays: 16,
    mixed: true,
};
/// `q_cent` 2, upwind compare 1, `A = T(q_cent − q_up)` 2: 5; streams `q` of
/// two cells, `T`, `A`.
const FCT_ANTIDIFFUSIVE: KernelSpec = KernelSpec {
    name: "fct_antidiffusive",
    space: IterSpace::Edges,
    flops_per_point: 5.0,
    expensive_per_point: 0.0,
    arrays: 4,
    mixed: true,
};
/// Own bounds (2), six neighbours × four min / max (24), six edges × (`sA`,
/// compare, one add to each of `P±`: 4), `Q±` (4), two compare + min (4)
/// with a ÷ each: 58 cheap, 2 expensive; streams `q_td`, `q` of the cell
/// and six neighbours, `A` of six edges, `M_new`, `R⁺`, `R⁻`.
const FCT_LIMITER: KernelSpec = KernelSpec {
    name: "fct_limiter",
    space: IterSpace::Cells,
    flops_per_point: 58.0,
    expensive_per_point: 2.0,
    arrays: 23,
    mixed: true,
};
/// `q_td M` (1), six edges × (sign compare, `min R`, `Mq −= s·coef·A`: 5),
/// `q = Mq/M` (÷): 31 cheap, 1 expensive; streams `M_new`, `q_td`, `A` of six
/// edges, `R⁺`, `R⁻` of the cell and six neighbours, `q`.
const FCT_APPLY: KernelSpec = KernelSpec {
    name: "fct_apply",
    space: IterSpace::Cells,
    flops_per_point: 31.0,
    expensive_per_point: 1.0,
    arrays: 23,
    mixed: true,
};

/// The kernels of one tracer's FCT step, in dispatch order: `fct_transport`
/// once per tracer step, the other four once per tracer. The SDPD model's
/// tracer ensemble and, with [`crate::hevi::DYN_KERNELS`], Fig. 9's.
pub const FCT_KERNELS: [KernelSpec; 5] = [
    FCT_TRANSPORT,
    FCT_LOWORDER,
    FCT_ANTIDIFFUSIVE,
    FCT_LIMITER,
    FCT_APPLY,
];

/// Per-edge transports `T_e = dt · F_e · ℓ_e` into the workspace: the part of
/// an FCT step that does not depend on the tracer, computed once for every
/// tracer [`fct_transport_keep_mass`] then moves with it. The flux may be
/// held wider than the working precision (the HEVI solver's is `f64`,
/// §3.4.2); it is cast on the way in.
pub(crate) fn fct_edge_transports<R: Real, F: Real>(
    sub: &Substrate,
    geom: &ScaledGeometry<R>,
    flux: &Field2<F>,
    dt: f64,
    ws: &mut FctWorkspace<R>,
) {
    let dt_r = R::from_f64(dt);
    sub.run_cols(FCT_TRANSPORT.name, 0, ws.transport.cols_mut(), |e, col| {
        let le = geom.edge_le[e];
        for (t, f) in col.iter_mut().zip(flux.col(e)) {
            *t = R::from_f64(f.to_f64()) * le * dt_r;
        }
    });
}

/// The tracer-dependent part of [`fct_transport_step`], by the transports
/// [`fct_edge_transports`] left in the workspace, with the pre-step `mass`
/// left untouched: the post-step mass stays in the workspace. The HEVI solver
/// transports every tracer from the same pre-step mass and never reads the
/// updated one.
pub(crate) fn fct_transport_keep_mass<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    mass: &Field2<R>,
    q: &mut Field2<R>,
    ws: &mut FctWorkspace<R>,
) {
    let nlev = q.nlev();

    // Low-order (upwind) transported tracer and the updated mass.
    let q_ro: &Field2<R> = q;
    let transport = &ws.transport;
    {
        let outs = (ws.q_td.cols_mut(), ws.mass_new.cols_mut());
        sub.run_cols(FCT_LOWORDER.name, 0, outs, |c, (qtd, mnew)| {
            let signs = &geom.cell_edge_sign[mesh.cell_edges.row_range(c)];
            let mut emptied = 0u64;
            for k0 in (0..nlev).step_by(LEVEL_BLOCK) {
                let n = LEVEL_BLOCK.min(nlev - k0);
                let lv = k0..k0 + n;
                let m_old = &mass.col(c)[lv.clone()];
                let q_c = &q_ro.col(c)[lv.clone()];
                let (mut m, mut mq) = ([R::ZERO; LEVEL_BLOCK], [R::ZERO; LEVEL_BLOCK]);
                let (m, mq) = (&mut m[..n], &mut mq[..n]);
                for l in 0..n {
                    m[l] = m_old[l];
                    mq[l] = m_old[l] * q_c[l];
                }
                for (&e, &s) in mesh.cell_edges.row(c).iter().zip(signs) {
                    let [c1, c2] = mesh.edge_cells[e as usize];
                    let t = &transport.col(e as usize)[lv.clone()];
                    let q1 = &q_ro.col(c1 as usize)[lv.clone()];
                    let q2 = &q_ro.col(c2 as usize)[lv.clone()];
                    for l in 0..n {
                        let q_up = if t[l] >= R::ZERO { q1[l] } else { q2[l] };
                        m[l] -= s * t[l];
                        mq[l] -= s * t[l] * q_up;
                    }
                }
                let (mnew, qtd) = (&mut mnew[lv.clone()], &mut qtd[lv]);
                for l in 0..n {
                    emptied += u64::from(m[l] <= R::ZERO);
                    mnew[l] = m[l];
                    qtd[l] = mq[l] / m[l];
                }
            }
            if emptied > 0 {
                // Flux CFL violated: the step took more out of a cell than
                // it held. Counted, not asserted, so release builds see it.
                sub.metrics().counter_add("tracer.cfl_violations", emptied);
            }
        });
    }

    // Antidiffusive fluxes A_e = T_e (q_centered − q_upwind).
    let half = R::from_f64(0.5);
    {
        sub.run_cols(FCT_ANTIDIFFUSIVE.name, 0, ws.anti.cols_mut(), |e, col| {
            let [c1, c2] = mesh.edge_cells[e];
            let (q1, q2) = (q_ro.col(c1 as usize), q_ro.col(c2 as usize));
            let t_col = transport.col(e);
            for lev in 0..nlev {
                let t = t_col[lev];
                let q_cent = (q1[lev] + q2[lev]) * half;
                let q_up = if t >= R::ZERO { q1[lev] } else { q2[lev] };
                col[lev] = t * (q_cent - q_up);
            }
        });
    }

    // Zalesak limiter factors.
    let q_td = &ws.q_td;
    let mass_new = &ws.mass_new;
    let anti = &ws.anti;
    let tiny = R::from_f64(1e-300_f64.max(f64::MIN_POSITIVE));
    {
        let outs = (ws.r_plus.cols_mut(), ws.r_minus.cols_mut());
        sub.run_cols(FCT_LIMITER.name, 0, outs, |c, (rp, rm)| {
            let signs = &geom.cell_edge_sign[mesh.cell_edges.row_range(c)];
            for k0 in (0..nlev).step_by(LEVEL_BLOCK) {
                let n = LEVEL_BLOCK.min(nlev - k0);
                let lv = k0..k0 + n;
                let qtd_c = &q_td.col(c)[lv.clone()];
                let q_c = &q_ro.col(c)[lv.clone()];
                // Admissible bounds: extrema of q_td and q_old over the cell
                // and its neighbours.
                let (mut qmax, mut qmin) = ([R::ZERO; LEVEL_BLOCK], [R::ZERO; LEVEL_BLOCK]);
                let (qmax, qmin) = (&mut qmax[..n], &mut qmin[..n]);
                for l in 0..n {
                    qmax[l] = qtd_c[l].max(q_c[l]);
                    qmin[l] = qtd_c[l].min(q_c[l]);
                }
                for &nb in mesh.cell_neighbors.row(c) {
                    let qtd_n = &q_td.col(nb as usize)[lv.clone()];
                    let q_n = &q_ro.col(nb as usize)[lv.clone()];
                    for l in 0..n {
                        qmax[l] = qmax[l].max(qtd_n[l]).max(q_n[l]);
                        qmin[l] = qmin[l].min(qtd_n[l]).min(q_n[l]);
                    }
                }
                let (mut p_plus, mut p_minus) = ([R::ZERO; LEVEL_BLOCK], [R::ZERO; LEVEL_BLOCK]);
                let (p_plus, p_minus) = (&mut p_plus[..n], &mut p_minus[..n]);
                for (&e, &s) in mesh.cell_edges.row(c).iter().zip(signs) {
                    let anti_e = &anti.col(e as usize)[lv.clone()];
                    for l in 0..n {
                        let a = s * anti_e[l];
                        // a < 0: incoming antidiffusive mass; else outgoing.
                        let incoming = a < R::ZERO;
                        p_plus[l] = if incoming { p_plus[l] - a } else { p_plus[l] };
                        p_minus[l] = if incoming { p_minus[l] } else { p_minus[l] + a };
                    }
                }
                let m = &mass_new.col(c)[lv.clone()];
                let (rp, rm) = (&mut rp[lv.clone()], &mut rm[lv]);
                for l in 0..n {
                    let q_plus = (qmax[l] - qtd_c[l]) * m[l];
                    let q_minus = (qtd_c[l] - qmin[l]) * m[l];
                    rp[l] = if p_plus[l] > tiny {
                        (q_plus / p_plus[l]).min(R::ONE)
                    } else {
                        R::ZERO
                    };
                    rm[l] = if p_minus[l] > tiny {
                        (q_minus / p_minus[l]).min(R::ONE)
                    } else {
                        R::ZERO
                    };
                }
            }
        });
    }

    // Apply limited antidiffusive fluxes.
    let r_plus = &ws.r_plus;
    let r_minus = &ws.r_minus;
    {
        sub.run_cols(FCT_APPLY.name, 0, q.cols_mut(), |c, qc| {
            let signs = &geom.cell_edge_sign[mesh.cell_edges.row_range(c)];
            for k0 in (0..nlev).step_by(LEVEL_BLOCK) {
                let n = LEVEL_BLOCK.min(nlev - k0);
                let lv = k0..k0 + n;
                let m = &mass_new.col(c)[lv.clone()];
                let qtd_c = &q_td.col(c)[lv.clone()];
                let mut mq = [R::ZERO; LEVEL_BLOCK];
                let mq = &mut mq[..n];
                for l in 0..n {
                    mq[l] = qtd_c[l] * m[l];
                }
                for (&e, &s) in mesh.cell_edges.row(c).iter().zip(signs) {
                    let [c1, c2] = mesh.edge_cells[e as usize];
                    let anti_e = &anti.col(e as usize)[lv.clone()];
                    let (rp1, rm1) = (
                        &r_plus.col(c1 as usize)[lv.clone()],
                        &r_minus.col(c1 as usize)[lv.clone()],
                    );
                    let (rp2, rm2) = (
                        &r_plus.col(c2 as usize)[lv.clone()],
                        &r_minus.col(c2 as usize)[lv.clone()],
                    );
                    for l in 0..n {
                        let a = anti_e[l];
                        // A_e > 0 moves tracer from c1 to c2 (relative to upwind).
                        let coef = if a >= R::ZERO {
                            rm1[l].min(rp2[l])
                        } else {
                            rp1[l].min(rm2[l])
                        };
                        mq[l] -= s * coef * a;
                    }
                }
                let qc = &mut qc[lv];
                for l in 0..n {
                    qc[l] = mq[l] / m[l];
                }
            }
        });
    }
}

/// Total tracer content `Σ M_i q_i` (conservation diagnostic).
pub fn total_tracer<R: Real>(mass: &Field2<R>, q: &Field2<R>) -> f64 {
    mass.as_slice()
        .iter()
        .zip(q.as_slice())
        .map(|(&m, &x)| m.to_f64() * x.to_f64())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::ScaledGeometry;
    use grist_mesh::{Vec3, EARTH_OMEGA, EARTH_RADIUS_M};

    fn sub() -> Substrate {
        Substrate::serial()
    }

    fn setup(level: u32) -> (HexMesh, ScaledGeometry<f64>) {
        let mesh = HexMesh::build(level);
        let geom = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
        (mesh, geom)
    }

    /// Solid-body-rotation dry-mass flux with uniform δπ = dp.
    fn sb_flux(mesh: &HexMesh, dp: f64, omega: f64) -> Field2<f64> {
        Field2::from_fn(1, mesh.n_edges(), |_, e| {
            let m = mesh.edge_mid[e];
            let v = Vec3::new(0.0, 0.0, 1.0).cross(m) * (omega * EARTH_RADIUS_M);
            dp * v.dot(mesh.edge_normal[e])
        })
    }

    fn uniform_mass(mesh: &HexMesh, dp: f64) -> Field2<f64> {
        Field2::from_fn(1, mesh.n_cells(), |_, c| {
            dp * mesh.cell_area[c] * EARTH_RADIUS_M * EARTH_RADIUS_M
        })
    }

    fn gaussian_blob(mesh: &HexMesh, center: Vec3, width: f64) -> Field2<f64> {
        Field2::from_fn(1, mesh.n_cells(), |_, c| {
            let d = mesh.cell_xyz[c].arc_dist(center);
            (-(d / width) * (d / width)).exp()
        })
    }

    #[test]
    fn constant_tracer_is_preserved_exactly() {
        let (mesh, geom) = setup(3);
        let mut mass = uniform_mass(&mesh, 1000.0);
        let flux = sb_flux(&mesh, 1000.0, 1e-5);
        let mut q = Field2::constant(1, mesh.n_cells(), 0.37);
        let mut ws = FctWorkspace::new(1, &mesh);
        for _ in 0..10 {
            fct_transport_step(
                &sub(),
                &mesh,
                &geom,
                &mut mass,
                &flux,
                &mut q,
                600.0,
                &mut ws,
            );
        }
        for &v in q.as_slice() {
            assert!((v - 0.37).abs() < 1e-12, "constant tracer drifted to {v}");
        }
    }

    #[test]
    fn tracer_mass_is_conserved_to_roundoff() {
        let (mesh, geom) = setup(3);
        let mut mass = uniform_mass(&mesh, 1000.0);
        let flux = sb_flux(&mesh, 1000.0, 1e-5);
        let mut q = gaussian_blob(&mesh, Vec3::new(1.0, 0.0, 0.0), 0.3);
        let mut ws = FctWorkspace::new(1, &mesh);
        let t0 = total_tracer(&mass, &q);
        for _ in 0..20 {
            fct_transport_step(
                &sub(),
                &mesh,
                &geom,
                &mut mass,
                &flux,
                &mut q,
                600.0,
                &mut ws,
            );
        }
        let t1 = total_tracer(&mass, &q);
        assert!(
            ((t1 - t0) / t0).abs() < 1e-12,
            "tracer drift {}",
            (t1 - t0) / t0
        );
    }

    #[test]
    fn limiter_prevents_new_extrema() {
        let (mesh, geom) = setup(4);
        let mut mass = uniform_mass(&mesh, 1000.0);
        let flux = sb_flux(&mesh, 1000.0, 2e-5);
        let mut q = gaussian_blob(&mesh, Vec3::new(0.0, 1.0, 0.0), 0.2);
        let (q0_min, q0_max) = (q.min_value(), q.max_value());
        let mut ws = FctWorkspace::new(1, &mesh);
        for _ in 0..50 {
            fct_transport_step(
                &sub(),
                &mesh,
                &geom,
                &mut mass,
                &flux,
                &mut q,
                400.0,
                &mut ws,
            );
        }
        let eps = 1e-12;
        assert!(
            q.min_value() >= q0_min - eps,
            "undershoot: {}",
            q.min_value()
        );
        assert!(
            q.max_value() <= q0_max + eps,
            "overshoot: {}",
            q.max_value()
        );
    }

    #[test]
    fn a_step_past_the_flux_cfl_ticks_the_violation_counter() {
        let (mesh, geom) = setup(2);
        // Solid-body rotation is non-divergent and empties nothing however
        // long the step; dropping every other edge's flux makes it divergent.
        let mut flux = sb_flux(&mesh, 1000.0, 1e-5);
        for e in (0..mesh.n_edges()).step_by(2) {
            flux.set(0, e, 0.0);
        }
        let mut ws = FctWorkspace::new(1, &mesh);
        let run = |dt: f64, ws: &mut FctWorkspace<f64>| {
            let s = sub();
            let mut mass = uniform_mass(&mesh, 1000.0);
            let mut q = Field2::constant(1, mesh.n_cells(), 0.37);
            fct_transport_step(&s, &mesh, &geom, &mut mass, &flux, &mut q, dt, ws);
            s.metrics().counter("tracer.cfl_violations")
        };
        // 64 m/s across ~1900 km cells: 600 s is far inside the CFL, 10⁶ s
        // takes several cell masses out of the cells that lost their inflow.
        assert_eq!(run(600.0, &mut ws), 0);
        assert!(run(1.0e6, &mut ws) > 0, "emptied cells went uncounted");
    }

    #[test]
    fn blob_is_advected_downstream() {
        // After a quarter revolution the blob peak must have moved eastward.
        let (mesh, geom) = setup(4);
        let dp = 1000.0;
        let omega = 2.0 * std::f64::consts::PI / (4.0 * 86400.0); // rev in 4 days
        let mut mass = uniform_mass(&mesh, dp);
        let flux = sb_flux(&mesh, dp, omega);
        let start = Vec3::new(1.0, 0.0, 0.0);
        let mut q = gaussian_blob(&mesh, start, 0.25);
        let mut ws = FctWorkspace::new(1, &mesh);
        let dt = 300.0;
        let steps = (86400.0 / dt) as usize; // one day = quarter revolution
        for _ in 0..steps {
            fct_transport_step(&sub(), &mesh, &geom, &mut mass, &flux, &mut q, dt, &mut ws);
        }
        let peak = (0..mesh.n_cells())
            .max_by(|&a, &b| q.at(0, a).partial_cmp(&q.at(0, b)).unwrap())
            .unwrap();
        let expected = Vec3::new(0.0, 1.0, 0.0); // 90° east
        let d = mesh.cell_xyz[peak].arc_dist(expected);
        assert!(d < 0.25, "peak {d} rad from expected position");
        // The peak must not be excessively damped.
        assert!(
            q.max_value() > 0.45,
            "peak over-diffused: {}",
            q.max_value()
        );
    }

    #[test]
    fn f32_transport_tracks_f64() {
        let (mesh, _) = setup(3);
        let geom64: ScaledGeometry<f64> = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
        let geom32: ScaledGeometry<f32> = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
        let mut m64 = uniform_mass(&mesh, 1000.0);
        let mut m32: Field2<f32> = m64.cast();
        let f64x = sb_flux(&mesh, 1000.0, 1e-5);
        let f32x: Field2<f32> = f64x.cast();
        let mut q64 = gaussian_blob(&mesh, Vec3::new(1.0, 0.0, 0.0), 0.3);
        let mut q32: Field2<f32> = q64.cast();
        let mut w64 = FctWorkspace::new(1, &mesh);
        let mut w32 = FctWorkspace::new(1, &mesh);
        for _ in 0..20 {
            fct_transport_step(
                &sub(),
                &mesh,
                &geom64,
                &mut m64,
                &f64x,
                &mut q64,
                600.0,
                &mut w64,
            );
            fct_transport_step(
                &sub(),
                &mesh,
                &geom32,
                &mut m32,
                &f32x,
                &mut q32,
                600.0,
                &mut w32,
            );
        }
        let err = crate::real::relative_l2_error(&q32.to_f64_vec(), &q64.to_f64_vec());
        assert!(err < 1e-3, "f32 FCT deviation {err}");
    }

    fn bits<R: Real>(f: &Field2<R>) -> Vec<u64> {
        f.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// Three consecutive steps of the level-inner kernels against the
    /// level-outer reference, each step's reference restarted from the new
    /// code's own state: `q`, `mass` and all six workspace fields bit for bit.
    fn assert_matches_reference<R: Real>(sub: &Substrate, mesh: &HexMesh, nlev: usize, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let geom: ScaledGeometry<R> = ScaledGeometry::new(mesh, EARTH_RADIUS_M, EARTH_OMEGA);
        let r2 = EARTH_RADIUS_M * EARTH_RADIUS_M;
        let mut mass = Field2::<R>::from_fn(nlev, mesh.n_cells(), |_, c| {
            R::from_f64(rng.gen_range(950.0..1050.0) * mesh.cell_area[c] * r2)
        });
        // Fluxes of both signs (|u| ≤ 10 m/s on δπ ≈ 1000 Pa keeps the flux
        // CFL below 0.1); every seventh edge, and every edge of cells 0 and
        // 5, carries none, so those two cells take the `p ≤ tiny` branch.
        let mut flux = Field2::<R>::from_fn(nlev, mesh.n_edges(), |_, e| {
            if e % 7 == 0 {
                R::ZERO
            } else {
                R::from_f64(rng.gen_range(-1.0e4..1.0e4))
            }
        });
        for c in [0, 5] {
            for &e in mesh.cell_edges.row(c) {
                for lev in 0..nlev {
                    flux.set(lev, e as usize, R::ZERO);
                }
            }
        }
        // Even cells hold quarter values, so neighbours tie exactly.
        let mut q = Field2::<R>::from_fn(nlev, mesh.n_cells(), |_, c| {
            if c % 2 == 0 {
                R::from_f64(0.25 * rng.gen_range(0..5) as f64)
            } else {
                R::from_f64(rng.gen_range(0.0..1.0))
            }
        });
        let mut ws = FctWorkspace::new(nlev, mesh);
        let mut ws_ref = FctWorkspace::new(nlev, mesh);
        for step in 0..3 {
            let (mut mass_ref, mut q_ref) = (mass.clone(), q.clone());
            fct_transport_step(sub, mesh, &geom, &mut mass, &flux, &mut q, 600.0, &mut ws);
            fct_transport_step_reference(
                mesh,
                &geom,
                &mut mass_ref,
                &flux,
                &mut q_ref,
                600.0,
                &mut ws_ref,
            );
            let what = format!(
                "{} nlev {nlev} cells {} step {step}",
                R::NAME,
                mesh.n_cells()
            );
            assert_eq!(bits(&q), bits(&q_ref), "q: {what}");
            assert_eq!(bits(&mass), bits(&mass_ref), "mass: {what}");
            for (name, new, old) in [
                ("transport", &ws.transport, &ws_ref.transport),
                ("q_td", &ws.q_td, &ws_ref.q_td),
                ("mass_new", &ws.mass_new, &ws_ref.mass_new),
                ("anti", &ws.anti, &ws_ref.anti),
                ("r_plus", &ws.r_plus, &ws_ref.r_plus),
                ("r_minus", &ws.r_minus, &ws_ref.r_minus),
            ] {
                assert_eq!(bits(new), bits(old), "{name}: {what}");
            }
        }
        // The zero-flux cells exercised the `p ≤ tiny` branch.
        for c in [0, 5] {
            assert!(ws.r_plus.col(c).iter().all(|&r| r == R::ZERO));
            assert!(ws.r_minus.col(c).iter().all(|&r| r == R::ZERO));
        }
    }

    #[test]
    fn interchanged_kernels_match_level_outer_reference_bitwise() {
        let targets = [Substrate::serial(), Substrate::cpe_teams(4)];
        // Level 2 has 5-edge rows at its 12 pentagons among 162 cells.
        for level in [2, 3] {
            let mesh = HexMesh::build(level);
            // Below, at and across `LEVEL_BLOCK`.
            for nlev in [1, 7, 20, 32, 33, 70] {
                for sub in &targets {
                    let seed = 1000 * level as u64 + nlev as u64;
                    assert_matches_reference::<f64>(sub, &mesh, nlev, seed);
                    assert_matches_reference::<f32>(sub, &mesh, nlev, seed);
                }
            }
        }
    }

    /// The level-outer FCT step that the level-inner kernels replaced: the
    /// bitwise oracle of
    /// `interchanged_kernels_match_level_outer_reference_bitwise`. Every
    /// per-level expression is the old kernel's, verbatim; only the dispatch
    /// scaffolding is gone (plain serial loops, no `ColumnsMut`).
    fn fct_transport_step_reference<R: Real>(
        mesh: &HexMesh,
        geom: &ScaledGeometry<R>,
        mass: &mut Field2<R>,
        flux: &Field2<R>,
        q: &mut Field2<R>,
        dt: f64,
        ws: &mut FctWorkspace<R>,
    ) {
        let nlev = q.nlev();
        let dt_r = R::from_f64(dt);
        let (n_cells, n_edges) = (mesh.n_cells(), mesh.n_edges());

        // Per-edge transports T_e = dt · F_e · ℓ_e.
        for e in 0..n_edges {
            let le = geom.edge_le[e];
            for k in 0..nlev {
                ws.transport.set(k, e, flux.at(k, e) * le * dt_r);
            }
        }

        // Low-order (upwind) transported tracer and the updated mass.
        let q_ro: &Field2<R> = q;
        let mass_ro: &Field2<R> = mass;
        let transport = &ws.transport;
        for c in 0..n_cells {
            let rng = mesh.cell_edges.row_range(c);
            for lev in 0..nlev {
                let m_old = mass_ro.at(lev, c);
                let mut m = m_old;
                let mut mq = m_old * q_ro.at(lev, c);
                for (k, &e) in mesh.cell_edges.row(c).iter().enumerate() {
                    let s = geom.cell_edge_sign[rng.start + k];
                    let t = transport.at(lev, e as usize);
                    let [c1, c2] = mesh.edge_cells[e as usize];
                    let q_up = if t >= R::ZERO {
                        q_ro.at(lev, c1 as usize)
                    } else {
                        q_ro.at(lev, c2 as usize)
                    };
                    m -= s * t;
                    mq -= s * t * q_up;
                }
                ws.mass_new.set(lev, c, m);
                ws.q_td.set(lev, c, mq / m);
            }
        }

        // Antidiffusive fluxes A_e = T_e (q_centered − q_upwind).
        let half = R::from_f64(0.5);
        for e in 0..n_edges {
            let [c1, c2] = mesh.edge_cells[e];
            let (q1, q2) = (q_ro.col(c1 as usize), q_ro.col(c2 as usize));
            let t_col = transport.col(e);
            for lev in 0..nlev {
                let t = t_col[lev];
                let q_cent = (q1[lev] + q2[lev]) * half;
                let q_up = if t >= R::ZERO { q1[lev] } else { q2[lev] };
                ws.anti.set(lev, e, t * (q_cent - q_up));
            }
        }

        // Zalesak limiter factors.
        let q_td = &ws.q_td;
        let mass_new = &ws.mass_new;
        let anti = &ws.anti;
        let tiny = R::from_f64(1e-300_f64.max(f64::MIN_POSITIVE));
        for c in 0..n_cells {
            let rng = mesh.cell_edges.row_range(c);
            for lev in 0..nlev {
                // Admissible bounds: extrema of q_td and q_old over the cell
                // and its neighbours.
                let mut qmax = q_td.at(lev, c).max(q_ro.at(lev, c));
                let mut qmin = q_td.at(lev, c).min(q_ro.at(lev, c));
                for &nb in mesh.cell_neighbors.row(c) {
                    qmax = qmax
                        .max(q_td.at(lev, nb as usize))
                        .max(q_ro.at(lev, nb as usize));
                    qmin = qmin
                        .min(q_td.at(lev, nb as usize))
                        .min(q_ro.at(lev, nb as usize));
                }
                let mut p_plus = R::ZERO;
                let mut p_minus = R::ZERO;
                for (k, &e) in mesh.cell_edges.row(c).iter().enumerate() {
                    let s = geom.cell_edge_sign[rng.start + k];
                    let a = s * anti.at(lev, e as usize);
                    if a < R::ZERO {
                        p_plus -= a; // incoming antidiffusive mass
                    } else {
                        p_minus += a; // outgoing
                    }
                }
                let m = mass_new.at(lev, c);
                let q_plus = (qmax - q_td.at(lev, c)) * m;
                let q_minus = (q_td.at(lev, c) - qmin) * m;
                let rp = if p_plus > tiny {
                    (q_plus / p_plus).min(R::ONE)
                } else {
                    R::ZERO
                };
                let rm = if p_minus > tiny {
                    (q_minus / p_minus).min(R::ONE)
                } else {
                    R::ZERO
                };
                ws.r_plus.set(lev, c, rp);
                ws.r_minus.set(lev, c, rm);
            }
        }

        // Apply limited antidiffusive fluxes.
        let r_plus = &ws.r_plus;
        let r_minus = &ws.r_minus;
        for c in 0..n_cells {
            let rng = mesh.cell_edges.row_range(c);
            for lev in 0..nlev {
                let m = mass_new.at(lev, c);
                let mut mq = q_td.at(lev, c) * m;
                for (k, &e) in mesh.cell_edges.row(c).iter().enumerate() {
                    let s = geom.cell_edge_sign[rng.start + k];
                    let a = anti.at(lev, e as usize);
                    let [c1, c2] = mesh.edge_cells[e as usize];
                    // A_e > 0 moves tracer from c1 to c2 (relative to upwind).
                    let coef = if a >= R::ZERO {
                        r_minus
                            .at(lev, c1 as usize)
                            .min(r_plus.at(lev, c2 as usize))
                    } else {
                        r_plus
                            .at(lev, c1 as usize)
                            .min(r_minus.at(lev, c2 as usize))
                    };
                    mq -= s * coef * a;
                }
                q.set(lev, c, mq / m);
                mass.set(lev, c, m);
            }
        }
    }
}
