//! Passive tracer transport: flux-form advection with a Zalesak-style
//! flux-corrected-transport (FCT) limiter — the paper's
//! `tracer_transport_hori_flux_limiter` kernel (Fig. 9).
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
use sunway_sim::{ColumnsMut, Substrate};

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

/// One forward-Euler FCT transport step.
///
/// * `mass` — area-integrated cell mass `M_i = δπ_i A_i` (updated in place to
///   the post-step mass).
/// * `flux` — edge-normal dry-mass flux `F_e = (δπ u)_e` \[Pa·m/s\].
/// * `q`    — mixing ratio, updated in place, guaranteed monotone (no new
///   extrema) and exactly conservative in `Σ M_i q_i`.
///
/// The caller must respect the flux CFL: total outflow of any cell during
/// `dt` may not exceed its mass (checked with `debug_assert`).
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
    let nlev = q.nlev();
    let dt_r = R::from_f64(dt);

    // Per-edge transports T_e = dt · F_e · ℓ_e.
    {
        let cols = ColumnsMut::new(ws.transport.as_mut_slice(), nlev);
        sub.run("fct_transport", cols.len(), |e| {
            // SAFETY: each edge index is dispatched exactly once.
            let col = unsafe { cols.col(e) };
            let le = geom.edge_le[e];
            let f = flux.col(e);
            for k in 0..nlev {
                col[k] = f[k] * le * dt_r;
            }
        });
    }

    // Low-order (upwind) transported tracer and the updated mass.
    let q_ro: &Field2<R> = q;
    let mass_ro: &Field2<R> = mass;
    let transport = &ws.transport;
    {
        let qtd_cols = ColumnsMut::new(ws.q_td.as_mut_slice(), nlev);
        let mnew_cols = ColumnsMut::new(ws.mass_new.as_mut_slice(), nlev);
        sub.run("fct_loworder", qtd_cols.len(), |c| {
            // SAFETY: each cell index is dispatched exactly once.
            let qtd = unsafe { qtd_cols.col(c) };
            let mnew = unsafe { mnew_cols.col(c) };
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
                debug_assert!(
                    m > R::ZERO,
                    "FCT: cell {c} lev {lev} emptied — CFL violated"
                );
                mnew[lev] = m;
                qtd[lev] = mq / m;
            }
        });
    }

    // Antidiffusive fluxes A_e = T_e (q_centered − q_upwind).
    let half = R::from_f64(0.5);
    {
        let cols = ColumnsMut::new(ws.anti.as_mut_slice(), nlev);
        sub.run("fct_antidiffusive", cols.len(), |e| {
            // SAFETY: each edge index is dispatched exactly once.
            let col = unsafe { cols.col(e) };
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
        let rp_cols = ColumnsMut::new(ws.r_plus.as_mut_slice(), nlev);
        let rm_cols = ColumnsMut::new(ws.r_minus.as_mut_slice(), nlev);
        sub.run("fct_limiter", rp_cols.len(), |c| {
            // SAFETY: each cell index is dispatched exactly once.
            let rp = unsafe { rp_cols.col(c) };
            let rm = unsafe { rm_cols.col(c) };
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
                rp[lev] = if p_plus > tiny {
                    (q_plus / p_plus).min(R::ONE)
                } else {
                    R::ZERO
                };
                rm[lev] = if p_minus > tiny {
                    (q_minus / p_minus).min(R::ONE)
                } else {
                    R::ZERO
                };
            }
        });
    }

    // Apply limited antidiffusive fluxes.
    let r_plus = &ws.r_plus;
    let r_minus = &ws.r_minus;
    {
        let q_cols = ColumnsMut::new(q.as_mut_slice(), nlev);
        let m_cols = ColumnsMut::new(mass.as_mut_slice(), nlev);
        sub.run("fct_apply", q_cols.len(), |c| {
            // SAFETY: each cell index is dispatched exactly once.
            let qc = unsafe { q_cols.col(c) };
            let mc = unsafe { m_cols.col(c) };
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
                qc[lev] = mq / m;
                mc[lev] = m;
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
}
