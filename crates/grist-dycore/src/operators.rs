//! Discrete finite-volume operators on the hexagonal C-grid (§3.1.2) as
//! stand-alone kernels: divergence, gradient, vorticity, kinetic energy and
//! the cell-centred velocity reconstruction. "The discretization employs the
//! staggered finite-volume method, approximately second-order, leading to
//! moderate computational load for basic operators." The solvers' steps fuse
//! these (and the staggering averages and tangential reconstruction, whose
//! stand-alone forms live with the test references in `tests/support/`) into
//! a few kernels each; what is dispatched from here is diagnostics, the
//! tracer step's divergence, and the references the fused steps are held to.
//!
//! All operators are generic over the [`Real`] precision and read their
//! metric terms from a [`ScaledGeometry`] pre-cast to that precision, so the
//! mixed-precision build streams 4-byte geometry exactly as the Sunway port
//! does after its initialization-time conversion (§3.4.3).

use crate::field::Field2;
use crate::real::Real;
use grist_mesh::{HexMesh, Vec3};
use sunway_sim::Substrate;

/// Physical metric terms cast to the working precision `R`.
///
/// Lengths are in metres, areas in m²; inverse quantities are precomputed
/// because divisions dominate edge kernels on the CPE side (§4.6).
#[derive(Debug, Clone)]
pub struct ScaledGeometry<R: Real> {
    pub rearth: f64,
    /// 1 / (cell area · R²)  [1/m²]
    pub inv_cell_area: Vec<R>,
    /// 1 / (dual-triangle area · R²)  [1/m²]
    pub inv_vert_area: Vec<R>,
    /// Primal edge length · R  \[m\]
    pub edge_le: Vec<R>,
    /// Dual edge length · R  \[m\]
    pub edge_de: Vec<R>,
    /// 1 / (dual edge length · R)  [1/m]
    pub inv_edge_de: Vec<R>,
    /// le · de / 4  \[m²\] — kinetic-energy weight per edge.
    pub ke_weight: Vec<R>,
    /// Coriolis parameter at dual vertices  [1/s]
    pub f_vert: Vec<R>,
    /// Coriolis parameter at edge midpoints  [1/s]
    pub f_edge: Vec<R>,
    /// `cell_edge_sign` cast to R (aligned with `mesh.cell_edges.values`).
    pub cell_edge_sign: Vec<R>,
    /// `vert_edge_sign` cast to R.
    pub vert_edge_sign: Vec<[R; 3]>,
    /// Per-vertex 2×2 least-squares reconstruction matrices (inverted),
    /// in the local (east, north) tangent frame of the vertex, plus each
    /// incident edge normal expressed in that frame.
    pub vert_recon: Vec<VertRecon<R>>,
    /// Edge tangent expressed in the (east, north) frame of each adjacent
    /// vertex is not needed; reconstruction returns an (e, n) vector that is
    /// projected on the edge tangent via these per-edge tangent components
    /// in the *edge's own* frame (the `v_t` of the solvers' momentum
    /// kernels).
    pub edge_tangent_en: Vec<[R; 2]>,
    /// Edge normal in the edge's own (east, north) frame (unused by solvers,
    /// kept for diagnostics).
    pub edge_normal_en: Vec<[R; 2]>,
}

/// Per-dual-vertex data for least-squares velocity reconstruction.
#[derive(Debug, Clone, Copy)]
pub struct VertRecon<R: Real> {
    /// Inverse of the 2×2 normal-equation matrix `Σ nₖ nₖᵀ`.
    pub minv: [[R; 2]; 2],
    /// The three incident edge normals in the vertex (east, north) frame,
    /// ordered like `mesh.vert_edges[v]`.
    pub normals: [[R; 2]; 3],
}

impl<R: Real> ScaledGeometry<R> {
    pub fn new(mesh: &HexMesh, rearth: f64, omega: f64) -> Self {
        let r = rearth;
        let cast = |x: f64| R::from_f64(x);
        let inv_cell_area = mesh
            .cell_area
            .iter()
            .map(|&a| cast(1.0 / (a * r * r)))
            .collect();
        let inv_vert_area = mesh
            .vert_area
            .iter()
            .map(|&a| cast(1.0 / (a * r * r)))
            .collect();
        let edge_le: Vec<R> = mesh.edge_le.iter().map(|&l| cast(l * r)).collect();
        let edge_de: Vec<R> = mesh.edge_de.iter().map(|&l| cast(l * r)).collect();
        let inv_edge_de = mesh.edge_de.iter().map(|&l| cast(1.0 / (l * r))).collect();
        let ke_weight = mesh
            .edge_le
            .iter()
            .zip(&mesh.edge_de)
            .map(|(&le, &de)| cast(le * de * r * r / 4.0))
            .collect();
        let f_vert = mesh
            .coriolis_at_verts(omega)
            .into_iter()
            .map(cast)
            .collect();
        let f_edge = mesh
            .coriolis_at_edges(omega)
            .into_iter()
            .map(cast)
            .collect();
        let cell_edge_sign = mesh.cell_edge_sign.iter().map(|&s| cast(s)).collect();
        let vert_edge_sign = mesh
            .vert_edge_sign
            .iter()
            .map(|s| [cast(s[0]), cast(s[1]), cast(s[2])])
            .collect();

        // Per-vertex least-squares reconstruction.
        let mut vert_recon = Vec::with_capacity(mesh.n_verts());
        for v in 0..mesh.n_verts() {
            let p = mesh.vert_xyz[v];
            let (e_hat, n_hat) = (p.east(), p.north());
            let mut m = [[0.0f64; 2]; 2];
            let mut normals = [[R::ZERO; 2]; 3];
            for (k, &e) in mesh.vert_edges[v].iter().enumerate() {
                let n: Vec3 = mesh.edge_normal[e as usize].tangent_at(p);
                let ne = n.dot(e_hat);
                let nn = n.dot(n_hat);
                normals[k] = [cast(ne), cast(nn)];
                m[0][0] += ne * ne;
                m[0][1] += ne * nn;
                m[1][0] += nn * ne;
                m[1][1] += nn * nn;
            }
            let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
            debug_assert!(det.abs() > 1e-12, "degenerate reconstruction at vertex {v}");
            let minv = [
                [cast(m[1][1] / det), cast(-m[0][1] / det)],
                [cast(-m[1][0] / det), cast(m[0][0] / det)],
            ];
            vert_recon.push(VertRecon { minv, normals });
        }

        // Edge tangent/normal in per-edge (east, north) frames.
        let mut edge_tangent_en = Vec::with_capacity(mesh.n_edges());
        let mut edge_normal_en = Vec::with_capacity(mesh.n_edges());
        for e in 0..mesh.n_edges() {
            let m = mesh.edge_mid[e];
            let (e_hat, n_hat) = (m.east(), m.north());
            let t = mesh.edge_tangent[e];
            let n = mesh.edge_normal[e];
            edge_tangent_en.push([cast(t.dot(e_hat)), cast(t.dot(n_hat))]);
            edge_normal_en.push([cast(n.dot(e_hat)), cast(n.dot(n_hat))]);
        }

        ScaledGeometry {
            rearth,
            inv_cell_area,
            inv_vert_area,
            edge_le,
            edge_de,
            inv_edge_de,
            ke_weight,
            f_vert,
            f_edge,
            cell_edge_sign,
            vert_edge_sign,
            vert_recon,
            edge_tangent_en,
            edge_normal_en,
        }
    }
}

/// Divergence of an edge-normal flux field, at cells:
/// `div_i = (1/A_i) Σ_e s(i,e) F_e le_e`.
pub fn divergence<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    flux_edge: &Field2<R>,
    out: &mut Field2<R>,
) {
    debug_assert_eq!(out.nlev(), flux_edge.nlev());
    sub.run_cols("divergence", 0, out.cols_mut(), |c, col| {
        col.fill(R::ZERO);
        let rng = mesh.cell_edges.row_range(c);
        for (k, &e) in mesh.cell_edges.row(c).iter().enumerate() {
            let w = geom.cell_edge_sign[rng.start + k] * geom.edge_le[e as usize];
            let fe = flux_edge.col(e as usize);
            for (o, &f) in col.iter_mut().zip(fe) {
                *o = f.mul_add(w, *o);
            }
        }
        let ia = geom.inv_cell_area[c];
        for o in col.iter_mut() {
            *o *= ia;
        }
    });
}

/// Normal gradient of a cell scalar, at edges:
/// `grad_e = (h_{c2} − h_{c1}) / de_e`.
pub fn gradient<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    h_cell: &Field2<R>,
    out: &mut Field2<R>,
) {
    sub.run_cols("gradient", 0, out.cols_mut(), |e, col| {
        let [c1, c2] = mesh.edge_cells[e];
        let a = h_cell.col(c1 as usize);
        let b = h_cell.col(c2 as usize);
        let inv_de = geom.inv_edge_de[e];
        for (o, (&x1, &x2)) in col.iter_mut().zip(a.iter().zip(b)) {
            *o = (x2 - x1) * inv_de;
        }
    });
}

/// Relative vorticity at dual vertices:
/// `ζ_v = (1/A_v) Σ_e t(v,e) u_e de_e`.
pub fn vorticity<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    u_edge: &Field2<R>,
    out: &mut Field2<R>,
) {
    sub.run_cols("vorticity", 0, out.cols_mut(), |v, col| {
        col.fill(R::ZERO);
        for k in 0..3 {
            let e = mesh.vert_edges[v][k] as usize;
            let w = geom.vert_edge_sign[v][k] * geom.edge_de[e];
            let ue = u_edge.col(e);
            for (o, &u) in col.iter_mut().zip(ue) {
                *o = u.mul_add(w, *o);
            }
        }
        let ia = geom.inv_vert_area[v];
        for o in col.iter_mut() {
            *o *= ia;
        }
    });
}

/// Kinetic energy per unit mass at cells:
/// `K_i = (1/A_i) Σ_e (le·de/4) u_e²`.
pub fn kinetic_energy<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    u_edge: &Field2<R>,
    out: &mut Field2<R>,
) {
    sub.run_cols("kinetic_energy", 0, out.cols_mut(), |c, col| {
        col.fill(R::ZERO);
        for &e in mesh.cell_edges.row(c) {
            let w = geom.ke_weight[e as usize];
            let ue = u_edge.col(e as usize);
            for (o, &u) in col.iter_mut().zip(ue) {
                *o += w * u * u;
            }
        }
        let ia = geom.inv_cell_area[c];
        for o in col.iter_mut() {
            *o *= ia;
        }
    });
}

/// Full (east, north) velocity vectors reconstructed at *cells* from the
/// incident edge-normal components by least squares — the cell-centred
/// (U, V) handed to the column physics (§3.2.4's coupling inputs).
pub fn cell_velocity<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    u_edge: &Field2<R>,
    out_e: &mut Field2<R>,
    out_n: &mut Field2<R>,
) {
    let nlev = u_edge.nlev();
    let outs = (out_e.cols_mut(), out_n.cols_mut());
    sub.run_cols("cell_velocity", 0, outs, |c, (ce, cn)| {
        {
            let p = mesh.cell_xyz[c];
            let (e_hat, n_hat) = (p.east(), p.north());
            // Normal equations of the per-cell least squares (f64 geometry,
            // assembled once per cell per call).
            let mut m = [[0.0f64; 2]; 2];
            let edges = mesh.cell_edges.row(c);
            let normals: Vec<[f64; 2]> = edges
                .iter()
                .map(|&e| {
                    let n = mesh.edge_normal[e as usize].tangent_at(p);
                    [n.dot(e_hat), n.dot(n_hat)]
                })
                .collect();
            for nrm in &normals {
                m[0][0] += nrm[0] * nrm[0];
                m[0][1] += nrm[0] * nrm[1];
                m[1][0] += nrm[1] * nrm[0];
                m[1][1] += nrm[1] * nrm[1];
            }
            let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
            let minv = [
                [m[1][1] / det, -m[0][1] / det],
                [-m[1][0] / det, m[0][0] / det],
            ];
            for lev in 0..nlev {
                let mut be = 0.0f64;
                let mut bn = 0.0f64;
                for (k, &e) in edges.iter().enumerate() {
                    let u = u_edge.at(lev, e as usize).to_f64();
                    be += u * normals[k][0];
                    bn += u * normals[k][1];
                }
                ce[lev] = R::from_f64(minv[0][0] * be + minv[0][1] * bn);
                cn[lev] = R::from_f64(minv[1][0] * be + minv[1][1] * bn);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use grist_mesh::{EARTH_OMEGA, EARTH_RADIUS_M};

    fn sub() -> Substrate {
        Substrate::serial()
    }

    fn setup(level: u32) -> (HexMesh, ScaledGeometry<f64>) {
        let mesh = HexMesh::build(level);
        let geom = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
        (mesh, geom)
    }

    /// Solid-body rotation normal velocity: `V = ω ẑ × (R m̂)`.
    fn solid_body_u(mesh: &HexMesh, omega: f64) -> Field2<f64> {
        Field2::from_fn(1, mesh.n_edges(), |_, e| {
            let m = mesh.edge_mid[e];
            let v = Vec3::new(0.0, 0.0, 1.0).cross(m) * (omega * EARTH_RADIUS_M);
            v.dot(mesh.edge_normal[e])
        })
    }

    #[test]
    fn divergence_integral_vanishes_exactly() {
        // Σ A_i div_i telescopes to zero for any flux field.
        let (mesh, geom) = setup(3);
        let flux = Field2::from_fn(2, mesh.n_edges(), |lev, e| {
            ((e * 7 + lev) % 13) as f64 - 6.0
        });
        let mut div = Field2::zeros(2, mesh.n_cells());
        divergence(&sub(), &mesh, &geom, &flux, &mut div);
        for lev in 0..2 {
            let total: f64 = (0..mesh.n_cells())
                .map(|c| div.at(lev, c) * mesh.cell_area[c])
                .sum();
            // scaled by R²; compare against field magnitude
            assert!(total.abs() < 1e-18, "lev {lev}: ∮div = {total}");
        }
    }

    #[test]
    fn curl_of_gradient_is_machine_zero() {
        // The discrete vorticity of a discrete gradient telescopes around
        // each dual triangle.
        let (mesh, geom) = setup(3);
        let h = Field2::from_fn(1, mesh.n_cells(), |_, c| {
            let p = mesh.cell_xyz[c];
            p.z * p.z + 0.3 * p.x - 0.1 * p.y * p.z
        });
        let mut g = Field2::zeros(1, mesh.n_edges());
        gradient(&sub(), &mesh, &geom, &h, &mut g);
        let mut vor = Field2::zeros(1, mesh.n_verts());
        vorticity(&sub(), &mesh, &geom, &g, &mut vor);
        let max = vor.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let gmax = g.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(
            max < gmax * 1e-9,
            "max curl(grad) = {max}, max grad = {gmax}"
        );
    }

    #[test]
    fn solid_body_rotation_has_small_divergence() {
        let (mesh, geom) = setup(4);
        let u = solid_body_u(&mesh, 1e-5);
        let mut div = Field2::zeros(1, mesh.n_cells());
        divergence(&sub(), &mesh, &geom, &u, &mut div);
        // Scale: |u| ~ ωR ~ 64 m/s over cells of ~10^5 m → u/dx ~ 1e-3.
        let max = div.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max < 2e-6, "max |div| = {max}");
    }

    #[test]
    fn solid_body_vorticity_converges_to_analytic() {
        // ζ = 2ω sin(lat); second-order mesh ⇒ error shrinks ≥ ~3x per level.
        let omega = 1e-5;
        let mut errs = Vec::new();
        for level in [3u32, 4] {
            let (mesh, geom) = setup(level);
            let u = solid_body_u(&mesh, omega);
            let mut vor = Field2::zeros(1, mesh.n_verts());
            vorticity(&sub(), &mesh, &geom, &u, &mut vor);
            let mut num = 0.0;
            let mut den = 0.0;
            for v in 0..mesh.n_verts() {
                let exact = 2.0 * omega * mesh.vert_xyz[v].lat().sin();
                let e = vor.at(0, v) - exact;
                num += e * e * mesh.vert_area[v];
                den += exact * exact * mesh.vert_area[v] + 1e-30;
            }
            errs.push((num / den).sqrt());
        }
        // Vorticity converges ~O(h) in L2 on unoptimized icosahedral grids
        // (pentagon neighbourhoods dominate the norm) — halving per level.
        assert!(
            errs[1] < errs[0] / 1.8,
            "vorticity errors {errs:?} not converging"
        );
        assert!(
            errs[0] < 0.05,
            "coarse-level vorticity error too large: {}",
            errs[0]
        );
    }

    #[test]
    fn gradient_of_constant_is_zero() {
        let (mesh, geom) = setup(3);
        let h = Field2::constant(3, mesh.n_cells(), 42.0);
        let mut g = Field2::constant(3, mesh.n_edges(), 1.0);
        gradient(&sub(), &mesh, &geom, &h, &mut g);
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn kinetic_energy_of_solid_body_matches_analytic() {
        // K = u²/2 with u = ωR cos(lat).
        let (mesh, geom) = setup(5);
        let omega = 1e-5;
        let u = solid_body_u(&mesh, omega);
        let mut ke = Field2::zeros(1, mesh.n_cells());
        kinetic_energy(&sub(), &mesh, &geom, &u, &mut ke);
        let mut rel = 0.0f64;
        let mut n = 0;
        for c in 0..mesh.n_cells() {
            let lat = mesh.cell_xyz[c].lat();
            let exact = 0.5 * (omega * EARTH_RADIUS_M * lat.cos()).powi(2);
            if exact > 1.0 {
                rel += ((ke.at(0, c) - exact) / exact).abs();
                n += 1;
            }
        }
        let mean_rel = rel / n as f64;
        assert!(mean_rel < 0.05, "mean relative KE error {mean_rel}");
    }

    #[test]
    fn cell_velocity_recovers_solid_body_flow() {
        let (mesh, _) = setup(4);
        let omega = 1e-5;
        let u = solid_body_u(&mesh, omega);
        let mut ue = Field2::zeros(1, mesh.n_cells());
        let mut un = Field2::zeros(1, mesh.n_cells());
        cell_velocity(&sub(), &mesh, &u, &mut ue, &mut un);
        let scale = omega * EARTH_RADIUS_M;
        let mut worst = 0.0f64;
        for c in 0..mesh.n_cells() {
            let p = mesh.cell_xyz[c];
            let v = Vec3::new(0.0, 0.0, 1.0).cross(p) * scale;
            let exact_e = v.dot(p.east());
            let exact_n = v.dot(p.north());
            worst = worst
                .max((ue.at(0, c) - exact_e).abs())
                .max((un.at(0, c) - exact_n).abs());
        }
        assert!(
            worst < 0.02 * scale,
            "worst cell-velocity error {worst} vs {scale}"
        );
    }

    #[test]
    fn operators_match_between_f32_and_f64_within_tolerance() {
        let (mesh, geom64) = setup(3);
        let geom32: ScaledGeometry<f32> = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
        let h64 = Field2::<f64>::from_fn(4, mesh.n_cells(), |lev, c| {
            1000.0 + mesh.cell_xyz[c].z * 50.0 + lev as f64
        });
        let h32: Field2<f32> = h64.cast();
        let mut g64 = Field2::zeros(4, mesh.n_edges());
        let mut g32 = Field2::zeros(4, mesh.n_edges());
        gradient(&sub(), &mesh, &geom64, &h64, &mut g64);
        gradient(&sub(), &mesh, &geom32, &h32, &mut g32);
        let err = crate::real::relative_l2_error(&g32.to_f64_vec(), &g64.to_f64_vec());
        // f32 gradient of a ~1e3-magnitude field over ~1e5 m edges loses some
        // digits to cancellation but stays far below the 5% gate.
        assert!(err < 1e-3, "f32/f64 gradient deviation {err}");
    }
}
