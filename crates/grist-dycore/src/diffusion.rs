//! Horizontal diffusion operators: Laplacian and ∇⁴ hyperdiffusion on the
//! hexagonal C-grid, for both cell scalars and edge-normal velocity.
//!
//! Every GRIST-class dycore carries scale-selective ∇⁴ dissipation to remove
//! grid-scale enstrophy; it is also a textbook >4-array kernel (in, lap,
//! out, geometry streams), i.e. another LDCache-thrashing candidate for the
//! Fig. 6 address distributor.

use crate::field::Field2;
use crate::operators::ScaledGeometry;
use crate::real::Real;
use grist_mesh::HexMesh;
use sunway_sim::Substrate;

/// Cell-scalar Laplacian: `∇²h|_i = (1/A_i) Σ_e s(i,e) ℓ_e (h_nb − h_i)/d_e`.
pub fn laplacian_cell<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    h: &Field2<R>,
    out: &mut Field2<R>,
) {
    sub.run_cols("laplacian_cell", out.cols_mut(), |c, col| {
        col.fill(R::ZERO);
        let own = h.col(c);
        for (&e, &nb) in mesh
            .cell_edges
            .row(c)
            .iter()
            .zip(mesh.cell_neighbors.row(c))
        {
            let w = geom.edge_le[e as usize] * geom.inv_edge_de[e as usize];
            let nbc = h.col(nb as usize);
            for (o, (&hn, &hi)) in col.iter_mut().zip(nbc.iter().zip(own)) {
                *o += w * (hn - hi);
            }
        }
        let ia = geom.inv_cell_area[c];
        for o in col.iter_mut() {
            *o *= ia;
        }
    });
}

/// Edge-velocity "Laplacian" via the vector identity
/// `∇²V = ∇(∇·V) − ∇×(∇×V)`, projected on the edge normal.
pub fn laplacian_edge<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    u: &Field2<R>,
    div_scratch: &mut Field2<R>,
    vor_scratch: &mut Field2<R>,
    out: &mut Field2<R>,
) {
    let nlev = u.nlev();
    crate::operators::divergence(sub, mesh, geom, u, div_scratch);
    crate::operators::vorticity(sub, mesh, geom, u, vor_scratch);
    let div_scratch = &*div_scratch;
    let vor_scratch = &*vor_scratch;
    sub.run_cols("laplacian_edge", out.cols_mut(), |e, col| {
        let [c1, c2] = mesh.edge_cells[e];
        let [v1, v2] = mesh.edge_verts[e];
        let inv_de = geom.inv_edge_de[e];
        // ℓ_e-based tangential spacing between the two dual vertices.
        let inv_le = R::ONE / geom.edge_le[e];
        let (d1, d2) = (div_scratch.col(c1 as usize), div_scratch.col(c2 as usize));
        let (z1, z2) = (vor_scratch.col(v1 as usize), vor_scratch.col(v2 as usize));
        for k in 0..nlev {
            let grad_div = (d2[k] - d1[k]) * inv_de;
            let curl_vor = (z2[k] - z1[k]) * inv_le;
            col[k] = grad_div - curl_vor;
        }
    });
}

/// Scale-selective ∇⁴ hyperdiffusion tendency for a cell scalar:
/// `∂h/∂t = −ν₄ ∇⁴ h`, applied as two Laplacian sweeps. `nu4` in m⁴/s.
#[allow(clippy::too_many_arguments)]
pub fn hyperdiffuse_cell<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    h: &mut Field2<R>,
    nu4: f64,
    dt: f64,
    lap1: &mut Field2<R>,
    lap2: &mut Field2<R>,
) {
    laplacian_cell(sub, mesh, geom, h, lap1);
    laplacian_cell(sub, mesh, geom, lap1, lap2);
    let coef = R::from_f64(-nu4 * dt);
    h.axpy(coef, lap2);
}

/// The maximum stable ν₄ for an explicit step on this mesh:
/// `ν₄ < Δx⁴ / (32 Δt)` with Δx the minimum dual-edge spacing.
pub fn max_stable_nu4(mesh: &HexMesh, rearth: f64, dt: f64) -> f64 {
    let min_de = mesh.edge_de.iter().cloned().fold(f64::INFINITY, f64::min) * rearth;
    min_de.powi(4) / (32.0 * dt)
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

    #[test]
    fn laplacian_of_constant_is_zero() {
        let (mesh, geom) = setup(3);
        let h = Field2::constant(2, mesh.n_cells(), 42.0);
        let mut l = Field2::constant(2, mesh.n_cells(), 9.0);
        laplacian_cell(&sub(), &mesh, &geom, &h, &mut l);
        let max = l.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max < 1e-12, "∇²const = {max}");
    }

    #[test]
    fn laplacian_integral_vanishes() {
        // Σ A_i ∇²h = 0 exactly (flux form telescopes).
        let (mesh, geom) = setup(3);
        let h = Field2::from_fn(1, mesh.n_cells(), |_, c| (c % 23) as f64);
        let mut l = Field2::zeros(1, mesh.n_cells());
        laplacian_cell(&sub(), &mesh, &geom, &h, &mut l);
        let total: f64 = (0..mesh.n_cells())
            .map(|c| l.at(0, c) * mesh.cell_area[c])
            .sum();
        assert!(total.abs() < 1e-16, "∮∇²h = {total}");
    }

    #[test]
    fn laplacian_of_spherical_harmonic_is_eigenfunction() {
        // ∇² Y₁ = −l(l+1)/R² Y₁ with Y₁ ∝ z: eigenvalue −2/R².
        let (mesh, geom) = setup(5);
        let h = Field2::from_fn(1, mesh.n_cells(), |_, c| mesh.cell_xyz[c].z);
        let mut l = Field2::zeros(1, mesh.n_cells());
        laplacian_cell(&sub(), &mesh, &geom, &h, &mut l);
        let eig = -2.0 / (EARTH_RADIUS_M * EARTH_RADIUS_M);
        let mut rel = 0.0;
        let mut n = 0;
        for c in 0..mesh.n_cells() {
            let z = mesh.cell_xyz[c].z;
            if z.abs() > 0.3 {
                rel += (l.at(0, c) / (eig * z) - 1.0).abs();
                n += 1;
            }
        }
        let mean_rel = rel / n as f64;
        assert!(mean_rel < 0.05, "mean eigenvalue error {mean_rel}");
    }

    #[test]
    fn hyperdiffusion_damps_grid_noise_faster_than_smooth_modes() {
        let (mesh, geom) = setup(4);
        let dt = 300.0;
        let nu4 = 0.5 * max_stable_nu4(&mesh, EARTH_RADIUS_M, dt);
        // Smooth mode (Y₁) and checkerboard-ish noise.
        let smooth0 = Field2::from_fn(1, mesh.n_cells(), |_, c| mesh.cell_xyz[c].z);
        let noise0 = Field2::from_fn(
            1,
            mesh.n_cells(),
            |_, c| if c % 2 == 0 { 1.0 } else { -1.0 },
        );
        let mut smooth = smooth0.clone();
        let mut noise = noise0.clone();
        let mut l1 = Field2::zeros(1, mesh.n_cells());
        let mut l2 = Field2::zeros(1, mesh.n_cells());
        for _ in 0..5 {
            hyperdiffuse_cell(&sub(), &mesh, &geom, &mut smooth, nu4, dt, &mut l1, &mut l2);
            hyperdiffuse_cell(&sub(), &mesh, &geom, &mut noise, nu4, dt, &mut l1, &mut l2);
        }
        let norm = |a: &Field2<f64>, b: &Field2<f64>| -> f64 {
            let na: f64 = a.as_slice().iter().map(|x| x * x).sum();
            let nb: f64 = b.as_slice().iter().map(|x| x * x).sum();
            (na / nb).sqrt()
        };
        let smooth_kept = norm(&smooth, &smooth0);
        let noise_kept = norm(&noise, &noise0);
        assert!(
            smooth_kept > 0.98,
            "smooth mode over-damped: kept {smooth_kept}"
        );
        assert!(
            noise_kept < 0.7 * smooth_kept,
            "noise under-damped: kept {noise_kept}"
        );
    }

    #[test]
    fn hyperdiffusion_is_stable_at_the_cfl_bound() {
        let (mesh, geom) = setup(3);
        let dt = 600.0;
        let nu4 = 0.9 * max_stable_nu4(&mesh, EARTH_RADIUS_M, dt);
        let mut h = Field2::from_fn(
            1,
            mesh.n_cells(),
            |_, c| if c % 2 == 0 { 1.0 } else { -1.0 },
        );
        let mut l1 = Field2::zeros(1, mesh.n_cells());
        let mut l2 = Field2::zeros(1, mesh.n_cells());
        let n0: f64 = h.as_slice().iter().map(|x| x * x).sum();
        for _ in 0..50 {
            hyperdiffuse_cell(&sub(), &mesh, &geom, &mut h, nu4, dt, &mut l1, &mut l2);
        }
        let n1: f64 = h.as_slice().iter().map(|x| x * x).sum();
        assert!(
            n1.is_finite() && n1 <= n0,
            "hyperdiffusion unstable: {n0} -> {n1}"
        );
    }

    #[test]
    fn edge_laplacian_damps_divergent_and_rotational_noise() {
        let (mesh, geom) = setup(3);
        let nlev = 1;
        let u = Field2::from_fn(
            nlev,
            mesh.n_edges(),
            |_, e| if e % 2 == 0 { 1.0 } else { -1.0 },
        );
        let mut div = Field2::zeros(nlev, mesh.n_cells());
        let mut vor = Field2::zeros(nlev, mesh.n_verts());
        let mut lap = Field2::zeros(nlev, mesh.n_edges());
        laplacian_edge(&sub(), &mesh, &geom, &u, &mut div, &mut vor, &mut lap);
        // Applying u += dt·∇²u must reduce the noise norm for small dt.
        let dx = mesh.edge_de.iter().cloned().fold(f64::INFINITY, f64::min) * EARTH_RADIUS_M;
        let dt = 0.1 * dx * dx / 4.0; // well under the diffusive CFL with ν=1
        let mut u2 = u.clone();
        u2.axpy(dt * 1.0, &lap);
        let n0: f64 = u.as_slice().iter().map(|x| x * x).sum();
        let n1: f64 = u2.as_slice().iter().map(|x| x * x).sum();
        assert!(n1 < n0, "edge Laplacian failed to damp noise: {n0} -> {n1}");
    }
}
