//! The named hot kernels benchmarked in the paper's Fig. 9, each paired with
//! an arithmetic/memory cost descriptor consumed by the `sunway-sim` roofline
//! model:
//!
//! * `grad_kinetic_energy`  — the Fig. 4 example kernel (`tend_grad_ke_at_edge`).
//! * `primal_normal_flux_edge` — "involves numerous division, power, and
//!   other computationally expensive calculations, resulting in significant
//!   mixed precision speedup".
//! * `compute_rrr` — "features mixed precision optimization and involves a
//!   large number of arrays" (the LDCache-thrashing candidate of Fig. 6).
//! * `calc_coriolis_term` — "lacking mixed precision optimization and
//!   accessing relatively few arrays, derives minimal benefit".
//! * `tracer_transport_hori_flux_limiter` — the FCT limiter (see
//!   [`crate::tracer`]).

use crate::constants::{KAPPA, P0, RDRY};
use crate::field::Field2;
use crate::operators::ScaledGeometry;
use crate::real::Real;
use grist_mesh::HexMesh;
use sunway_sim::{ColumnsMut, Substrate};

/// Static cost descriptor of one kernel invocation, per (level, element)
/// point: the inputs of the roofline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Number of output points (elements × levels).
    pub points: usize,
    /// Cheap flops (add/mul/fma) per point.
    pub flops_per_point: f64,
    /// Expensive operations (divide, sqrt, pow, exp) per point — these are
    /// the operations where SW26010P f32 runs faster than f64 (§4.6).
    pub expensive_per_point: f64,
    /// Distinct arrays streamed (reads + writes) — drives LDCache-way
    /// pressure (Fig. 6).
    pub arrays: usize,
    /// Bytes moved per point per array element of the working precision.
    pub bytes_per_point: f64,
    /// Whether the kernel has a mixed-precision variant in the paper.
    pub has_mixed_variant: bool,
}

impl KernelCost {
    pub fn total_flops(&self) -> f64 {
        self.points as f64 * (self.flops_per_point + self.expensive_per_point)
    }
    pub fn total_bytes(&self) -> f64 {
        self.points as f64 * self.bytes_per_point
    }
}

/// `tend_grad_ke_at_edge` — the Fig. 4 kernel verbatim:
/// `tend(ilev,ie) = −(K(ilev,c2) − K(ilev,c1)) / (rearth · edt_leng(ie))`.
pub fn grad_kinetic_energy<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    ke: &Field2<R>,
    tend: &mut Field2<R>,
) {
    let nlev = ke.nlev();
    let cols = ColumnsMut::new(tend.as_mut_slice(), nlev);
    // 4 streamed arrays per edge column (ke×2, inv_de, tend) — see
    // `grad_kinetic_energy_cost`; feeds the dma.* counters under CPE teams.
    let bytes = 4 * nlev * R::BYTES;
    sub.run_with_bytes("grad_kinetic_energy", cols.len(), bytes, |e| {
        // SAFETY: each edge index is dispatched exactly once.
        let col = unsafe { cols.col(e) };
        let [c1, c2] = mesh.edge_cells[e];
        let (a, b) = (ke.col(c1 as usize), ke.col(c2 as usize));
        let inv = geom.inv_edge_de[e];
        for k in 0..nlev {
            col[k] = -(b[k] - a[k]) * inv;
        }
    });
}

/// Cost model for [`grad_kinetic_energy`].
pub fn grad_kinetic_energy_cost<R: Real>(n_edges: usize, nlev: usize) -> KernelCost {
    KernelCost {
        points: n_edges * nlev,
        flops_per_point: 3.0,
        expensive_per_point: 0.0,
        arrays: 4, // ke(c1), ke(c2), inv_de, tend
        bytes_per_point: 4.0 * R::BYTES as f64,
        has_mixed_variant: true,
    }
}

/// `primal_normal_flux_edge` — edge mass/energy flux with nonlinear
/// (power-law) thickness weighting and Exner conversion. Division/`powf`
/// heavy, as the paper describes.
pub fn primal_normal_flux_edge<R: Real>(
    sub: &Substrate,
    mesh: &HexMesh,
    geom: &ScaledGeometry<R>,
    u: &Field2<R>,
    dpi: &Field2<R>,
    theta: &Field2<R>,
    flux: &mut Field2<R>,
) {
    let nlev = u.nlev();
    let kappa = R::from_f64(KAPPA);
    let p0 = R::from_f64(P0);
    let rd = R::from_f64(RDRY);
    let cols = ColumnsMut::new(flux.as_mut_slice(), nlev);
    // 7 streamed arrays (u, dpi×2, theta×2, le, flux) per edge column.
    let bytes = 7 * nlev * R::BYTES;
    sub.run_with_bytes("primal_normal_flux_edge", cols.len(), bytes, |e| {
        // SAFETY: each edge index is dispatched exactly once.
        let col = unsafe { cols.col(e) };
        let [c1, c2] = mesh.edge_cells[e];
        let (d1, d2) = (dpi.col(c1 as usize), dpi.col(c2 as usize));
        let (t1, t2) = (theta.col(c1 as usize), theta.col(c2 as usize));
        let le = geom.edge_le[e];
        for k in 0..nlev {
            // Harmonic-mean thickness (division-heavy) ...
            let hm = (R::from_f64(2.0) * d1[k] * d2[k]) / (d1[k] + d2[k]);
            // ... energy-consistent Exner weighting (powf-heavy).
            let tbar = (t1[k] + t2[k]) * R::from_f64(0.5);
            let pi_e = (hm * rd * tbar / p0).powf(kappa);
            col[k] = u.at(k, e) * hm * pi_e * le;
        }
    });
}

/// Cost model for [`primal_normal_flux_edge`].
pub fn primal_normal_flux_edge_cost<R: Real>(n_edges: usize, nlev: usize) -> KernelCost {
    KernelCost {
        points: n_edges * nlev,
        flops_per_point: 9.0,
        expensive_per_point: 2.0, // one divide + one powf
        arrays: 7,                // u, dpi×2, theta×2, le, flux
        bytes_per_point: 7.0 * R::BYTES as f64,
        has_mixed_variant: true,
    }
}

/// `compute_rrr` — diagnoses the moist density ratio
/// `rrr = δπ (1 + q_v R_v/R_d) / (δφ (1 + q_v + q_c + q_r))`
/// per cell/level. Streams **seven** arrays in one loop — more than the four
/// LDCache ways — making it the cache-thrashing showcase of Fig. 6.
#[allow(clippy::too_many_arguments)]
pub fn compute_rrr<R: Real>(
    sub: &Substrate,
    dpi: &Field2<R>,
    dphi: &Field2<R>,
    qv: &Field2<R>,
    qc: &Field2<R>,
    qr: &Field2<R>,
    theta: &Field2<R>,
    rrr: &mut Field2<R>,
) {
    let nlev = dpi.nlev();
    let rv_over_rd = R::from_f64(461.5 / RDRY);
    let cols = ColumnsMut::new(rrr.as_mut_slice(), nlev);
    // 7 streamed arrays (dpi, dphi, qv, qc, qr, theta, rrr) per cell column.
    let bytes = 7 * nlev * R::BYTES;
    sub.run_with_bytes("compute_rrr", cols.len(), bytes, |c| {
        // SAFETY: each cell index is dispatched exactly once.
        let col = unsafe { cols.col(c) };
        let (d, f) = (dpi.col(c), dphi.col(c));
        let (v, cc, r) = (qv.col(c), qc.col(c), qr.col(c));
        let t = theta.col(c);
        for k in 0..nlev {
            let moist = R::ONE + v[k] * rv_over_rd;
            let loading = R::ONE + v[k] + cc[k] + r[k];
            // θ-dependent stability factor keeps all seven streams live.
            let stab = R::ONE + (t[k] - R::from_f64(300.0)) * R::from_f64(1e-4);
            col[k] = d[k] * moist / (f[k] * loading) * stab;
        }
    });
}

/// Cost model for [`compute_rrr`].
pub fn compute_rrr_cost<R: Real>(n_cells: usize, nlev: usize) -> KernelCost {
    KernelCost {
        points: n_cells * nlev,
        flops_per_point: 8.0,
        expensive_per_point: 1.0, // one divide
        arrays: 7,                // dpi, dphi, qv, qc, qr, theta, rrr
        bytes_per_point: 7.0 * R::BYTES as f64,
        has_mixed_variant: true,
    }
}

/// `calc_coriolis_term` — the nonlinear Coriolis tendency
/// `(ζ+f)_e · v_t` at edges. Few arrays, no divisions, and (per the paper)
/// no mixed-precision variant: the kernel the optimizations help least.
pub fn calc_coriolis_term<R: Real>(
    sub: &Substrate,
    pv_edge: &Field2<R>,
    vt: &Field2<R>,
    tend: &mut Field2<R>,
) {
    let nlev = vt.nlev();
    let cols = ColumnsMut::new(tend.as_mut_slice(), nlev);
    // 3 streamed arrays (pv, vt, tend) per edge column.
    let bytes = 3 * nlev * R::BYTES;
    sub.run_with_bytes("calc_coriolis_term", cols.len(), bytes, |e| {
        // SAFETY: each edge index is dispatched exactly once.
        let col = unsafe { cols.col(e) };
        let (p, v) = (pv_edge.col(e), vt.col(e));
        for k in 0..nlev {
            col[k] = p[k] * v[k];
        }
    });
}

/// Cost model for [`calc_coriolis_term`] (always runs in f64 in the paper).
pub fn calc_coriolis_term_cost(n_edges: usize, nlev: usize) -> KernelCost {
    KernelCost {
        points: n_edges * nlev,
        flops_per_point: 1.0,
        expensive_per_point: 0.0,
        arrays: 3, // pv, vt, tend
        bytes_per_point: 3.0 * 8.0,
        has_mixed_variant: false,
    }
}

/// Cost model for the FCT limiter, `tracer_transport_hori_flux_limiter`
/// ([`crate::tracer::fct_transport_step`]): per edge-point it streams the
/// transports, two tracer columns, antidiffusive fluxes and the two limiter
/// factors — another >4-array kernel that benefits from address distribution.
pub fn tracer_flux_limiter_cost<R: Real>(n_edges: usize, nlev: usize) -> KernelCost {
    KernelCost {
        points: n_edges * nlev,
        flops_per_point: 14.0,
        expensive_per_point: 1.0, // the q_td division amortized per edge
        arrays: 6,                // transport, q×2, anti, r_plus, r_minus
        bytes_per_point: 6.0 * R::BYTES as f64,
        has_mixed_variant: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grist_mesh::{EARTH_OMEGA, EARTH_RADIUS_M};

    fn sub() -> Substrate {
        Substrate::serial()
    }

    fn setup() -> (HexMesh, ScaledGeometry<f64>) {
        let mesh = HexMesh::build(3);
        let geom = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
        (mesh, geom)
    }

    #[test]
    fn grad_ke_matches_generic_gradient_up_to_sign() {
        let (mesh, geom) = setup();
        let ke = Field2::from_fn(2, mesh.n_cells(), |k, c| {
            mesh.cell_xyz[c].z * 10.0 + k as f64
        });
        let mut tend = Field2::zeros(2, mesh.n_edges());
        grad_kinetic_energy(&sub(), &mesh, &geom, &ke, &mut tend);
        let mut grad = Field2::zeros(2, mesh.n_edges());
        crate::operators::gradient(&sub(), &mesh, &geom, &ke, &mut grad);
        for (a, b) in tend.as_slice().iter().zip(grad.as_slice()) {
            assert!((a + b).abs() < 1e-15);
        }
    }

    #[test]
    fn primal_flux_is_zero_for_zero_wind_and_scales_linearly() {
        let (mesh, geom) = setup();
        let ne = mesh.n_edges();
        let nc = mesh.n_cells();
        let dpi = Field2::constant(1, nc, 500.0);
        let theta = Field2::constant(1, nc, 300.0);
        let u0 = Field2::zeros(1, ne);
        let mut f0 = Field2::constant(1, ne, 1.0);
        primal_normal_flux_edge(&sub(), &mesh, &geom, &u0, &dpi, &theta, &mut f0);
        assert!(f0.as_slice().iter().all(|&x| x == 0.0));

        let u1 = Field2::constant(1, ne, 2.0);
        let u2 = Field2::constant(1, ne, 4.0);
        let mut f1 = Field2::zeros(1, ne);
        let mut f2 = Field2::zeros(1, ne);
        primal_normal_flux_edge(&sub(), &mesh, &geom, &u1, &dpi, &theta, &mut f1);
        primal_normal_flux_edge(&sub(), &mesh, &geom, &u2, &dpi, &theta, &mut f2);
        for (a, b) in f1.as_slice().iter().zip(f2.as_slice()) {
            assert!((b / a - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rrr_reduces_to_density_ratio_when_dry() {
        let nc = 50;
        let dpi = Field2::constant(4, nc, 800.0);
        let dphi = Field2::constant(4, nc, 2000.0);
        let q0 = Field2::zeros(4, nc);
        let theta = Field2::constant(4, nc, 300.0);
        let mut rrr = Field2::zeros(4, nc);
        compute_rrr(&sub(), &dpi, &dphi, &q0, &q0, &q0, &theta, &mut rrr);
        for &x in rrr.as_slice() {
            assert!((x - 0.4).abs() < 1e-12, "dry rrr = {x}");
        }
    }

    #[test]
    fn rrr_moisture_increases_buoyancy_factor() {
        let nc = 10;
        let dpi = Field2::constant(1, nc, 800.0);
        let dphi = Field2::constant(1, nc, 2000.0);
        let qv = Field2::constant(1, nc, 0.01);
        let q0 = Field2::zeros(1, nc);
        let theta = Field2::constant(1, nc, 300.0);
        let mut dry = Field2::zeros(1, nc);
        let mut moist = Field2::zeros(1, nc);
        compute_rrr(&sub(), &dpi, &dphi, &q0, &q0, &q0, &theta, &mut dry);
        compute_rrr(&sub(), &dpi, &dphi, &qv, &q0, &q0, &theta, &mut moist);
        // vapour: R_v/R_d > 1 ⇒ (1+q·1.6)/(1+q) > 1.
        assert!(moist.at(0, 0) > dry.at(0, 0));
    }

    #[test]
    fn coriolis_term_is_elementwise_product() {
        let ne = 20;
        let pv = Field2::from_fn(3, ne, |k, e| (k + e) as f64);
        let vt = Field2::from_fn(3, ne, |k, e| (k as f64) - (e as f64));
        let mut t = Field2::zeros(3, ne);
        calc_coriolis_term(&sub(), &pv, &vt, &mut t);
        for e in 0..ne {
            for k in 0..3 {
                assert_eq!(t.at(k, e), pv.at(k, e) * vt.at(k, e));
            }
        }
    }

    #[test]
    fn cost_models_reflect_precision_byte_savings() {
        let c64 = compute_rrr_cost::<f64>(1000, 30);
        let c32 = compute_rrr_cost::<f32>(1000, 30);
        assert_eq!(c64.total_bytes(), 2.0 * c32.total_bytes());
        assert_eq!(c64.total_flops(), c32.total_flops());
        assert!(c64.arrays > 4, "rrr must exceed the LDCache way count");
        assert!(!calc_coriolis_term_cost(10, 3).has_mixed_variant);
    }
}
