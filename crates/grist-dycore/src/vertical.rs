//! Vertical discretization: the dry-mass (hydrostatic-pressure) coordinate of
//! GRIST [Zhang et al. 2020] in its simplified sigma form, plus the Thomas
//! tridiagonal solver used by the vertically-implicit half of the HEVI
//! integrator and by the columnar physics (PBL diffusion).
//!
//! Layers are indexed top-down: `k = 0` is the top layer, `k = nlev-1`
//! touches the surface. Interfaces carry `nlev + 1` entries with interface
//! `i` above layer `i`.

use crate::constants::P_TOP;
use crate::real::Real;

/// Sigma-type dry-mass vertical coordinate: `π_i = p_top + σ_i (π_s − p_top)`.
#[derive(Debug, Clone)]
pub struct VerticalCoord {
    /// Number of full layers.
    pub nlev: usize,
    /// Interface sigma values, monotone from 0 (top) to 1 (surface).
    pub sigma_i: Vec<f64>,
    /// Layer-midpoint sigma values.
    pub sigma_m: Vec<f64>,
    /// Model-top dry hydrostatic pressure \[Pa\].
    pub p_top: f64,
}

impl VerticalCoord {
    /// Uniform-in-sigma coordinate (the default 30- or 60-layer setups of
    /// Table 2 use stretched grids; uniform keeps the reproduction simple
    /// and is documented in DESIGN.md).
    pub fn uniform(nlev: usize) -> Self {
        Self::stretched(nlev, 1.0)
    }

    /// Stretched coordinate: `σ_i = (i/nlev)^stretch`, concentrating layers
    /// near the top for `stretch > 1` (where σ spacing is small).
    pub fn stretched(nlev: usize, stretch: f64) -> Self {
        assert!(nlev >= 2);
        let sigma_i: Vec<f64> = (0..=nlev)
            .map(|i| (i as f64 / nlev as f64).powf(stretch))
            .collect();
        let sigma_m: Vec<f64> = (0..nlev)
            .map(|k| 0.5 * (sigma_i[k] + sigma_i[k + 1]))
            .collect();
        VerticalCoord {
            nlev,
            sigma_i,
            sigma_m,
            p_top: P_TOP,
        }
    }

    /// Interface dry pressure for a column with surface dry pressure `ps`.
    pub fn pi_interfaces(&self, ps: f64) -> Vec<f64> {
        self.sigma_i
            .iter()
            .map(|&s| self.p_top + s * (ps - self.p_top))
            .collect()
    }

    /// Layer dry-mass thickness `δπ_k` for surface pressure `ps`.
    pub fn dpi(&self, ps: f64) -> Vec<f64> {
        (0..self.nlev)
            .map(|k| (self.sigma_i[k + 1] - self.sigma_i[k]) * (ps - self.p_top))
            .collect()
    }
}

/// Solve a tridiagonal system `a_k x_{k-1} + b_k x_k + c_k x_{k+1} = d_k`
/// in place by the Thomas algorithm. `a[0]` and `c[n-1]` are ignored.
///
/// The scratch slices let hot callers avoid per-column allocation; all five
/// slices must have the same length `n ≥ 1`. Diagonal dominance is the
/// caller's responsibility (all our systems are CN-discretized diffusion or
/// acoustic operators, which are strictly dominant).
pub fn thomas_solve<R: Real>(a: &[R], b: &[R], c: &[R], d: &mut [R], scratch: &mut [R]) {
    let n = b.len();
    assert!(n >= 1);
    assert!(a.len() == n && c.len() == n && d.len() == n && scratch.len() >= n);
    // Forward sweep.
    let mut beta = b[0];
    d[0] /= beta;
    for k in 1..n {
        scratch[k] = c[k - 1] / beta;
        beta = b[k] - a[k] * scratch[k];
        d[k] = (d[k] - a[k] * d[k - 1]) / beta;
    }
    // Back substitution.
    for k in (0..n - 1).rev() {
        let upd = d[k + 1];
        d[k] -= scratch[k + 1] * upd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_interfaces_are_monotone_and_span_unit() {
        for stretch in [1.0, 1.5, 2.0] {
            let vc = VerticalCoord::stretched(30, stretch);
            assert_eq!(vc.sigma_i.len(), 31);
            assert_eq!(vc.sigma_i[0], 0.0);
            assert!((vc.sigma_i[30] - 1.0).abs() < 1e-15);
            assert!(vc.sigma_i.windows(2).all(|w| w[1] > w[0]));
        }
    }

    #[test]
    fn dpi_sums_to_column_mass() {
        let vc = VerticalCoord::uniform(30);
        let ps = 98_500.0;
        let dpi = vc.dpi(ps);
        let total: f64 = dpi.iter().sum();
        assert!((total - (ps - vc.p_top)).abs() < 1e-9);
    }

    #[test]
    fn interfaces_bracket_midpoints() {
        let vc = VerticalCoord::stretched(20, 1.7);
        for k in 0..20 {
            assert!(vc.sigma_i[k] < vc.sigma_m[k] && vc.sigma_m[k] < vc.sigma_i[k + 1]);
        }
    }

    #[test]
    fn thomas_matches_dense_solve() {
        // Random diagonally dominant system, verified by residual.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 40;
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..n).map(|k| 4.0 + a[k].abs() + c[k].abs()).collect();
        let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut d = vec![0.0; n];
        for k in 0..n {
            d[k] = b[k] * x_true[k];
            if k > 0 {
                d[k] += a[k] * x_true[k - 1];
            }
            if k + 1 < n {
                d[k] += c[k] * x_true[k + 1];
            }
        }
        let mut scratch = vec![0.0; n];
        thomas_solve(&a, &b, &c, &mut d, &mut scratch);
        for k in 0..n {
            assert!(
                (d[k] - x_true[k]).abs() < 1e-10,
                "k={k}: {} vs {}",
                d[k],
                x_true[k]
            );
        }
    }

    #[test]
    fn thomas_single_element() {
        let mut d = vec![10.0f64];
        thomas_solve(&[0.0], &[5.0], &[0.0], &mut d, &mut [0.0]);
        assert!((d[0] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn thomas_f32_agrees_with_f64() {
        let n = 16;
        let a = vec![-1.0f64; n];
        let b = vec![4.0f64; n];
        let c = vec![-1.0f64; n];
        let mut d64: Vec<f64> = (0..n).map(|k| (k as f64).sin()).collect();
        let mut d32: Vec<f32> = d64.iter().map(|&x| x as f32).collect();
        let mut s64 = vec![0.0f64; n];
        let mut s32 = vec![0.0f32; n];
        thomas_solve(&a, &b, &c, &mut d64, &mut s64);
        let a32 = vec![-1.0f32; n];
        let b32 = vec![4.0f32; n];
        let c32 = vec![-1.0f32; n];
        thomas_solve(&a32, &b32, &c32, &mut d32, &mut s32);
        for k in 0..n {
            assert!((d64[k] - d32[k] as f64).abs() < 1e-5);
        }
    }
}
