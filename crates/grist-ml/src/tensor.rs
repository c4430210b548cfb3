//! Minimal neural-network building blocks: parameters with gradient and
//! Adam moment storage, dense and 1-D convolution layers with hand-written
//! forward/backward passes, and activations.
//!
//! The paper's ML physics suite is deliberately compact — an 11-layer 1-D CNN
//! (~0.5 M parameters) and a 7-layer MLP — so a small, dependency-free,
//! layer-wise backprop implementation is both sufficient and easy to audit.
//! All compute is `f32`: "exploiting a mixed-precision scheme for ML-based
//! parameterizations is straightforward at the operator level due to the
//! model's compact design" (§3.4).

use rand::rngs::StdRng;
use rand::Rng;

/// A trainable parameter tensor with gradient and Adam moments.
#[derive(Debug, Clone)]
pub struct Param {
    pub w: Vec<f32>,
    pub g: Vec<f32>,
    pub m: Vec<f32>,
    pub v: Vec<f32>,
}

impl Param {
    /// He-uniform initialization for a parameter with `fan_in` inputs.
    pub fn he(n: usize, fan_in: usize, rng: &mut StdRng) -> Self {
        let bound = (6.0 / fan_in as f32).sqrt();
        let w = (0..n).map(|_| rng.gen_range(-bound..bound)).collect();
        Param {
            w,
            g: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    pub fn zeros(n: usize) -> Self {
        Param {
            w: vec![0.0; n],
            g: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    pub fn len(&self) -> usize {
        self.w.len()
    }

    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    pub fn zero_grad(&mut self) {
        self.g.fill(0.0);
    }
}

/// Fully-connected layer `y = W x + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    pub n_in: usize,
    pub n_out: usize,
    pub weight: Param, // row-major [n_out × n_in]
    pub bias: Param,
    cached_x: Vec<f32>,
}

impl Dense {
    pub fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        Dense {
            n_in,
            n_out,
            weight: Param::he(n_out * n_in, n_in, rng),
            bias: Param::zeros(n_out),
            cached_x: Vec::new(),
        }
    }

    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.n_in);
        self.cached_x = x.to_vec();
        let mut y = self.bias.w.clone();
        for o in 0..self.n_out {
            let row = &self.weight.w[o * self.n_in..(o + 1) * self.n_in];
            let mut acc = 0.0f32;
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            y[o] += acc;
        }
        y
    }

    /// Inference-only forward (no caching) — the hot path of the coupled run.
    pub fn infer(&self, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.n_in);
        debug_assert_eq!(y.len(), self.n_out);
        y.copy_from_slice(&self.bias.w);
        for o in 0..self.n_out {
            let row = &self.weight.w[o * self.n_in..(o + 1) * self.n_in];
            let mut acc = 0.0f32;
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            y[o] += acc;
        }
    }

    pub fn backward(&mut self, grad_y: &[f32]) -> Vec<f32> {
        debug_assert_eq!(grad_y.len(), self.n_out);
        let x = &self.cached_x;
        let mut grad_x = vec![0.0f32; self.n_in];
        for o in 0..self.n_out {
            let gy = grad_y[o];
            self.bias.g[o] += gy;
            let row_w = &self.weight.w[o * self.n_in..(o + 1) * self.n_in];
            let row_g = &mut self.weight.g[o * self.n_in..(o + 1) * self.n_in];
            for i in 0..self.n_in {
                row_g[i] += gy * x[i];
                grad_x[i] += gy * row_w[i];
            }
        }
        grad_x
    }

    pub fn n_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// FLOPs of one forward pass (mul+add per weight).
    pub fn flops(&self) -> u64 {
        2 * (self.n_out as u64) * (self.n_in as u64)
    }
}

/// 1-D convolution over the vertical dimension with "same" (zero) padding —
/// the layer the paper uses "to capture the vertical characteristics of
/// temperature, humidity, and other atmospheric variables" (§3.2.3).
///
/// Data layout: channel-major `[ch × len]`.
///
/// The weight is stored K-major, `[(c_in·ksize) × c_out]`: row `ci·ksize + k`
/// holds tap `k` of input channel `ci` for every output channel, the layout
/// the batched register tile streams (`crate::batch`). Weight files keep the
/// `[c_out × c_in × ksize]` order.
#[derive(Debug, Clone)]
pub struct Conv1d {
    pub c_in: usize,
    pub c_out: usize,
    pub ksize: usize,
    pub len: usize,
    pub weight: Param, // [(c_in·ksize) × c_out]
    pub bias: Param,   // [c_out]
    cached_x: Vec<f32>,
}

impl Conv1d {
    pub fn new(c_in: usize, c_out: usize, ksize: usize, len: usize, rng: &mut StdRng) -> Self {
        assert!(ksize % 2 == 1, "odd kernel for same padding");
        // Drawn in `[c_out × c_in × ksize]` order, so a seed gives the
        // network it always gave, then stored K-major.
        let mut weight = Param::he(c_out * c_in * ksize, c_in * ksize, rng);
        weight.w = transposed(&weight.w, c_out, c_in * ksize);
        Conv1d {
            c_in,
            c_out,
            ksize,
            len,
            weight,
            bias: Param::zeros(c_out),
            cached_x: Vec::new(),
        }
    }

    #[inline]
    fn widx(&self, co: usize, ci: usize, k: usize) -> usize {
        (ci * self.ksize + k) * self.c_out + co
    }

    /// The weight in `[c_out × c_in × ksize]` order — the order weight files
    /// hold.
    pub(crate) fn weight_oik(&self) -> Vec<f32> {
        transposed(&self.weight.w, self.c_in * self.ksize, self.c_out)
    }

    /// Set the weight from `[c_out × c_in × ksize]` order.
    pub(crate) fn set_weight_oik(&mut self, oik: &[f32]) {
        self.weight.w = transposed(oik, self.c_out, self.c_in * self.ksize);
    }

    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        self.cached_x = x.to_vec();
        let mut y = vec![0.0f32; self.c_out * self.len];
        self.infer(x, &mut y);
        y
    }

    pub fn infer(&self, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.c_in * self.len);
        debug_assert_eq!(y.len(), self.c_out * self.len);
        let half = self.ksize / 2;
        for co in 0..self.c_out {
            let yrow = &mut y[co * self.len..(co + 1) * self.len];
            yrow.fill(self.bias.w[co]);
            for ci in 0..self.c_in {
                let xrow = &x[ci * self.len..(ci + 1) * self.len];
                for k in 0..self.ksize {
                    let w = self.weight.w[self.widx(co, ci, k)];
                    // y[p] += w * x[p + k - half] where in range
                    let shift = k as isize - half as isize;
                    let (p_lo, p_hi) = if shift < 0 {
                        ((-shift) as usize, self.len)
                    } else {
                        (0, self.len - shift as usize)
                    };
                    for p in p_lo..p_hi {
                        yrow[p] += w * xrow[(p as isize + shift) as usize];
                    }
                }
            }
        }
    }

    pub fn backward(&mut self, grad_y: &[f32]) -> Vec<f32> {
        let x = &self.cached_x;
        let half = self.ksize / 2;
        let mut grad_x = vec![0.0f32; self.c_in * self.len];
        for co in 0..self.c_out {
            let gy = &grad_y[co * self.len..(co + 1) * self.len];
            self.bias.g[co] += gy.iter().sum::<f32>();
            for ci in 0..self.c_in {
                let xrow = &x[ci * self.len..(ci + 1) * self.len];
                let gx = &mut grad_x[ci * self.len..(ci + 1) * self.len];
                for k in 0..self.ksize {
                    let wi = self.widx(co, ci, k);
                    let w = self.weight.w[wi];
                    let shift = k as isize - half as isize;
                    let (p_lo, p_hi) = if shift < 0 {
                        ((-shift) as usize, self.len)
                    } else {
                        (0, self.len - shift as usize)
                    };
                    let mut gw = 0.0f32;
                    for p in p_lo..p_hi {
                        let xi = xrow[(p as isize + shift) as usize];
                        gw += gy[p] * xi;
                        gx[(p as isize + shift) as usize] += gy[p] * w;
                    }
                    self.weight.g[wi] += gw;
                }
            }
        }
        grad_x
    }

    pub fn n_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    pub fn flops(&self) -> u64 {
        2 * (self.c_out * self.c_in * self.ksize * self.len) as u64
    }
}

/// Row-major `m [rows × cols]` as row-major `[cols × rows]`.
fn transposed(m: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..cols)
        .flat_map(|c| (0..rows).map(move |r| m[r * cols + c]))
        .collect()
}

/// ReLU activation (stateful: caches the mask).
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        self.mask = x.iter().map(|&v| v > 0.0).collect();
        x.iter().map(|&v| v.max(0.0)).collect()
    }

    pub fn infer(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = v.max(0.0);
        }
    }

    pub fn backward(&self, grad_y: &[f32]) -> Vec<f32> {
        grad_y
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect()
    }
}

/// Mean-squared-error loss; returns (loss, dLoss/dPred).
pub fn mse_loss(pred: &[f32], target: &[f32]) -> (f32, Vec<f32>) {
    assert_eq!(pred.len(), target.len());
    let n = pred.len() as f32;
    let mut loss = 0.0f32;
    let grad = pred
        .iter()
        .zip(target)
        .map(|(&p, &t)| {
            let d = p - t;
            loss += d * d;
            2.0 * d / n
        })
        .collect();
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn dense_forward_matches_manual() {
        let mut r = rng();
        let mut d = Dense::new(2, 2, &mut r);
        d.weight.w = vec![1.0, 2.0, 3.0, 4.0];
        d.bias.w = vec![0.5, -0.5];
        let y = d.forward(&[1.0, -1.0]);
        assert_eq!(y, vec![1.0 - 2.0 + 0.5, 3.0 - 4.0 - 0.5]);
    }

    #[test]
    fn dense_infer_matches_forward() {
        let mut r = rng();
        let mut d = Dense::new(7, 5, &mut r);
        let x: Vec<f32> = (0..7).map(|i| i as f32 * 0.3 - 1.0).collect();
        let y1 = d.forward(&x);
        let mut y2 = vec![0.0; 5];
        d.infer(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    /// Finite-difference gradient check for a layer.
    fn check_grad<F: FnMut(&mut [f32]) -> f32>(w: &mut [f32], g: &[f32], mut loss_fn: F) {
        let eps = 1e-3f32;
        for i in (0..w.len()).step_by(w.len().div_ceil(7)) {
            let orig = w[i];
            w[i] = orig + eps;
            let lp = loss_fn(w);
            w[i] = orig - eps;
            let lm = loss_fn(w);
            w[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - g[i]).abs() < 2e-2 * (1.0 + fd.abs().max(g[i].abs())),
                "grad mismatch at {i}: fd {fd} vs analytic {}",
                g[i]
            );
        }
    }

    #[test]
    fn dense_backward_gradient_check() {
        let mut r = rng();
        let mut d = Dense::new(6, 4, &mut r);
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.7).sin()).collect();
        let t: Vec<f32> = (0..4).map(|i| (i as f32 * 0.3).cos()).collect();
        let y = d.forward(&x);
        let (_, gy) = mse_loss(&y, &t);
        d.weight.zero_grad();
        d.bias.zero_grad();
        let gx = d.backward(&gy);

        // weight grads
        let g = d.weight.g.clone();
        let mut d2 = d.clone();
        check_grad(&mut d.weight.w.clone(), &g, |w| {
            d2.weight.w.copy_from_slice(w);
            let y = d2.forward(&x);
            mse_loss(&y, &t).0
        });

        // input grads
        let mut d3 = d.clone();
        let mut xv = x.clone();
        check_grad(&mut xv, &gx, |xx| {
            let y = d3.forward(xx);
            mse_loss(&y, &t).0
        });
    }

    #[test]
    fn conv1d_same_padding_preserves_length() {
        let mut r = rng();
        let mut c = Conv1d::new(3, 5, 3, 30, &mut r);
        let x = vec![0.1f32; 3 * 30];
        let y = c.forward(&x);
        assert_eq!(y.len(), 5 * 30);
    }

    #[test]
    fn conv1d_identity_kernel_passes_signal() {
        let mut r = rng();
        let mut c = Conv1d::new(1, 1, 3, 10, &mut r);
        c.weight.w = vec![0.0, 1.0, 0.0]; // delta at centre
        c.bias.w = vec![0.0];
        let x: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let y = c.forward(&x);
        assert_eq!(y, x);
    }

    #[test]
    fn conv1d_backward_gradient_check() {
        let mut r = rng();
        let mut c = Conv1d::new(2, 3, 3, 8, &mut r);
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let t: Vec<f32> = (0..24).map(|i| (i as f32 * 0.21).cos()).collect();
        let y = c.forward(&x);
        let (_, gy) = mse_loss(&y, &t);
        c.weight.zero_grad();
        c.bias.zero_grad();
        let gx = c.backward(&gy);

        let g = c.weight.g.clone();
        let mut c2 = c.clone();
        check_grad(&mut c.weight.w.clone(), &g, |w| {
            c2.weight.w.copy_from_slice(w);
            let y = c2.forward(&x);
            mse_loss(&y, &t).0
        });

        let mut c3 = c.clone();
        let mut xv = x.clone();
        check_grad(&mut xv, &gx, |xx| {
            let y = c3.forward(xx);
            mse_loss(&y, &t).0
        });
    }

    #[test]
    fn relu_masks_negatives_in_both_directions() {
        let mut r = Relu::default();
        let y = r.forward(&[-1.0, 2.0, -3.0, 4.0]);
        assert_eq!(y, vec![0.0, 2.0, 0.0, 4.0]);
        let g = r.backward(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(g, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn mse_loss_gradient_is_correct() {
        let (l, g) = mse_loss(&[1.0, 2.0], &[0.0, 0.0]);
        assert!((l - 2.5).abs() < 1e-6);
        assert_eq!(g, vec![1.0, 2.0]);
    }
}
