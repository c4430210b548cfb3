//! Minimal neural-network building blocks: parameters with gradient and
//! Adam moment storage, dense and 1-D convolution layers with hand-written
//! forward/backward passes, and the ReLU activation. The layers are
//! stateless: `infer` is the one forward pass and `backward` takes the input
//! it read, so a network's training step backpropagates through the
//! activation planes its inference computes.
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
}

impl Dense {
    pub fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        Dense {
            n_in,
            n_out,
            weight: Param::he(n_out * n_in, n_in, rng),
            bias: Param::zeros(n_out),
        }
    }

    /// The forward pass `y = W x + b`.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.n_in);
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

    /// Accumulate the parameter gradients of the forward pass that read `x`
    /// and return the gradient with respect to `x`.
    pub fn backward(&mut self, x: &[f32], grad_y: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.n_in);
        debug_assert_eq!(grad_y.len(), self.n_out);
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

    /// The forward pass: `y [c_out × len]` from `x [c_in × len]`.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.c_in * self.len);
        let mut y = vec![0.0f32; self.c_out * self.len];
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
        y
    }

    /// See [`Dense::backward`].
    pub fn backward(&mut self, x: &[f32], grad_y: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.c_in * self.len);
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

/// ReLU in place: `x ← max(x, 0)` (a NaN becomes 0).
pub(crate) fn relu(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = v.max(0.0);
    }
}

/// ReLU's backward pass in place, masked by the forward *output* `y`:
/// `y > 0` holds exactly where the input was `> 0` (a NaN input gave 0).
pub(crate) fn relu_backward(y: &[f32], grad: &mut [f32]) {
    debug_assert_eq!(y.len(), grad.len());
    for (g, &v) in grad.iter_mut().zip(y) {
        *g = if v > 0.0 { *g } else { 0.0 };
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
    fn dense_infer_matches_manual() {
        let mut r = rng();
        let mut d = Dense::new(2, 2, &mut r);
        d.weight.w = vec![1.0, 2.0, 3.0, 4.0];
        d.bias.w = vec![0.5, -0.5];
        let y = d.infer(&[1.0, -1.0]);
        assert_eq!(y, vec![1.0 - 2.0 + 0.5, 3.0 - 4.0 - 0.5]);
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
        let (_, gy) = mse_loss(&d.infer(&x), &t);
        d.weight.zero_grad();
        d.bias.zero_grad();
        let gx = d.backward(&x, &gy);

        // weight grads
        let g = d.weight.g.clone();
        let mut d2 = d.clone();
        check_grad(&mut d.weight.w.clone(), &g, |w| {
            d2.weight.w.copy_from_slice(w);
            mse_loss(&d2.infer(&x), &t).0
        });

        // input grads
        let mut xv = x.clone();
        check_grad(&mut xv, &gx, |xx| mse_loss(&d.infer(xx), &t).0);
    }

    #[test]
    fn conv1d_same_padding_preserves_length() {
        let mut r = rng();
        let c = Conv1d::new(3, 5, 3, 30, &mut r);
        let x = vec![0.1f32; 3 * 30];
        assert_eq!(c.infer(&x).len(), 5 * 30);
    }

    #[test]
    fn conv1d_identity_kernel_passes_signal() {
        let mut r = rng();
        let mut c = Conv1d::new(1, 1, 3, 10, &mut r);
        c.weight.w = vec![0.0, 1.0, 0.0]; // delta at centre
        c.bias.w = vec![0.0];
        let x: Vec<f32> = (0..10).map(|i| i as f32).collect();
        assert_eq!(c.infer(&x), x);
    }

    #[test]
    fn conv1d_backward_gradient_check() {
        let mut r = rng();
        let mut c = Conv1d::new(2, 3, 3, 8, &mut r);
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let t: Vec<f32> = (0..24).map(|i| (i as f32 * 0.21).cos()).collect();
        let (_, gy) = mse_loss(&c.infer(&x), &t);
        c.weight.zero_grad();
        c.bias.zero_grad();
        let gx = c.backward(&x, &gy);

        let g = c.weight.g.clone();
        let mut c2 = c.clone();
        check_grad(&mut c.weight.w.clone(), &g, |w| {
            c2.weight.w.copy_from_slice(w);
            mse_loss(&c2.infer(&x), &t).0
        });

        let mut xv = x.clone();
        check_grad(&mut xv, &gx, |xx| mse_loss(&c.infer(xx), &t).0);
    }

    #[test]
    fn relu_masks_negatives_in_both_directions() {
        let mut y = vec![-1.0, 2.0, -3.0, 4.0, f32::NAN, 0.0];
        relu(&mut y);
        assert_eq!(y, vec![0.0, 2.0, 0.0, 4.0, 0.0, 0.0]);
        let mut g = vec![1.0; 6];
        relu_backward(&y, &mut g);
        assert_eq!(g, vec![0.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn mse_loss_gradient_is_correct() {
        let (l, g) = mse_loss(&[1.0, 2.0], &[0.0, 0.0]);
        assert!((l - 2.5).abs() < 1e-6);
        assert_eq!(g, vec![1.0, 2.0]);
    }
}
