//! Minimal neural-network building blocks: dense and 1-D convolution layers
//! that hold their weights and biases as plain vectors, with hand-written
//! forward/backward passes, and the ReLU activation. The layers are
//! stateless: `infer` is the one forward pass and `backward` takes the input
//! it read and adds into the gradient slices it is handed, so a network's
//! training step backpropagates through the activation planes its inference
//! computes, and the gradients and optimizer moments live in the optimizer
//! ([`crate::optim::Adam`]), never in a layer.
//!
//! The paper's ML physics suite is deliberately compact — an 11-layer 1-D CNN
//! (~0.5 M parameters) and a 7-layer MLP — so a small, dependency-free,
//! layer-wise backprop implementation is both sufficient and easy to audit.
//! All compute is `f32`: "exploiting a mixed-precision scheme for ML-based
//! parameterizations is straightforward at the operator level due to the
//! model's compact design" (§3.4).

use rand::rngs::StdRng;
use rand::Rng;

/// `n` He-uniform weights for a layer with `fan_in` inputs.
fn he(n: usize, fan_in: usize, rng: &mut StdRng) -> Vec<f32> {
    let bound = (6.0 / fan_in as f32).sqrt();
    (0..n).map(|_| rng.gen_range(-bound..bound)).collect()
}

/// Fully-connected layer `y = W x + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    pub n_in: usize,
    pub n_out: usize,
    pub weight: Vec<f32>, // row-major [n_out × n_in]
    pub bias: Vec<f32>,
}

impl Dense {
    /// He-initialised weights, zero bias.
    pub fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        Self::from_weights(n_in, n_out, he(n_out * n_in, n_in, rng), vec![0.0; n_out])
    }

    /// The layer with `weight [n_out × n_in]` and `bias [n_out]`.
    pub(crate) fn from_weights(
        n_in: usize,
        n_out: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
    ) -> Self {
        assert_eq!(weight.len(), n_out * n_in, "dense weight length");
        assert_eq!(bias.len(), n_out, "dense bias length");
        Dense {
            n_in,
            n_out,
            weight,
            bias,
        }
    }

    /// The forward pass `y = W x + b`.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.n_in);
        let mut y = self.bias.clone();
        for o in 0..self.n_out {
            let row = &self.weight[o * self.n_in..(o + 1) * self.n_in];
            let mut acc = 0.0f32;
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            y[o] += acc;
        }
        y
    }

    /// Add the weight and bias gradients of the forward pass that read `x`
    /// into `grad_w` and `grad_b` (laid out as `weight` and `bias`) and
    /// return the gradient with respect to `x`.
    pub fn backward(
        &self,
        x: &[f32],
        grad_y: &[f32],
        [grad_w, grad_b]: [&mut [f32]; 2],
    ) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.n_in);
        debug_assert_eq!(grad_y.len(), self.n_out);
        debug_assert_eq!(grad_w.len(), self.weight.len());
        let mut grad_x = vec![0.0f32; self.n_in];
        for o in 0..self.n_out {
            let gy = grad_y[o];
            grad_b[o] += gy;
            let row_w = &self.weight[o * self.n_in..(o + 1) * self.n_in];
            let row_g = &mut grad_w[o * self.n_in..(o + 1) * self.n_in];
            for i in 0..self.n_in {
                row_g[i] += gy * x[i];
                grad_x[i] += gy * row_w[i];
            }
        }
        grad_x
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
    pub weight: Vec<f32>, // [(c_in·ksize) × c_out]
    pub bias: Vec<f32>,   // [c_out]
}

impl Conv1d {
    /// He-initialised weights, zero bias. The weights are drawn in
    /// `[c_out × c_in × ksize]` order, so a seed gives the network it
    /// always gave.
    pub fn new(c_in: usize, c_out: usize, ksize: usize, len: usize, rng: &mut StdRng) -> Self {
        let weight = he(c_out * c_in * ksize, c_in * ksize, rng);
        Self::from_weights(c_in, c_out, ksize, len, &weight, vec![0.0; c_out])
    }

    /// The layer with weight `oik` in `[c_out × c_in × ksize]` order (the
    /// order weight files hold), stored K-major, and `bias [c_out]`.
    pub(crate) fn from_weights(
        c_in: usize,
        c_out: usize,
        ksize: usize,
        len: usize,
        oik: &[f32],
        bias: Vec<f32>,
    ) -> Self {
        assert!(ksize % 2 == 1, "odd kernel for same padding");
        assert_eq!(oik.len(), c_out * c_in * ksize, "conv weight length");
        assert_eq!(bias.len(), c_out, "conv bias length");
        Conv1d {
            c_in,
            c_out,
            ksize,
            len,
            weight: transposed(oik, c_out, c_in * ksize),
            bias,
        }
    }

    #[inline]
    fn widx(&self, co: usize, ci: usize, k: usize) -> usize {
        (ci * self.ksize + k) * self.c_out + co
    }

    /// Tap `k`'s shift `k − ksize/2`, and the output positions `p` whose
    /// input `p + shift` lies inside the column.
    fn tap(&self, k: usize) -> (isize, std::ops::Range<usize>) {
        let shift = k as isize - (self.ksize / 2) as isize;
        let ps = (-shift).max(0) as usize..self.len - shift.max(0) as usize;
        (shift, ps)
    }

    /// The weight in `[c_out × c_in × ksize]` order — the order weight files
    /// hold.
    pub(crate) fn weight_oik(&self) -> Vec<f32> {
        transposed(&self.weight, self.c_in * self.ksize, self.c_out)
    }

    /// The forward pass: `y [c_out × len]` from `x [c_in × len]`.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.c_in * self.len);
        let mut y = vec![0.0f32; self.c_out * self.len];
        for co in 0..self.c_out {
            let yrow = &mut y[co * self.len..(co + 1) * self.len];
            yrow.fill(self.bias[co]);
            for ci in 0..self.c_in {
                let xrow = &x[ci * self.len..(ci + 1) * self.len];
                for k in 0..self.ksize {
                    let w = self.weight[self.widx(co, ci, k)];
                    // y[p] += w * x[p + k - half] where in range
                    let (shift, ps) = self.tap(k);
                    for p in ps {
                        yrow[p] += w * xrow[(p as isize + shift) as usize];
                    }
                }
            }
        }
        y
    }

    /// See [`Dense::backward`]; `grad_w` is K-major, as `weight` is.
    pub fn backward(
        &self,
        x: &[f32],
        grad_y: &[f32],
        [grad_w, grad_b]: [&mut [f32]; 2],
    ) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.c_in * self.len);
        debug_assert_eq!(grad_w.len(), self.weight.len());
        let mut grad_x = vec![0.0f32; self.c_in * self.len];
        for co in 0..self.c_out {
            let gy = &grad_y[co * self.len..(co + 1) * self.len];
            grad_b[co] += gy.iter().sum::<f32>();
            for ci in 0..self.c_in {
                let xrow = &x[ci * self.len..(ci + 1) * self.len];
                let gx = &mut grad_x[ci * self.len..(ci + 1) * self.len];
                for k in 0..self.ksize {
                    let wi = self.widx(co, ci, k);
                    let w = self.weight[wi];
                    let (shift, ps) = self.tap(k);
                    let mut gw = 0.0f32;
                    for p in ps {
                        let xi = xrow[(p as isize + shift) as usize];
                        gw += gy[p] * xi;
                        gx[(p as isize + shift) as usize] += gy[p] * w;
                    }
                    grad_w[wi] += gw;
                }
            }
        }
        grad_x
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
        d.weight = vec![1.0, 2.0, 3.0, 4.0];
        d.bias = vec![0.5, -0.5];
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
        let d = Dense::new(6, 4, &mut r);
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.7).sin()).collect();
        let t: Vec<f32> = (0..4).map(|i| (i as f32 * 0.3).cos()).collect();
        let (_, gy) = mse_loss(&d.infer(&x), &t);
        let (mut g, mut gb) = (vec![0.0; d.weight.len()], vec![0.0; d.n_out]);
        let gx = d.backward(&x, &gy, [&mut g, &mut gb]);

        // weight grads
        let mut d2 = d.clone();
        check_grad(&mut d.weight.clone(), &g, |w| {
            d2.weight.copy_from_slice(w);
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
        c.weight = vec![0.0, 1.0, 0.0]; // delta at centre
        c.bias = vec![0.0];
        let x: Vec<f32> = (0..10).map(|i| i as f32).collect();
        assert_eq!(c.infer(&x), x);
    }

    #[test]
    fn conv1d_backward_gradient_check() {
        let mut r = rng();
        let c = Conv1d::new(2, 3, 3, 8, &mut r);
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let t: Vec<f32> = (0..24).map(|i| (i as f32 * 0.21).cos()).collect();
        let (_, gy) = mse_loss(&c.infer(&x), &t);
        let (mut g, mut gb) = (vec![0.0; c.weight.len()], vec![0.0; c.c_out]);
        let gx = c.backward(&x, &gy, [&mut g, &mut gb]);

        let mut c2 = c.clone();
        check_grad(&mut c.weight.clone(), &g, |w| {
            c2.weight.copy_from_slice(w);
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
