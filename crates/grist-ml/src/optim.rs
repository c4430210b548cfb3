//! The Adam optimizer. It owns the whole training state of one network —
//! each tensor's accumulated gradient and its two moments, in the network's
//! file order — so the network itself holds weights only.

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// L2 weight decay (decoupled, AdamW-style).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam's state for one network: per tensor, in file order, the gradient
/// accumulated since the last step and the first and second moments.
#[derive(Debug, Clone)]
pub struct Adam {
    pub cfg: AdamConfig,
    /// Step counter for bias correction.
    t: u64,
    grads: Vec<Vec<f32>>,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Zero gradients and moments for tensors of lengths `lens`, the
    /// network's tensors in file order (`tensor_lens()` on either network).
    pub fn new(cfg: AdamConfig, lens: impl IntoIterator<Item = usize>) -> Self {
        let grads: Vec<Vec<f32>> = lens.into_iter().map(|n| vec![0.0; n]).collect();
        Adam {
            cfg,
            t: 0,
            m: grads.clone(),
            v: grads.clone(),
            grads,
        }
    }

    /// Every tensor's gradient, in file order. A network's `train_sample`
    /// adds into these; [`Self::step`] consumes and clears them.
    pub(crate) fn grads_mut(&mut self) -> &mut [Vec<f32>] {
        &mut self.grads
    }

    /// One update of every tensor in `weights` (file order, one per
    /// gradient) from its accumulated gradient; clears the gradients.
    pub fn step<'a>(&mut self, weights: impl IntoIterator<Item = &'a mut [f32]>) {
        self.t += 1;
        let c = &self.cfg;
        let t = self.t as i32;
        let bc1 = 1.0 - c.beta1.powi(t);
        let bc2 = 1.0 - c.beta2.powi(t);
        let mut weights = weights.into_iter();
        for ((g, m), v) in self.grads.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            let w = weights.next().expect("one weight tensor per gradient");
            assert_eq!(w.len(), g.len(), "weight tensor length");
            for i in 0..w.len() {
                let g = g[i] + c.weight_decay * w[i];
                m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * g;
                v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * g * g;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                w[i] -= c.lr * mhat / (vhat.sqrt() + c.eps);
            }
            g.fill(0.0);
        }
        assert!(
            weights.next().is_none(),
            "more weight tensors than gradients"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // min (w-3)², starting at 0.
        let mut w = [0.0f32];
        let mut opt = Adam::new(AdamConfig::default(), [1]);
        opt.cfg.lr = 0.1;
        for _ in 0..500 {
            opt.grads_mut()[0][0] = 2.0 * (w[0] - 3.0);
            opt.step([&mut w[..]]);
        }
        assert!((w[0] - 3.0).abs() < 1e-2, "w = {}", w[0]);
    }

    #[test]
    fn adam_clears_gradients_after_update() {
        let mut w = [0.0f32; 4];
        let mut opt = Adam::new(AdamConfig::default(), [4]);
        opt.grads_mut()[0].fill(1.0);
        opt.step([&mut w[..]]);
        assert!(opt.grads_mut()[0].iter().all(|&g| g == 0.0));
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut w = [1.0f32];
        let mut opt = Adam::new(AdamConfig::default(), [1]);
        (opt.cfg.lr, opt.cfg.weight_decay) = (0.05, 1.0);
        for _ in 0..200 {
            opt.step([&mut w[..]]); // zero loss gradient; only decay acts
        }
        assert!(w[0].abs() < 0.1, "w = {}", w[0]);
    }

    #[test]
    fn first_step_bias_correction_keeps_magnitude_near_lr() {
        let mut w = [0.0f32];
        let mut opt = Adam::new(AdamConfig::default(), [1]);
        opt.cfg.lr = 0.01;
        opt.grads_mut()[0][0] = 1e-4; // tiny gradient
        opt.step([&mut w[..]]);
        // Bias-corrected Adam's first step has magnitude ≈ lr regardless of
        // gradient scale.
        assert!((w[0].abs() - 0.01).abs() < 1e-3, "step = {}", w[0]);
    }
}
