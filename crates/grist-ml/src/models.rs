//! The two networks of the ML-based physics suite (§3.2.3):
//!
//! * [`TendencyCnn`] — "one-dimensional convolutional layers to capture the
//!   vertical characteristics of temperature, humidity, and other
//!   atmospheric variables … five ResUnits, culminating in an 11-layer deep
//!   CNN with a parameter count close to half a million", predicting the Q1
//!   and Q2 profiles from (U, V, T, Q, P) profiles.
//! * [`RadiationMlp`] — "a 7-layer Multilayer Perceptron with residual
//!   connections" predicting surface downward shortwave (`gsw`) and longwave
//!   (`glw`) radiation, with `tskin` and `coszr` appended to the inputs "to
//!   provide physical features of the model top insolation and surface
//!   state".

use crate::batch::ColumnScratch;
use crate::io::{
    check_magic, read_f32_vec, read_norm_pairs, read_u64, write_f32_slice, write_magic,
    write_norm_pairs, write_u64, KIND_CNN, KIND_MLP,
};
use crate::optim::Adam;
use crate::tensor::{mse_loss, Conv1d, Dense, Relu};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};

/// Number of input channels of the tendency CNN: U, V, T, Q, P.
pub const CNN_INPUT_CHANNELS: usize = 5;
/// Number of output channels: Q1 (heating) and Q2 (moistening).
pub const CNN_OUTPUT_CHANNELS: usize = 2;

/// One residual unit: conv → ReLU → conv, added to the input.
#[derive(Debug, Clone)]
pub(crate) struct ResUnit {
    pub(crate) conv1: Conv1d,
    relu: Relu,
    pub(crate) conv2: Conv1d,
}

impl ResUnit {
    fn new(ch: usize, nlev: usize, rng: &mut StdRng) -> Self {
        ResUnit {
            conv1: Conv1d::new(ch, ch, 3, nlev, rng),
            relu: Relu::default(),
            conv2: Conv1d::new(ch, ch, 3, nlev, rng),
        }
    }

    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        let h = self.conv1.forward(x);
        let h = self.relu.forward(&h);
        let h = self.conv2.forward(&h);
        h.iter().zip(x).map(|(a, b)| a + b).collect()
    }

    fn infer(&self, x: &[f32], h1: &mut [f32], h2: &mut [f32]) {
        self.conv1.infer(x, h1);
        Relu::infer(h1);
        self.conv2.infer(h1, h2);
        for (o, &xi) in h2.iter_mut().zip(x) {
            *o += xi;
        }
    }

    fn backward(&mut self, grad: &[f32]) -> Vec<f32> {
        let g = self.conv2.backward(grad);
        let g = self.relu.backward(&g);
        let mut gx = self.conv1.backward(&g);
        for (a, b) in gx.iter_mut().zip(grad) {
            *a += b; // residual skip path
        }
        gx
    }
}

/// The 11-layer tendency CNN (input conv + 5 ResUnits + output conv).
#[derive(Debug, Clone)]
pub struct TendencyCnn {
    pub nlev: usize,
    pub channels: usize,
    pub(crate) input: Conv1d,
    input_relu: Relu,
    pub(crate) res: Vec<ResUnit>,
    pub(crate) output: Conv1d,
    /// Per-channel input normalization (mean, 1/std) — fit on training data.
    pub in_norm: Vec<(f32, f32)>,
    /// Per-channel output denormalization (mean, std).
    pub out_norm: Vec<(f32, f32)>,
}

impl TendencyCnn {
    /// Build with `channels` hidden width. `channels = 128` gives ≈ 0.5 M
    /// parameters at any `nlev`, matching the paper.
    pub fn new(nlev: usize, channels: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        TendencyCnn {
            nlev,
            channels,
            input: Conv1d::new(CNN_INPUT_CHANNELS, channels, 3, nlev, &mut rng),
            input_relu: Relu::default(),
            res: (0..5)
                .map(|_| ResUnit::new(channels, nlev, &mut rng))
                .collect(),
            // 1×1 per-level linear readout head (not counted among the
            // "11-layer deep CNN" k=3 convolution layers).
            output: Conv1d::new(channels, CNN_OUTPUT_CHANNELS, 1, nlev, &mut rng),
            in_norm: vec![(0.0, 1.0); CNN_INPUT_CHANNELS],
            out_norm: vec![(0.0, 1.0); CNN_OUTPUT_CHANNELS],
        }
    }

    /// Total trainable parameters.
    pub fn n_params(&self) -> usize {
        self.input.n_params()
            + self
                .res
                .iter()
                .map(|r| r.conv1.n_params() + r.conv2.n_params())
                .sum::<usize>()
            + self.output.n_params()
    }

    /// Deep (k = 3) conv layers in the network — the paper's "11-layer deep
    /// CNN": one input conv plus two per ResUnit; the 1×1 readout head is a
    /// linear projection, not a deep layer.
    pub fn n_conv_layers(&self) -> usize {
        1 + 2 * self.res.len()
    }

    /// FLOPs of one forward (inference) pass.
    pub fn flops(&self) -> u64 {
        self.input.flops()
            + self
                .res
                .iter()
                .map(|r| r.conv1.flops() + r.conv2.flops())
                .sum::<u64>()
            + self.output.flops()
    }

    /// Normalize a raw `[5 × nlev]` input in place.
    pub fn normalize_input(&self, x: &mut [f32]) {
        for ch in 0..CNN_INPUT_CHANNELS {
            let (mu, inv_sd) = self.in_norm[ch];
            for v in &mut x[ch * self.nlev..(ch + 1) * self.nlev] {
                *v = (*v - mu) * inv_sd;
            }
        }
    }

    /// Denormalize a `[2 × nlev]` network output in place.
    pub fn denormalize_output(&self, y: &mut [f32]) {
        for ch in 0..CNN_OUTPUT_CHANNELS {
            let (mu, sd) = self.out_norm[ch];
            for v in &mut y[ch * self.nlev..(ch + 1) * self.nlev] {
                *v = *v * sd + mu;
            }
        }
    }

    /// Training forward pass on a *normalized* input.
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        let h = self.input.forward(x);
        let mut h = self.input_relu.forward(&h);
        for r in &mut self.res {
            h = r.forward(&h);
        }
        self.output.forward(&h)
    }

    /// Inference on a normalized input, writing the normalized output.
    ///
    /// Convenience wrapper over [`Self::infer_into`] that allocates fresh
    /// scratch — fine for one-off calls; hot loops should hold a
    /// [`ColumnScratch`] (or batch with
    /// [`Self::infer_batch`](crate::batch)) instead.
    pub fn infer(&self, x: &[f32], y: &mut [f32]) {
        let mut scratch = ColumnScratch::new();
        self.infer_into(x, y, &mut scratch);
    }

    /// Inference on a normalized input using caller-provided scratch: no
    /// allocations once `scratch` has warmed up.
    pub fn infer_into(&self, x: &[f32], y: &mut [f32], scratch: &mut ColumnScratch) {
        let n = self.channels * self.nlev;
        let (mut a, b, mut c) = scratch.planes(n);
        self.input.infer(x, a);
        Relu::infer(a);
        for r in &self.res {
            r.infer(a, b, c);
            std::mem::swap(&mut a, &mut c);
        }
        self.output.infer(a, y);
    }

    /// One SGD sample: forward, MSE vs `target` (normalized), backward.
    /// Returns the loss. Gradients accumulate until the optimizer step.
    pub fn train_sample(&mut self, x: &[f32], target: &[f32]) -> f32 {
        let y = self.forward(x);
        let (loss, gy) = mse_loss(&y, target);
        let g = self.output.backward(&gy);
        let mut g = g;
        for r in self.res.iter_mut().rev() {
            g = r.backward(&g);
        }
        let g = self.input_relu.backward(&g);
        self.input.backward(&g);
        loss
    }

    /// Apply one optimizer step to every parameter.
    pub fn optimizer_step(&mut self, opt: &mut Adam) {
        opt.begin_step();
        opt.update(&mut self.input.weight);
        opt.update(&mut self.input.bias);
        for r in &mut self.res {
            opt.update(&mut r.conv1.weight);
            opt.update(&mut r.conv1.bias);
            opt.update(&mut r.conv2.weight);
            opt.update(&mut r.conv2.bias);
        }
        opt.update(&mut self.output.weight);
        opt.update(&mut self.output.bias);
    }

    /// Every conv layer in file order: input, each ResUnit's two, output.
    fn convs_mut(&mut self) -> Vec<&mut Conv1d> {
        let mut v = vec![&mut self.input];
        for r in &mut self.res {
            v.push(&mut r.conv1);
            v.push(&mut r.conv2);
        }
        v.push(&mut self.output);
        v
    }

    /// Serialize architecture, weights and normalization to a writer. Each
    /// conv writes its weight in `[c_out × c_in × ksize]` order, then its
    /// bias.
    pub fn save_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write_magic(w, KIND_CNN)?;
        write_u64(w, self.nlev as u64)?;
        write_u64(w, self.channels as u64)?;
        write_norm_pairs(w, &self.in_norm)?;
        write_norm_pairs(w, &self.out_norm)?;
        let res = self.res.iter().flat_map(|r| [&r.conv1, &r.conv2]);
        for conv in [&self.input].into_iter().chain(res).chain([&self.output]) {
            write_f32_slice(w, &conv.weight_oik())?;
            write_f32_slice(w, &conv.bias.w)?;
        }
        Ok(())
    }

    /// Deserialize a model saved with [`Self::save_to`].
    pub fn load_from(r: &mut impl Read) -> std::io::Result<TendencyCnn> {
        check_magic(r, KIND_CNN)?;
        let nlev = read_u64(r)? as usize;
        let channels = read_u64(r)? as usize;
        let mut net = TendencyCnn::new(nlev, channels, 0);
        net.in_norm = read_norm_pairs(r)?;
        net.out_norm = read_norm_pairs(r)?;
        let read_sized = |r: &mut _, want: usize| {
            let loaded = read_f32_vec(r)?;
            if loaded.len() != want {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("tensor size mismatch: {} vs {want}", loaded.len()),
                ));
            }
            Ok(loaded)
        };
        for conv in net.convs_mut() {
            let weight = read_sized(r, conv.weight.len())?;
            conv.set_weight_oik(&weight);
            conv.bias.w = read_sized(r, conv.bias.len())?;
        }
        Ok(net)
    }
}

/// The 7-layer residual MLP for the surface diagnostics — primarily the
/// radiation pair (`gsw`, `glw`) of §3.2.3, with optional extra outputs
/// (e.g. surface precipitation) for the diagnostic module.
#[derive(Debug, Clone)]
pub struct RadiationMlp {
    pub n_in: usize,
    pub n_out: usize,
    pub width: usize,
    pub(crate) input: Dense,
    pub(crate) hidden: Vec<Dense>, // 5 hidden layers with residual skips
    pub(crate) output: Dense,
    relus: Vec<Relu>,
    pub in_norm: Vec<(f32, f32)>,
    /// (mean, std) per output (gsw, glw, …).
    pub out_norm: Vec<(f32, f32)>,
}

impl RadiationMlp {
    /// `n_in` = flattened input length (e.g. T and Q profiles + tskin +
    /// coszr); two outputs (gsw, glw) as in the paper.
    pub fn new(n_in: usize, width: usize, seed: u64) -> Self {
        Self::with_outputs(n_in, 2, width, seed)
    }

    /// Variant with `n_out` diagnostic outputs.
    pub fn with_outputs(n_in: usize, n_out: usize, width: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        RadiationMlp {
            n_in,
            n_out,
            width,
            input: Dense::new(n_in, width, &mut rng),
            hidden: (0..5).map(|_| Dense::new(width, width, &mut rng)).collect(),
            output: Dense::new(width, n_out, &mut rng),
            relus: (0..6).map(|_| Relu::default()).collect(),
            in_norm: vec![(0.0, 1.0); n_in],
            out_norm: vec![(0.0, 1.0); n_out],
        }
    }

    /// Dense layers in the network (the paper's "7-layer MLP").
    pub fn n_layers(&self) -> usize {
        2 + self.hidden.len()
    }

    pub fn n_params(&self) -> usize {
        self.input.n_params()
            + self.hidden.iter().map(|h| h.n_params()).sum::<usize>()
            + self.output.n_params()
    }

    pub fn flops(&self) -> u64 {
        self.input.flops()
            + self.hidden.iter().map(|h| h.flops()).sum::<u64>()
            + self.output.flops()
    }

    pub fn normalize_input(&self, x: &mut [f32]) {
        for (v, &(mu, inv_sd)) in x.iter_mut().zip(&self.in_norm) {
            *v = (*v - mu) * inv_sd;
        }
    }

    pub fn denormalize_output(&self, y: &mut [f32]) {
        for (v, &(mu, sd)) in y.iter_mut().zip(&self.out_norm) {
            *v = *v * sd + mu;
        }
    }

    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        let h = self.input.forward(x);
        let mut h = self.relus[0].forward(&h);
        for (i, layer) in self.hidden.iter_mut().enumerate() {
            let z = layer.forward(&h);
            let z = self.relus[i + 1].forward(&z);
            // residual skip
            h = z.iter().zip(&h).map(|(a, b)| a + b).collect();
        }
        self.output.forward(&h)
    }

    /// Inference returning the diagnostics in normalized space.
    ///
    /// Convenience wrapper over [`Self::infer_into`] that allocates fresh
    /// scratch and an output Vec per call — hot loops should hold a
    /// [`ColumnScratch`] or batch instead.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        let mut scratch = ColumnScratch::new();
        let mut out = vec![0.0f32; self.n_out];
        self.infer_into(x, &mut out, &mut scratch);
        out
    }

    /// Inference writing the normalized diagnostics into `y` using
    /// caller-provided scratch: no allocations once `scratch` has warmed up.
    pub fn infer_into(&self, x: &[f32], y: &mut [f32], scratch: &mut ColumnScratch) {
        debug_assert_eq!(y.len(), self.n_out);
        let (h, z, _) = scratch.planes(self.width);
        self.input.infer(x, h);
        Relu::infer(h);
        for layer in &self.hidden {
            layer.infer(h, z);
            Relu::infer(z);
            for (a, b) in h.iter_mut().zip(z.iter()) {
                *a += b;
            }
        }
        self.output.infer(h, y);
    }

    pub fn train_sample(&mut self, x: &[f32], target: &[f32]) -> f32 {
        let y = self.forward(x);
        let (loss, gy) = mse_loss(&y, target);
        let mut g = self.output.backward(&gy);
        for (i, layer) in self.hidden.iter_mut().enumerate().rev() {
            // Residual block: h_out = relu(layer(h_in)) + h_in, so the
            // gradient reaching h_in is the skip-path gradient plus the
            // gradient back-propagated through relu∘layer.
            let gz = self.relus[i + 1].backward(&g);
            let g_layer = layer.backward(&gz);
            for (a, b) in g.iter_mut().zip(&g_layer) {
                *a += b;
            }
        }
        let g = self.relus[0].backward(&g);
        self.input.backward(&g);
        loss
    }

    pub fn optimizer_step(&mut self, opt: &mut Adam) {
        opt.begin_step();
        opt.update(&mut self.input.weight);
        opt.update(&mut self.input.bias);
        for h in &mut self.hidden {
            opt.update(&mut h.weight);
            opt.update(&mut h.bias);
        }
        opt.update(&mut self.output.weight);
        opt.update(&mut self.output.bias);
    }

    fn param_tensors(&self) -> Vec<&[f32]> {
        let mut v: Vec<&[f32]> = vec![&self.input.weight.w, &self.input.bias.w];
        for h in &self.hidden {
            v.push(&h.weight.w);
            v.push(&h.bias.w);
        }
        v.push(&self.output.weight.w);
        v.push(&self.output.bias.w);
        v
    }

    fn param_tensors_mut(&mut self) -> Vec<&mut Vec<f32>> {
        let mut v: Vec<&mut Vec<f32>> = vec![&mut self.input.weight.w, &mut self.input.bias.w];
        for h in &mut self.hidden {
            v.push(&mut h.weight.w);
            v.push(&mut h.bias.w);
        }
        v.push(&mut self.output.weight.w);
        v.push(&mut self.output.bias.w);
        v
    }

    /// Serialize architecture, weights and normalization to a writer.
    pub fn save_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write_magic(w, KIND_MLP)?;
        write_u64(w, self.n_in as u64)?;
        write_u64(w, self.n_out as u64)?;
        write_u64(w, self.width as u64)?;
        write_norm_pairs(w, &self.in_norm)?;
        write_norm_pairs(w, &self.out_norm)?;
        for t in self.param_tensors() {
            write_f32_slice(w, t)?;
        }
        Ok(())
    }

    /// Deserialize a model saved with [`Self::save_to`].
    pub fn load_from(r: &mut impl Read) -> std::io::Result<RadiationMlp> {
        check_magic(r, KIND_MLP)?;
        let n_in = read_u64(r)? as usize;
        let n_out = read_u64(r)? as usize;
        let width = read_u64(r)? as usize;
        let mut net = RadiationMlp::with_outputs(n_in, n_out, width, 0);
        net.in_norm = read_norm_pairs(r)?;
        net.out_norm = read_norm_pairs(r)?;
        for t in net.param_tensors_mut() {
            let loaded = read_f32_vec(r)?;
            if loaded.len() != t.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "tensor size mismatch",
                ));
            }
            *t = loaded;
        }
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamConfig;

    #[test]
    fn cnn_matches_paper_architecture() {
        let net = TendencyCnn::new(30, 128, 7);
        assert_eq!(net.n_conv_layers(), 11, "paper: 11-layer deep CNN");
        let p = net.n_params();
        assert!(
            (400_000..600_000).contains(&p),
            "paper: parameter count close to half a million; got {p}"
        );
    }

    #[test]
    fn mlp_matches_paper_architecture() {
        let net = RadiationMlp::new(62, 128, 7);
        assert_eq!(net.n_layers(), 7, "paper: 7-layer MLP");
    }

    #[test]
    fn cnn_infer_matches_forward() {
        let mut net = TendencyCnn::new(10, 16, 3);
        let x: Vec<f32> = (0..5 * 10).map(|i| (i as f32 * 0.13).sin()).collect();
        let y1 = net.forward(&x);
        let mut y2 = vec![0.0f32; 2 * 10];
        net.infer(&x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn mlp_infer_matches_forward() {
        let mut net = RadiationMlp::new(12, 16, 3);
        let x: Vec<f32> = (0..12).map(|i| (i as f32 * 0.3).cos()).collect();
        let y1 = net.forward(&x);
        let y2 = net.infer(&x);
        assert!((y1[0] - y2[0]).abs() < 1e-5);
        assert!((y1[1] - y2[1]).abs() < 1e-5);
        assert_eq!(y2.len(), 2);
    }

    #[test]
    fn cnn_can_learn_a_simple_mapping() {
        // Learn y = smoothed(-x) for channel 0: loss must fall sharply.
        let mut net = TendencyCnn::new(8, 8, 42);
        let mut opt = Adam::new(AdamConfig {
            lr: 3e-3,
            ..Default::default()
        });
        let samples: Vec<(Vec<f32>, Vec<f32>)> = (0..32)
            .map(|s| {
                let x: Vec<f32> = (0..5 * 8).map(|i| ((i + s) as f32 * 0.41).sin()).collect();
                let mut y = vec![0.0f32; 2 * 8];
                for k in 0..8 {
                    y[k] = -x[2 * 8 + k]; // Q1 = −T channel
                    y[8 + k] = 0.5 * x[3 * 8 + k]; // Q2 = Q/2 channel
                }
                (x, y)
            })
            .collect();
        let loss0: f32 = samples
            .iter()
            .map(|(x, y)| {
                let p = net.forward(x);
                mse_loss(&p, y).0
            })
            .sum();
        for epoch in 0..60 {
            for (x, y) in &samples {
                net.train_sample(x, y);
            }
            net.optimizer_step(&mut opt);
            let _ = epoch;
        }
        let loss1: f32 = samples
            .iter()
            .map(|(x, y)| {
                let p = net.forward(x);
                mse_loss(&p, y).0
            })
            .sum();
        assert!(loss1 < 0.2 * loss0, "training failed: {loss0} -> {loss1}");
    }

    #[test]
    fn mlp_can_learn_a_scalar_function() {
        let mut net = RadiationMlp::new(4, 16, 9);
        let mut opt = Adam::new(AdamConfig {
            lr: 3e-3,
            ..Default::default()
        });
        let data: Vec<(Vec<f32>, Vec<f32>)> = (0..64)
            .map(|s| {
                let x: Vec<f32> = (0..4).map(|i| ((s * 4 + i) as f32 * 0.17).sin()).collect();
                let t = vec![x[0] * x[1] + 0.3 * x[2], x[3] - 0.5 * x[0]];
                (x, t)
            })
            .collect();
        let eval = |net: &mut RadiationMlp| -> f32 {
            data.iter()
                .map(|(x, t)| mse_loss(&net.forward(x), t).0)
                .sum()
        };
        let l0 = eval(&mut net);
        for _ in 0..150 {
            for (x, t) in &data {
                net.train_sample(x, t);
            }
            net.optimizer_step(&mut opt);
        }
        let l1 = eval(&mut net);
        assert!(l1 < 0.1 * l0, "MLP training failed: {l0} -> {l1}");
    }

    #[test]
    fn normalization_roundtrip() {
        let mut net = TendencyCnn::new(4, 4, 1);
        net.in_norm = vec![(1.0, 0.5); 5];
        let mut x = vec![3.0f32; 20];
        net.normalize_input(&mut x);
        assert!(x.iter().all(|&v| (v - 1.0).abs() < 1e-6));
        net.out_norm = vec![(2.0, 10.0); 2];
        let mut y = vec![0.1f32; 8];
        net.denormalize_output(&mut y);
        assert!(y.iter().all(|&v| (v - 3.0).abs() < 1e-6));

        // The diagnostic MLP's per-output denormalization.
        let mut mlp = RadiationMlp::with_outputs(4, 3, 8, 1);
        mlp.out_norm = vec![(1.0, 2.0), (10.0, 1.0), (0.0, 5.0)];
        let mut d = vec![0.5f32, 0.5, 0.5];
        mlp.denormalize_output(&mut d);
        assert_eq!(d, vec![2.0, 10.5, 2.5]);
    }

    #[test]
    fn cnn_save_load_roundtrips_inference_exactly() {
        let mut net = TendencyCnn::new(8, 8, 77);
        net.in_norm = vec![(1.0, 0.5); 5];
        net.out_norm = vec![(2.0, 3.0), (-1.0, 0.25)];
        let mut buf = Vec::new();
        net.save_to(&mut buf).unwrap();
        let back = TendencyCnn::load_from(&mut buf.as_slice()).unwrap();
        let x: Vec<f32> = (0..5 * 8).map(|i| (i as f32 * 0.21).sin()).collect();
        let mut y1 = vec![0.0f32; 16];
        let mut y2 = vec![0.0f32; 16];
        net.infer(&x, &mut y1);
        back.infer(&x, &mut y2);
        assert_eq!(y1, y2);
        assert_eq!(back.in_norm, net.in_norm);
        assert_eq!(back.out_norm, net.out_norm);
    }

    #[test]
    fn mlp_save_load_roundtrips_inference_exactly() {
        let net = RadiationMlp::with_outputs(10, 3, 16, 99);
        let mut buf = Vec::new();
        net.save_to(&mut buf).unwrap();
        let back = RadiationMlp::load_from(&mut buf.as_slice()).unwrap();
        let x: Vec<f32> = (0..10).map(|i| (i as f32 * 0.7).cos()).collect();
        assert_eq!(net.infer(&x), back.infer(&x));
    }

    #[test]
    fn load_rejects_cross_kind_files() {
        let cnn = TendencyCnn::new(4, 4, 1);
        let mut buf = Vec::new();
        cnn.save_to(&mut buf).unwrap();
        assert!(RadiationMlp::load_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn flops_scale_with_width() {
        let a = TendencyCnn::new(30, 32, 1).flops();
        let b = TendencyCnn::new(30, 64, 1).flops();
        let r = b as f64 / a as f64;
        assert!(
            (3.0..4.5).contains(&r),
            "flops ratio {r} (≈4x expected for 2x width)"
        );
    }
}
