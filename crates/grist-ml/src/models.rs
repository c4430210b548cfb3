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

use crate::io::{
    check_magic, read_f32_exact, read_norm_pairs, read_u64, tensor_len, write_f32_slice,
    write_magic, write_norm_pairs, write_u64, KIND_CNN, KIND_MLP,
};
use crate::optim::Adam;
use crate::tensor::{mse_loss, relu, relu_backward, Conv1d, Dense};
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
    pub(crate) conv2: Conv1d,
}

impl ResUnit {
    fn new(ch: usize, nlev: usize, rng: &mut StdRng) -> Self {
        ResUnit {
            conv1: Conv1d::new(ch, ch, 3, nlev, rng),
            conv2: Conv1d::new(ch, ch, 3, nlev, rng),
        }
    }
}

/// The 11-layer tendency CNN (input conv + 5 ResUnits + output conv).
#[derive(Debug, Clone)]
pub struct TendencyCnn {
    pub nlev: usize,
    pub channels: usize,
    pub(crate) input: Conv1d,
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

    /// The one forward pass, on a *normalized* input: every activation
    /// plane in layer order — the input conv's (after its ReLU), each
    /// ResUnit's hidden plane (conv1 after its ReLU) and its output
    /// (conv2 plus the skip), then the network output.
    fn forward(&self, x: &[f32]) -> Vec<Vec<f32>> {
        let mut a = self.input.infer(x);
        relu(&mut a);
        let mut planes = vec![a];
        for r in &self.res {
            let a = &planes[planes.len() - 1];
            let mut h = r.conv1.infer(a);
            relu(&mut h);
            let mut out = r.conv2.infer(&h);
            for (o, &s) in out.iter_mut().zip(a) {
                *o += s;
            }
            planes.extend([h, out]);
        }
        planes.push(self.output.infer(&planes[planes.len() - 1]));
        planes
    }

    /// The normalized `[2 × nlev]` output for a normalized input — the
    /// per-column reference [`Self::infer_batch`](crate::batch) is held to
    /// bit for bit.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        self.forward(x).pop().expect("forward returns its output")
    }

    /// One SGD sample: forward, MSE vs `target` (normalized), backward
    /// through the recorded planes. Returns the loss. Gradients accumulate
    /// until the optimizer step.
    pub fn train_sample(&mut self, x: &[f32], target: &[f32]) -> f32 {
        let planes = self.forward(x);
        // `acts` = [a0, h1, a1, …, h5, a5]: unit i reads a_i = acts[2i].
        let (y, acts) = planes.split_last().expect("forward returns its output");
        let (loss, gy) = mse_loss(y, target);
        let mut g = self.output.backward(&acts[acts.len() - 1], &gy);
        for (i, r) in self.res.iter_mut().enumerate().rev() {
            let h = &acts[2 * i + 1];
            let mut gh = r.conv2.backward(h, &g);
            relu_backward(h, &mut gh);
            let gx = r.conv1.backward(&acts[2 * i], &gh);
            for (a, b) in g.iter_mut().zip(&gx) {
                *a += b; // plus the residual skip path
            }
        }
        relu_backward(&acts[0], &mut g);
        self.input.backward(x, &g);
        loss
    }

    /// Apply one optimizer step to every parameter.
    pub fn optimizer_step(&mut self, opt: &mut Adam) {
        opt.begin_step();
        for conv in self.convs_mut() {
            opt.update(&mut conv.weight);
            opt.update(&mut conv.bias);
        }
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
        // The widest conv weight, `channels × 3·max(channels, 5)`, and an
        // activation plane, `channels × nlev`.
        tensor_len(tensor_len(3, channels)?, channels.max(CNN_INPUT_CHANNELS))?;
        tensor_len(channels, nlev)?;
        let mut net = TendencyCnn::new(nlev, channels, 0);
        net.in_norm = read_norm_pairs(r, CNN_INPUT_CHANNELS)?;
        net.out_norm = read_norm_pairs(r, CNN_OUTPUT_CHANNELS)?;
        for conv in net.convs_mut() {
            let weight = read_f32_exact(r, conv.weight.len())?;
            conv.set_weight_oik(&weight);
            conv.bias.w = read_f32_exact(r, conv.bias.len())?;
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

    /// The one forward pass, on a *normalized* input: every activation
    /// plane in layer order — the input layer's (after its ReLU), each
    /// hidden layer's ReLU output `z` and the residual sum `h + z`, then the
    /// network output.
    fn forward(&self, x: &[f32]) -> Vec<Vec<f32>> {
        let mut h = self.input.infer(x);
        relu(&mut h);
        let mut planes = vec![h];
        for layer in &self.hidden {
            let h = &planes[planes.len() - 1];
            let mut z = layer.infer(h);
            relu(&mut z);
            let next = h.iter().zip(&z).map(|(a, b)| a + b).collect();
            planes.extend([z, next]);
        }
        planes.push(self.output.infer(&planes[planes.len() - 1]));
        planes
    }

    /// Inference returning the diagnostics in normalized space — the
    /// per-column reference [`Self::infer_batch`](crate::batch) is held to
    /// bit for bit.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        self.forward(x).pop().expect("forward returns its output")
    }

    /// See [`TendencyCnn::train_sample`].
    pub fn train_sample(&mut self, x: &[f32], target: &[f32]) -> f32 {
        let planes = self.forward(x);
        // `acts` = [h0, z1, h1, …, z5, h5]: layer i reads h_i = acts[2i].
        let (y, acts) = planes.split_last().expect("forward returns its output");
        let (loss, gy) = mse_loss(y, target);
        let mut g = self.output.backward(&acts[acts.len() - 1], &gy);
        for (i, layer) in self.hidden.iter_mut().enumerate().rev() {
            // Residual block: h_out = relu(layer(h_in)) + h_in, so the
            // gradient reaching h_in is the skip-path gradient plus the
            // gradient back-propagated through relu∘layer.
            let mut gz = g.clone();
            relu_backward(&acts[2 * i + 1], &mut gz);
            let g_layer = layer.backward(&acts[2 * i], &gz);
            for (a, b) in g.iter_mut().zip(&g_layer) {
                *a += b;
            }
        }
        relu_backward(&acts[0], &mut g);
        self.input.backward(x, &g);
        loss
    }

    /// See [`TendencyCnn::optimizer_step`].
    pub fn optimizer_step(&mut self, opt: &mut Adam) {
        opt.begin_step();
        for d in self.layers_mut() {
            opt.update(&mut d.weight);
            opt.update(&mut d.bias);
        }
    }

    /// Every dense layer in file order: input, the five hidden, output.
    fn layers_mut(&mut self) -> Vec<&mut Dense> {
        let mut v = vec![&mut self.input];
        v.extend(&mut self.hidden);
        v.push(&mut self.output);
        v
    }

    /// Serialize architecture, weights and normalization to a writer. Each
    /// layer writes its weight, then its bias.
    pub fn save_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write_magic(w, KIND_MLP)?;
        write_u64(w, self.n_in as u64)?;
        write_u64(w, self.n_out as u64)?;
        write_u64(w, self.width as u64)?;
        write_norm_pairs(w, &self.in_norm)?;
        write_norm_pairs(w, &self.out_norm)?;
        for d in [&self.input]
            .into_iter()
            .chain(&self.hidden)
            .chain([&self.output])
        {
            write_f32_slice(w, &d.weight.w)?;
            write_f32_slice(w, &d.bias.w)?;
        }
        Ok(())
    }

    /// Deserialize a model saved with [`Self::save_to`].
    pub fn load_from(r: &mut impl Read) -> std::io::Result<RadiationMlp> {
        check_magic(r, KIND_MLP)?;
        let n_in = read_u64(r)? as usize;
        let n_out = read_u64(r)? as usize;
        let width = read_u64(r)? as usize;
        // Every weight matrix and normaliser vector: `{n_in, n_out, width}
        // × {width, 2}`.
        for n in [n_in, n_out, width] {
            tensor_len(n, width.max(2))?;
        }
        let mut net = RadiationMlp::with_outputs(n_in, n_out, width, 0);
        net.in_norm = read_norm_pairs(r, n_in)?;
        net.out_norm = read_norm_pairs(r, n_out)?;
        for d in net.layers_mut() {
            d.weight.w = read_f32_exact(r, d.weight.len())?;
            d.bias.w = read_f32_exact(r, d.bias.len())?;
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

    type Set = [(Vec<f32>, Vec<f32>)];

    /// The summed MSE of `net` over `set`, through [`TendencyCnn::infer`].
    fn cnn_loss(net: &TendencyCnn, set: &Set) -> f32 {
        set.iter().map(|(x, y)| mse_loss(&net.infer(x), y).0).sum()
    }

    /// The summed MSE of `net` over `set`, through [`RadiationMlp::infer`].
    fn mlp_loss(net: &RadiationMlp, set: &Set) -> f32 {
        set.iter().map(|(x, t)| mse_loss(&net.infer(x), t).0).sum()
    }

    /// Synthetic CNN task: Q1 = −T, Q2 = Q/2 on 8 levels, 32 samples.
    fn cnn_samples() -> Vec<(Vec<f32>, Vec<f32>)> {
        (0..32)
            .map(|s| {
                let x: Vec<f32> = (0..5 * 8).map(|i| ((i + s) as f32 * 0.41).sin()).collect();
                let mut y = vec![0.0f32; 2 * 8];
                for k in 0..8 {
                    y[k] = -x[2 * 8 + k]; // Q1 = −T channel
                    y[8 + k] = 0.5 * x[3 * 8 + k]; // Q2 = Q/2 channel
                }
                (x, y)
            })
            .collect()
    }

    /// Synthetic MLP task: two smooth functions of four inputs, 64 samples.
    fn mlp_samples() -> Vec<(Vec<f32>, Vec<f32>)> {
        (0..64)
            .map(|s| {
                let x: Vec<f32> = (0..4).map(|i| ((s * 4 + i) as f32 * 0.17).sin()).collect();
                let t = vec![x[0] * x[1] + 0.3 * x[2], x[3] - 0.5 * x[0]];
                (x, t)
            })
            .collect()
    }

    /// `net` after `epochs` full-batch Adam steps (lr 3e-3) on `set`:
    /// `sample` accumulates one pair's gradients, `step` applies them.
    fn trained<N>(
        mut net: N,
        set: &Set,
        epochs: usize,
        sample: fn(&mut N, &[f32], &[f32]) -> f32,
        step: fn(&mut N, &mut Adam),
    ) -> N {
        let mut opt = Adam::new(AdamConfig {
            lr: 3e-3,
            ..Default::default()
        });
        for _ in 0..epochs {
            for (x, y) in set {
                sample(&mut net, x, y);
            }
            step(&mut net, &mut opt);
        }
        net
    }

    fn trained_cnn(net: TendencyCnn, set: &Set, epochs: usize) -> TendencyCnn {
        trained(
            net,
            set,
            epochs,
            TendencyCnn::train_sample,
            TendencyCnn::optimizer_step,
        )
    }

    fn trained_mlp(net: RadiationMlp, set: &Set, epochs: usize) -> RadiationMlp {
        trained(
            net,
            set,
            epochs,
            RadiationMlp::train_sample,
            RadiationMlp::optimizer_step,
        )
    }

    #[test]
    fn cnn_can_learn_a_simple_mapping() {
        let samples = cnn_samples();
        let net = TendencyCnn::new(8, 8, 42);
        let loss0 = cnn_loss(&net, &samples);
        let loss1 = cnn_loss(&trained_cnn(net, &samples, 60), &samples);
        assert!(loss1 < 0.2 * loss0, "training failed: {loss0} -> {loss1}");
    }

    #[test]
    fn mlp_can_learn_a_scalar_function() {
        let data = mlp_samples();
        let net = RadiationMlp::new(4, 16, 9);
        let l0 = mlp_loss(&net, &data);
        let l1 = mlp_loss(&trained_mlp(net, &data, 150), &data);
        assert!(l1 < 0.1 * l0, "MLP training failed: {l0} -> {l1}");
    }

    /// FNV-1a over raw bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The weight files of the two learning tests' networks after training.
    /// Synthetic data on purpose: the hashes move only when the training
    /// arithmetic (forward, backward, Adam) or the file format does, never
    /// with the coupled model that generates the real training data.
    const TRAINED_CNN_SAVE_FNV: u64 = 0xbc4b_f859_55f2_daa1;
    const TRAINED_MLP_SAVE_FNV: u64 = 0xd397_dcf1_b54e_94c7;

    #[test]
    fn trained_weights_save_the_pinned_bytes() {
        let (mut cnn, mut mlp) = (Vec::new(), Vec::new());
        let net = trained_cnn(TendencyCnn::new(8, 8, 42), &cnn_samples(), 60);
        net.save_to(&mut cnn).unwrap();
        let net = trained_mlp(RadiationMlp::new(4, 16, 9), &mlp_samples(), 150);
        net.save_to(&mut mlp).unwrap();
        let got = (fnv1a(&cnn), fnv1a(&mlp));
        let want = (TRAINED_CNN_SAVE_FNV, TRAINED_MLP_SAVE_FNV);
        assert_eq!(
            got, want,
            "trained CNN / MLP saved bytes hash to {got:016x?}"
        );
    }

    #[test]
    fn train_sample_loss_is_the_inference_loss_bit_for_bit() {
        // A few optimizer steps first, so the weights are not the draw.
        let cnn_set = cnn_samples();
        let mut cnn = trained_cnn(TendencyCnn::new(8, 8, 5), &cnn_set, 3);
        for s in &cnn_set {
            let want = cnn_loss(&cnn, std::slice::from_ref(s));
            assert_eq!(cnn.train_sample(&s.0, &s.1).to_bits(), want.to_bits());
        }
        let mlp_set = mlp_samples();
        let mut mlp = trained_mlp(RadiationMlp::new(4, 16, 6), &mlp_set, 3);
        for s in &mlp_set {
            let want = mlp_loss(&mlp, std::slice::from_ref(s));
            assert_eq!(mlp.train_sample(&s.0, &s.1).to_bits(), want.to_bits());
        }
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
        assert_eq!(net.infer(&x), back.infer(&x));
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

    /// `buf`, a saved network, with the normaliser vector that starts at
    /// byte `at` cut to its first `pairs` pairs. A weight file is magic and
    /// kind (16 bytes), the header's `u64`s (CNN: nlev, channels; MLP: n_in,
    /// n_out, width), then each normaliser vector as a `u64` length and its
    /// `f32` values.
    fn cut_norm_pairs(buf: &[u8], at: usize, pairs: usize) -> Vec<u8> {
        let n = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) as usize;
        let mut out = buf[..at].to_vec();
        out.extend((2 * pairs as u64).to_le_bytes());
        out.extend(&buf[at + 8..at + 8 + 8 * pairs]);
        out.extend(&buf[at + 8 + 4 * n..]);
        out
    }

    fn invalid<T: std::fmt::Debug>(r: std::io::Result<T>) -> bool {
        matches!(r, Err(e) if e.kind() == std::io::ErrorKind::InvalidData)
    }

    #[test]
    fn load_rejects_a_normaliser_of_the_wrong_length() {
        let (mut cnn, mut mlp) = (Vec::new(), Vec::new());
        TendencyCnn::new(6, 4, 2).save_to(&mut cnn).unwrap();
        RadiationMlp::with_outputs(10, 3, 8, 2)
            .save_to(&mut mlp)
            .unwrap();
        // CNN: 2 input pairs of 5 (`normalize_input` would index past
        // them), then 1 output pair of 2.
        for (at, pairs) in [(32, 2), (32 + 8 + 8 * 5, 1)] {
            let buf = cut_norm_pairs(&cnn, at, pairs);
            assert!(invalid(TendencyCnn::load_from(&mut buf.as_slice())));
        }
        // MLP: 1 input pair of 10 (`normalize_input` would leave 9 inputs
        // raw), then 2 output pairs of 3.
        for (at, pairs) in [(40, 1), (40 + 8 + 8 * 10, 2)] {
            let buf = cut_norm_pairs(&mlp, at, pairs);
            assert!(invalid(RadiationMlp::load_from(&mut buf.as_slice())));
        }
    }

    #[test]
    fn load_rejects_a_header_implying_an_oversized_tensor() {
        // Rejected before the network is built: these weights would take
        // terabytes. Byte 24 is the CNN's `channels`, 32 the MLP's `width`.
        let (mut cnn, mut mlp) = (Vec::new(), Vec::new());
        TendencyCnn::new(6, 4, 2).save_to(&mut cnn).unwrap();
        RadiationMlp::new(10, 8, 2).save_to(&mut mlp).unwrap();
        for v in [1u64 << 20, u64::MAX] {
            cnn[24..32].copy_from_slice(&v.to_le_bytes());
            assert!(invalid(TendencyCnn::load_from(&mut cnn.as_slice())));
            mlp[32..40].copy_from_slice(&v.to_le_bytes());
            assert!(invalid(RadiationMlp::load_from(&mut mlp.as_slice())));
        }
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
