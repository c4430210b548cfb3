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
/// Residual units of the CNN, and residual hidden layers of the MLP.
const RES_UNITS: usize = 5;

/// The gradients of layer `j`'s weight and bias in `grads`, a network's
/// tensors in file order: each layer's weight, then its bias.
fn layer_grads(grads: &mut [Vec<f32>], j: usize) -> [&mut [f32]; 2] {
    let (w, b) = grads[2 * j..].split_at_mut(1);
    [&mut w[0], &mut b[0]]
}

/// The 11-layer tendency CNN (input conv + 5 ResUnits + output conv).
#[derive(Debug, Clone)]
pub struct TendencyCnn {
    pub nlev: usize,
    pub channels: usize,
    /// Every conv in file order: the input conv, each ResUnit's two (conv →
    /// ReLU → conv, added to the unit's input), the 1 × 1 head.
    pub(crate) convs: Vec<Conv1d>,
    /// Per-channel input normalization (mean, 1/std) — fit on training data.
    pub in_norm: Vec<(f32, f32)>,
    /// Per-channel output denormalization (mean, std).
    pub out_norm: Vec<(f32, f32)>,
}

/// `(c_in, c_out, ksize)` of every CNN conv, in file order. The 1×1
/// per-level linear readout head is not counted among the "11-layer deep
/// CNN" k=3 convolution layers.
fn conv_shapes(channels: usize) -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![(CNN_INPUT_CHANNELS, channels, 3)];
    shapes.extend([(channels, channels, 3); 2 * RES_UNITS]);
    shapes.push((channels, CNN_OUTPUT_CHANNELS, 1));
    shapes
}

impl TendencyCnn {
    /// Build with `channels` hidden width. `channels = 128` gives ≈ 0.5 M
    /// parameters at any `nlev`, matching the paper.
    pub fn new(nlev: usize, channels: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        TendencyCnn {
            nlev,
            channels,
            convs: conv_shapes(channels)
                .into_iter()
                .map(|(c_in, c_out, k)| Conv1d::new(c_in, c_out, k, nlev, &mut rng))
                .collect(),
            in_norm: vec![(0.0, 1.0); CNN_INPUT_CHANNELS],
            out_norm: vec![(0.0, 1.0); CNN_OUTPUT_CHANNELS],
        }
    }

    /// The ResUnits' `[conv1, conv2]` pairs, between the input conv and the
    /// head.
    pub(crate) fn units(&self) -> &[[Conv1d; 2]] {
        self.convs[1..self.convs.len() - 1].as_chunks().0
    }

    /// Total trainable parameters.
    pub fn n_params(&self) -> usize {
        self.tensor_lens().iter().sum()
    }

    /// Every weight and bias length in file order — what [`Adam::new`]
    /// sizes its state from.
    pub fn tensor_lens(&self) -> Vec<usize> {
        self.convs
            .iter()
            .flat_map(|c| [c.weight.len(), c.bias.len()])
            .collect()
    }

    /// Deep (k = 3) conv layers in the network — the paper's "11-layer deep
    /// CNN": one input conv plus two per ResUnit; the 1×1 readout head is a
    /// linear projection, not a deep layer.
    pub fn n_conv_layers(&self) -> usize {
        1 + 2 * self.units().len()
    }

    /// FLOPs of one forward (inference) pass.
    pub fn flops(&self) -> u64 {
        self.convs.iter().map(Conv1d::flops).sum()
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
    /// (conv2 plus the skip), then the network output. Conv `j` reads plane
    /// `j − 1` (the input conv reads `x`) and writes plane `j`.
    fn forward(&self, x: &[f32]) -> Vec<Vec<f32>> {
        let mut a = self.convs[0].infer(x);
        relu(&mut a);
        let mut planes = vec![a];
        for [conv1, conv2] in self.units() {
            let a = &planes[planes.len() - 1];
            let mut h = conv1.infer(a);
            relu(&mut h);
            let mut out = conv2.infer(&h);
            for (o, &s) in out.iter_mut().zip(a) {
                *o += s;
            }
            planes.extend([h, out]);
        }
        let head = &self.convs[self.convs.len() - 1];
        planes.push(head.infer(&planes[planes.len() - 1]));
        planes
    }

    /// The normalized `[2 × nlev]` output for a normalized input — the
    /// per-column reference [`Self::infer_batch`](crate::batch) is held to
    /// bit for bit.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        self.forward(x).pop().expect("forward returns its output")
    }

    /// One SGD sample: forward, MSE vs `target` (normalized), backward
    /// through the recorded planes. Returns the loss. The gradients
    /// accumulate in `opt` until [`Self::optimizer_step`]; `opt` is built
    /// from this network's [`Self::tensor_lens`].
    pub fn train_sample(&self, opt: &mut Adam, x: &[f32], target: &[f32]) -> f32 {
        let planes = self.forward(x);
        // `acts` = [a0, h1, a1, …, h5, a5]: conv `j` reads acts[j − 1].
        let (y, acts) = planes.split_last().expect("forward returns its output");
        let (loss, gy) = mse_loss(y, target);
        let grads = opt.grads_mut();
        let head = self.convs.len() - 1;
        let mut g = self.convs[head].backward(&acts[head - 1], &gy, layer_grads(grads, head));
        // `j` is a ResUnit's conv1, `j + 1` its conv2, last unit first.
        for j in (1..head).step_by(2).rev() {
            let h = &acts[j];
            let mut gh = self.convs[j + 1].backward(h, &g, layer_grads(grads, j + 1));
            relu_backward(h, &mut gh);
            let gx = self.convs[j].backward(&acts[j - 1], &gh, layer_grads(grads, j));
            for (a, b) in g.iter_mut().zip(&gx) {
                *a += b; // plus the residual skip path
            }
        }
        relu_backward(&acts[0], &mut g);
        self.convs[0].backward(x, &g, layer_grads(grads, 0));
        loss
    }

    /// Apply one optimizer step to every parameter.
    pub fn optimizer_step(&mut self, opt: &mut Adam) {
        opt.step(
            self.convs
                .iter_mut()
                .flat_map(|c| [&mut c.weight[..], &mut c.bias[..]]),
        );
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
        for conv in &self.convs {
            write_f32_slice(w, &conv.weight_oik())?;
            write_f32_slice(w, &conv.bias)?;
        }
        Ok(())
    }

    /// Deserialize a model saved with [`Self::save_to`]: the header, the
    /// normalisers and every tensor are read before a layer is built, and
    /// nothing is allocated beyond what the file holds.
    pub fn load_from(r: &mut impl Read) -> std::io::Result<TendencyCnn> {
        check_magic(r, KIND_CNN)?;
        let nlev = read_u64(r)? as usize;
        let channels = read_u64(r)? as usize;
        // The widest conv weight, `channels × 3·max(channels, 5)`, and an
        // activation plane, `channels × nlev`.
        tensor_len(tensor_len(3, channels)?, channels.max(CNN_INPUT_CHANNELS))?;
        tensor_len(channels, nlev)?;
        let in_norm = read_norm_pairs(r, CNN_INPUT_CHANNELS)?;
        let out_norm = read_norm_pairs(r, CNN_OUTPUT_CHANNELS)?;
        let convs = conv_shapes(channels)
            .into_iter()
            .map(|(c_in, c_out, k)| {
                let weight = read_f32_exact(r, c_out * c_in * k)?;
                let bias = read_f32_exact(r, c_out)?;
                Ok(Conv1d::from_weights(c_in, c_out, k, nlev, &weight, bias))
            })
            .collect::<std::io::Result<_>>()?;
        Ok(TendencyCnn {
            nlev,
            channels,
            convs,
            in_norm,
            out_norm,
        })
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
    /// Every dense layer in file order: the input layer, the five hidden
    /// layers with residual skips, the output layer.
    pub(crate) layers: Vec<Dense>,
    pub in_norm: Vec<(f32, f32)>,
    /// (mean, std) per output (gsw, glw, …).
    pub out_norm: Vec<(f32, f32)>,
}

/// `(n_in, n_out)` of every MLP layer, in file order.
fn dense_shapes(n_in: usize, n_out: usize, width: usize) -> Vec<(usize, usize)> {
    let mut shapes = vec![(n_in, width)];
    shapes.extend([(width, width); RES_UNITS]);
    shapes.push((width, n_out));
    shapes
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
            layers: dense_shapes(n_in, n_out, width)
                .into_iter()
                .map(|(i, o)| Dense::new(i, o, &mut rng))
                .collect(),
            in_norm: vec![(0.0, 1.0); n_in],
            out_norm: vec![(0.0, 1.0); n_out],
        }
    }

    /// The hidden layers with residual skips, between the input and the
    /// output layer.
    pub(crate) fn hidden(&self) -> &[Dense] {
        &self.layers[1..self.layers.len() - 1]
    }

    /// Dense layers in the network (the paper's "7-layer MLP").
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    pub fn n_params(&self) -> usize {
        self.tensor_lens().iter().sum()
    }

    /// See [`TendencyCnn::tensor_lens`].
    pub fn tensor_lens(&self) -> Vec<usize> {
        self.layers
            .iter()
            .flat_map(|d| [d.weight.len(), d.bias.len()])
            .collect()
    }

    pub fn flops(&self) -> u64 {
        self.layers.iter().map(Dense::flops).sum()
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
        let mut h = self.layers[0].infer(x);
        relu(&mut h);
        let mut planes = vec![h];
        for layer in self.hidden() {
            let h = &planes[planes.len() - 1];
            let mut z = layer.infer(h);
            relu(&mut z);
            let next = h.iter().zip(&z).map(|(a, b)| a + b).collect();
            planes.extend([z, next]);
        }
        let output = &self.layers[self.layers.len() - 1];
        planes.push(output.infer(&planes[planes.len() - 1]));
        planes
    }

    /// Inference returning the diagnostics in normalized space — the
    /// per-column reference [`Self::infer_batch`](crate::batch) is held to
    /// bit for bit.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        self.forward(x).pop().expect("forward returns its output")
    }

    /// See [`TendencyCnn::train_sample`].
    pub fn train_sample(&self, opt: &mut Adam, x: &[f32], target: &[f32]) -> f32 {
        let planes = self.forward(x);
        // `acts` = [h0, z1, h1, …, z5, h5]: hidden layer j reads
        // h_{j−1} = acts[2j − 2], the output layer the last plane.
        let (y, acts) = planes.split_last().expect("forward returns its output");
        let (loss, gy) = mse_loss(y, target);
        let grads = opt.grads_mut();
        let out = self.layers.len() - 1;
        let mut g = self.layers[out].backward(&acts[acts.len() - 1], &gy, layer_grads(grads, out));
        for j in (1..out).rev() {
            // Residual block: h_out = relu(layer(h_in)) + h_in, so the
            // gradient reaching h_in is the skip-path gradient plus the
            // gradient back-propagated through relu∘layer.
            let mut gz = g.clone();
            relu_backward(&acts[2 * j - 1], &mut gz);
            let g_layer = self.layers[j].backward(&acts[2 * j - 2], &gz, layer_grads(grads, j));
            for (a, b) in g.iter_mut().zip(&g_layer) {
                *a += b;
            }
        }
        relu_backward(&acts[0], &mut g);
        self.layers[0].backward(x, &g, layer_grads(grads, 0));
        loss
    }

    /// See [`TendencyCnn::optimizer_step`].
    pub fn optimizer_step(&mut self, opt: &mut Adam) {
        opt.step(
            self.layers
                .iter_mut()
                .flat_map(|d| [&mut d.weight[..], &mut d.bias[..]]),
        );
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
        for d in &self.layers {
            write_f32_slice(w, &d.weight)?;
            write_f32_slice(w, &d.bias)?;
        }
        Ok(())
    }

    /// Deserialize a model saved with [`Self::save_to`]; see
    /// [`TendencyCnn::load_from`].
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
        let in_norm = read_norm_pairs(r, n_in)?;
        let out_norm = read_norm_pairs(r, n_out)?;
        let layers = dense_shapes(n_in, n_out, width)
            .into_iter()
            .map(|(i, o)| {
                let weight = read_f32_exact(r, o * i)?;
                let bias = read_f32_exact(r, o)?;
                Ok(Dense::from_weights(i, o, weight, bias))
            })
            .collect::<std::io::Result<_>>()?;
        Ok(RadiationMlp {
            n_in,
            n_out,
            width,
            layers,
            in_norm,
            out_norm,
        })
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

    /// `net` after `epochs` full-batch Adam steps (lr 3e-3) on `set`.
    fn trained_cnn(mut net: TendencyCnn, set: &Set, epochs: usize) -> TendencyCnn {
        let mut opt = Adam::new(AdamConfig::default(), net.tensor_lens());
        opt.cfg.lr = 3e-3;
        for _ in 0..epochs {
            for (x, y) in set {
                net.train_sample(&mut opt, x, y);
            }
            net.optimizer_step(&mut opt);
        }
        net
    }

    /// See [`trained_cnn`].
    fn trained_mlp(mut net: RadiationMlp, set: &Set, epochs: usize) -> RadiationMlp {
        let mut opt = Adam::new(AdamConfig::default(), net.tensor_lens());
        opt.cfg.lr = 3e-3;
        for _ in 0..epochs {
            for (x, y) in set {
                net.train_sample(&mut opt, x, y);
            }
            net.optimizer_step(&mut opt);
        }
        net
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
        let cnn = trained_cnn(TendencyCnn::new(8, 8, 5), &cnn_set, 3);
        let mut opt = Adam::new(AdamConfig::default(), cnn.tensor_lens());
        for s in &cnn_set {
            let want = cnn_loss(&cnn, std::slice::from_ref(s));
            let got = cnn.train_sample(&mut opt, &s.0, &s.1);
            assert_eq!(got.to_bits(), want.to_bits());
        }
        let mlp_set = mlp_samples();
        let mlp = trained_mlp(RadiationMlp::new(4, 16, 6), &mlp_set, 3);
        let mut opt = Adam::new(AdamConfig::default(), mlp.tensor_lens());
        for s in &mlp_set {
            let want = mlp_loss(&mlp, std::slice::from_ref(s));
            let got = mlp.train_sample(&mut opt, &s.0, &s.1);
            assert_eq!(got.to_bits(), want.to_bits());
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
