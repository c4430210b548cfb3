//! Batched inference: lowering the physics networks onto the GEMM kernel.
//!
//! `MlSuite` packs blocks of `B` columns into row-major `[B × n_in]` stage
//! matrices; this module runs the whole block through the networks with
//! every layer lowered to one [`gemm_nn`](crate::gemm::gemm_nn) call:
//!
//! * `Conv1d` → **im2col + GEMM**. The weight tensor `[c_out × c_in × ksize]`
//!   is *already* the row-major GEMM `A` matrix `[c_out × (c_in·ksize)]`.
//!   `im2col` gathers the input into `Col[(c_in·ksize) × (B·len)]` where
//!   column `b·len + p` holds the receptive field of output level `p` of
//!   sample `b` (zero padding materialized as 0.0). `C` is prefilled with
//!   bias rows, matching the per-column kernel which fills `y` with the bias
//!   before accumulating.
//! * `Dense` → **GEMM on feature-major panels**. Activations live as
//!   `[width × B]` (one transpose on entry, one on exit), `C` starts at zero
//!   and the bias is added after — the per-column kernel computes
//!   `bias + acc`, the batched one `acc + bias`; f32 addition is
//!   commutative, so the results are bitwise identical.
//!
//! Because [`gemm_nn`](crate::gemm::gemm_nn) accumulates each output
//! element strictly in increasing-`k` order (see `gemm.rs`), and the `k`
//! axis here enumerates
//! `(ci, k)` / input features in exactly the order the per-column loops
//! visit them, **batched and per-column inference agree bit for bit** (the
//! only nominal difference is that zero padding contributes explicit
//! `w · 0.0` terms, which cannot change a sum). That property is what lets
//! the substrate's degrade-to-serial fault path and the chaos suite's
//! bitwise-determinism tests keep holding with the batched engine wired in.
//!
//! All intermediate storage comes from caller-provided scratch arenas
//! ([`CnnScratch`], [`MlpScratch`], [`ColumnScratch`]) that only grow on
//! first use (or a larger batch) and count every growth — the zero-alloc
//! steady-state acceptance test asserts the counters stop moving.

use crate::gemm::{gemm_flops, gemm_nn_with, GemmVariant};
use crate::models::{RadiationMlp, TendencyCnn, CNN_INPUT_CHANNELS, CNN_OUTPUT_CHANNELS};
use crate::tensor::{Conv1d, Dense, Relu};

/// Where sample `s`, channel `ci`, level `p` lives in a flat buffer:
/// `x[s · samp_stride + ci · chan_stride + p]`.
///
/// Two layouts appear in the CNN pipeline: the stage input `[B × 5·nlev]`
/// (samples outermost) and batch activations `[ch × B·nlev]` (channels
/// outermost). Parameterizing `im2col` over the strides lets one gather
/// routine serve both.
#[derive(Debug, Clone, Copy)]
pub struct SampleLayout {
    pub chan_stride: usize,
    pub samp_stride: usize,
}

impl SampleLayout {
    /// The packed stage matrix `[B × n_ch·len]`, row-major per sample.
    pub fn stage(len: usize, n_ch: usize) -> Self {
        SampleLayout {
            chan_stride: len,
            samp_stride: n_ch * len,
        }
    }

    /// Batch activations `[ch × B·len]`: channel rows of `B` concatenated
    /// per-sample level profiles.
    pub fn batch_act(b: usize, len: usize) -> Self {
        SampleLayout {
            chan_stride: b * len,
            samp_stride: len,
        }
    }
}

/// Gather `Col[(c_in·ksize) × (B·len)]` for a same-padded 1-D convolution:
/// `Col[ci·ksize + k][s·len + p] = x(s, ci, p + k − ksize/2)`, zero outside
/// the profile. Row order `(ci, k)` matches the per-column accumulation
/// order of `Conv1d::infer`.
fn im2col(
    x: &[f32],
    lay: SampleLayout,
    b: usize,
    c_in: usize,
    ksize: usize,
    len: usize,
    col: &mut [f32],
) {
    let half = ksize / 2;
    let row_len = b * len;
    debug_assert_eq!(col.len(), c_in * ksize * row_len);
    for ci in 0..c_in {
        for k in 0..ksize {
            let shift = k as isize - half as isize;
            let p_lo = if shift < 0 {
                ((-shift) as usize).min(len)
            } else {
                0
            };
            let p_hi = len.saturating_sub(shift.max(0) as usize).max(p_lo);
            let row0 = (ci * ksize + k) * row_len;
            for s in 0..b {
                let dst = &mut col[row0 + s * len..row0 + (s + 1) * len];
                dst[..p_lo].fill(0.0);
                dst[p_hi..].fill(0.0);
                if p_hi > p_lo {
                    let src0 = s * lay.samp_stride + ci * lay.chan_stride;
                    let s_lo = (p_lo as isize + shift) as usize;
                    let s_hi = (p_hi as isize + shift) as usize;
                    dst[p_lo..p_hi].copy_from_slice(&x[src0 + s_lo..src0 + s_hi]);
                }
            }
        }
    }
}

/// One batched convolution layer: bias-prefill `y [c_out × B·len]`, then
/// `y += W · Col`. For 1×1 kernels on batch-activation inputs the source
/// *is* the im2col matrix, so the gather is skipped.
fn conv_batch(
    variant: GemmVariant,
    conv: &Conv1d,
    b: usize,
    x: &[f32],
    lay: SampleLayout,
    col: &mut [f32],
    y: &mut [f32],
) {
    let row_len = b * conv.len;
    debug_assert_eq!(y.len(), conv.c_out * row_len);
    for co in 0..conv.c_out {
        y[co * row_len..(co + 1) * row_len].fill(conv.bias.w[co]);
    }
    if conv.ksize == 1 && lay.chan_stride == row_len && lay.samp_stride == conv.len {
        debug_assert_eq!(x.len(), conv.c_in * row_len);
        gemm_nn_with(
            variant,
            conv.c_out,
            row_len,
            conv.c_in,
            &conv.weight.w,
            x,
            y,
        );
    } else {
        let kdim = conv.c_in * conv.ksize;
        let col = &mut col[..kdim * row_len];
        im2col(x, lay, b, conv.c_in, conv.ksize, conv.len, col);
        gemm_nn_with(variant, conv.c_out, row_len, kdim, &conv.weight.w, col, y);
    }
}

/// One batched dense layer on feature-major panels: `y [n_out × B] = W · x`
/// then `+ bias` (bias after the dot product, as the per-column kernel
/// effectively computes — f32 addition commutes).
fn dense_batch(variant: GemmVariant, layer: &Dense, b: usize, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), layer.n_in * b);
    debug_assert_eq!(y.len(), layer.n_out * b);
    y.fill(0.0);
    gemm_nn_with(variant, layer.n_out, b, layer.n_in, &layer.weight.w, x, y);
    for o in 0..layer.n_out {
        let bias = layer.bias.w[o];
        for v in &mut y[o * b..(o + 1) * b] {
            *v += bias;
        }
    }
}

/// Scratch arena for [`TendencyCnn::infer_batch`]: the im2col panel and
/// three ping-pong activation planes. Grows only when first used or when
/// the batch gets larger; every growth increments [`Self::grows`].
#[derive(Debug, Clone, Default)]
pub struct CnnScratch {
    col: Vec<f32>,
    act_a: Vec<f32>,
    act_b: Vec<f32>,
    act_c: Vec<f32>,
    grows: u64,
}

impl CnnScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of times any buffer here had to (re)allocate. Constant across
    /// calls ⇒ the steady-state loop is allocation-free.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Size the arena for batches of up to `b` samples of `net`. A caller
    /// that knows its largest batch reserves for it up front, so capacity
    /// does not depend on which batch size arrives first.
    pub fn reserve(&mut self, net: &TendencyCnn, b: usize) {
        let row_len = b * net.nlev;
        let col_n = (3 * net.channels).max(3 * CNN_INPUT_CHANNELS) * row_len;
        let act_n = net.channels.max(CNN_OUTPUT_CHANNELS) * row_len;
        if self.col.len() < col_n || self.act_a.len() < act_n {
            self.grows += 1;
            if self.col.len() < col_n {
                self.col.resize(col_n, 0.0);
            }
            if self.act_a.len() < act_n {
                self.act_a.resize(act_n, 0.0);
                self.act_b.resize(act_n, 0.0);
                self.act_c.resize(act_n, 0.0);
            }
        }
    }
}

/// Scratch arena for [`RadiationMlp::infer_batch`]: the transposed input
/// panel, two ping-pong activation panels, and the pre-transpose output.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    xt: Vec<f32>,
    h: Vec<f32>,
    z: Vec<f32>,
    out: Vec<f32>,
    grows: u64,
}

impl MlpScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// See [`CnnScratch::grows`].
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// See [`CnnScratch::reserve`].
    pub fn reserve(&mut self, net: &RadiationMlp, b: usize) {
        let (xt_n, h_n, out_n) = (net.n_in * b, net.width * b, net.n_out * b);
        if self.xt.len() < xt_n || self.h.len() < h_n || self.out.len() < out_n {
            self.grows += 1;
            if self.xt.len() < xt_n {
                self.xt.resize(xt_n, 0.0);
            }
            if self.h.len() < h_n {
                self.h.resize(h_n, 0.0);
                self.z.resize(h_n, 0.0);
            }
            if self.out.len() < out_n {
                self.out.resize(out_n, 0.0);
            }
        }
    }
}

/// Scratch for the *per-column* `infer_into` paths (the satellite fix for
/// the old allocate-per-call `infer`): three planes sized to the larger of
/// the CNN activation (`channels·nlev`) and MLP width.
#[derive(Debug, Clone, Default)]
pub struct ColumnScratch {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    grows: u64,
}

impl ColumnScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// See [`CnnScratch::grows`].
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Hand out the three planes at exactly `n` elements each.
    pub(crate) fn planes(&mut self, n: usize) -> (&mut [f32], &mut [f32], &mut [f32]) {
        if self.a.len() < n {
            self.grows += 1;
            self.a.resize(n, 0.0);
            self.b.resize(n, 0.0);
            self.c.resize(n, 0.0);
        }
        (&mut self.a[..n], &mut self.b[..n], &mut self.c[..n])
    }
}

impl TendencyCnn {
    /// Batched inference on `b` *normalized* samples.
    ///
    /// `xs` is the packed stage matrix `[b × 5·nlev]` (row-major per
    /// sample), `ys` receives `[b × 2·nlev]` normalized outputs. Bitwise
    /// identical to calling [`TendencyCnn::infer`] per sample. Both
    /// [`GemmVariant`]s produce identical bits; the caller picks the
    /// microkernel (`grist-core` passes the default, `Simd`).
    pub fn infer_batch(
        &self,
        variant: GemmVariant,
        b: usize,
        xs: &[f32],
        ys: &mut [f32],
        s: &mut CnnScratch,
    ) {
        assert_eq!(xs.len(), b * CNN_INPUT_CHANNELS * self.nlev);
        assert_eq!(ys.len(), b * CNN_OUTPUT_CHANNELS * self.nlev);
        if b == 0 {
            return;
        }
        let row_len = b * self.nlev;
        let ch = self.channels;
        s.reserve(self, b);
        let stage = SampleLayout::stage(self.nlev, CNN_INPUT_CHANNELS);
        let act = SampleLayout::batch_act(b, self.nlev);
        let CnnScratch {
            col,
            act_a,
            act_b,
            act_c,
            ..
        } = s;
        let plane = ch * row_len;
        let (mut a, bb, mut c) = (&mut act_a[..plane], &mut act_b[..], &mut act_c[..plane]);
        conv_batch(variant, &self.input, b, xs, stage, col, a);
        Relu::infer(a);
        for r in &self.res {
            let h1 = &mut bb[..plane];
            conv_batch(variant, &r.conv1, b, a, act, col, h1);
            Relu::infer(h1);
            conv_batch(variant, &r.conv2, b, h1, act, col, c);
            for (o, &xi) in c.iter_mut().zip(a.iter()) {
                *o += xi;
            }
            std::mem::swap(&mut a, &mut c);
        }
        let out = &mut bb[..CNN_OUTPUT_CHANNELS * row_len];
        conv_batch(variant, &self.output, b, a, act, col, out);
        // Un-batch [2 × b·nlev] → per-sample rows [b × 2·nlev].
        for smp in 0..b {
            for co in 0..CNN_OUTPUT_CHANNELS {
                let dst =
                    &mut ys[smp * CNN_OUTPUT_CHANNELS * self.nlev + co * self.nlev..][..self.nlev];
                dst.copy_from_slice(&out[co * row_len + smp * self.nlev..][..self.nlev]);
            }
        }
    }
}

impl RadiationMlp {
    /// Batched inference on `b` *normalized* samples: `xs` is `[b × n_in]`
    /// row-major, `ys` receives `[b × n_out]` normalized outputs. Bitwise
    /// identical to calling [`RadiationMlp::infer`] per sample, under
    /// either [`GemmVariant`] (see [`TendencyCnn::infer_batch`]).
    pub fn infer_batch(
        &self,
        variant: GemmVariant,
        b: usize,
        xs: &[f32],
        ys: &mut [f32],
        s: &mut MlpScratch,
    ) {
        assert_eq!(xs.len(), b * self.n_in);
        assert_eq!(ys.len(), b * self.n_out);
        if b == 0 {
            return;
        }
        s.reserve(self, b);
        let MlpScratch { xt, h, z, out, .. } = s;
        let xt = &mut xt[..self.n_in * b];
        for smp in 0..b {
            for i in 0..self.n_in {
                xt[i * b + smp] = xs[smp * self.n_in + i];
            }
        }
        let h = &mut h[..self.width * b];
        let z = &mut z[..self.width * b];
        dense_batch(variant, &self.input, b, xt, h);
        Relu::infer(h);
        for layer in &self.hidden {
            dense_batch(variant, layer, b, h, z);
            Relu::infer(z);
            for (a, &v) in h.iter_mut().zip(z.iter()) {
                *a += v;
            }
        }
        let out = &mut out[..self.n_out * b];
        dense_batch(variant, &self.output, b, h, out);
        for smp in 0..b {
            for o in 0..self.n_out {
                ys[smp * self.n_out + o] = out[o * b + smp];
            }
        }
    }
}

/// FLOPs [`TendencyCnn::infer_batch`] issues for a block of `b` samples —
/// computed from the exact GEMM shapes the lowering performs (one per conv
/// layer). Equals `b × TendencyCnn::flops()`, which the consistency test
/// pins.
pub fn cnn_batch_flops(net: &TendencyCnn, b: usize) -> u64 {
    let n = b * net.nlev;
    let conv = |c: &Conv1d| gemm_flops(c.c_out, n, c.c_in * c.ksize);
    conv(&net.input)
        + net
            .res
            .iter()
            .map(|r| conv(&r.conv1) + conv(&r.conv2))
            .sum::<u64>()
        + conv(&net.output)
}

/// FLOPs [`RadiationMlp::infer_batch`] issues for a block of `b` samples
/// (one GEMM per dense layer). Equals `b × RadiationMlp::flops()`.
pub fn mlp_batch_flops(net: &RadiationMlp, b: usize) -> u64 {
    let dense = |d: &Dense| gemm_flops(d.n_out, b, d.n_in);
    dense(&net.input) + net.hidden.iter().map(dense).sum::<u64>() + dense(&net.output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, seed: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i + 7 * seed) as f32 * 0.173).sin())
            .collect()
    }

    #[test]
    fn cnn_batch_is_bitwise_equal_to_per_column() {
        let net = TendencyCnn::new(10, 16, 3);
        for b in [1usize, 2, 3, 5, 8] {
            let xs: Vec<f32> = (0..b).flat_map(|s| sample(5 * 10, s)).collect();
            let mut ys = vec![0.0f32; b * 2 * 10];
            let mut scratch = CnnScratch::new();
            net.infer_batch(GemmVariant::default(), b, &xs, &mut ys, &mut scratch);
            for s in 0..b {
                let mut y1 = vec![0.0f32; 2 * 10];
                net.infer(&xs[s * 50..(s + 1) * 50], &mut y1);
                assert_eq!(&ys[s * 20..(s + 1) * 20], &y1[..], "b={b} sample {s}");
            }
        }
    }

    #[test]
    fn mlp_batch_is_bitwise_equal_to_per_column() {
        let net = RadiationMlp::with_outputs(12, 3, 16, 5);
        for b in [1usize, 2, 4, 7] {
            let xs: Vec<f32> = (0..b).flat_map(|s| sample(12, s)).collect();
            let mut ys = vec![0.0f32; b * 3];
            let mut scratch = MlpScratch::new();
            net.infer_batch(GemmVariant::default(), b, &xs, &mut ys, &mut scratch);
            for s in 0..b {
                let y1 = net.infer(&xs[s * 12..(s + 1) * 12]);
                assert_eq!(&ys[s * 3..(s + 1) * 3], &y1[..], "b={b} sample {s}");
            }
        }
    }

    #[test]
    fn batch_variants_agree_bitwise() {
        let net = TendencyCnn::new(12, 16, 2);
        let mlp = RadiationMlp::with_outputs(14, 3, 16, 4);
        for b in [1usize, 3, 5] {
            let xs: Vec<f32> = (0..b).flat_map(|s| sample(5 * 12, s)).collect();
            let mut y_sc = vec![0.0f32; b * 2 * 12];
            let mut y_simd = y_sc.clone();
            let mut cs = CnnScratch::new();
            net.infer_batch(GemmVariant::Scalar, b, &xs, &mut y_sc, &mut cs);
            net.infer_batch(GemmVariant::Simd, b, &xs, &mut y_simd, &mut cs);
            assert_eq!(y_sc, y_simd, "CNN variant mismatch at b={b}");

            let xm: Vec<f32> = (0..b).flat_map(|s| sample(14, s + 9)).collect();
            let mut z_sc = vec![0.0f32; b * 3];
            let mut z_simd = z_sc.clone();
            let mut ms = MlpScratch::new();
            mlp.infer_batch(GemmVariant::Scalar, b, &xm, &mut z_sc, &mut ms);
            mlp.infer_batch(GemmVariant::Simd, b, &xm, &mut z_simd, &mut ms);
            assert_eq!(z_sc, z_simd, "MLP variant mismatch at b={b}");
        }
    }

    #[test]
    fn scratch_arenas_stop_growing_after_first_call() {
        let net = TendencyCnn::new(8, 8, 1);
        let mlp = RadiationMlp::new(6, 8, 2);
        let mut cs = CnnScratch::new();
        let mut ms = MlpScratch::new();
        let xs = sample(4 * 5 * 8, 0);
        let mut ys = vec![0.0f32; 4 * 2 * 8];
        let xm = sample(4 * 6, 1);
        let mut ym = vec![0.0f32; 4 * 2];
        let v = GemmVariant::default();
        net.infer_batch(v, 4, &xs, &mut ys, &mut cs);
        mlp.infer_batch(v, 4, &xm, &mut ym, &mut ms);
        let (g1, g2) = (cs.grows(), ms.grows());
        assert!(g1 >= 1 && g2 >= 1);
        for _ in 0..5 {
            net.infer_batch(v, 4, &xs, &mut ys, &mut cs);
            mlp.infer_batch(v, 4, &xm, &mut ym, &mut ms);
            // A smaller batch must reuse the large-batch buffers too.
            net.infer_batch(v, 2, &xs[..2 * 5 * 8], &mut ys[..2 * 2 * 8], &mut cs);
            mlp.infer_batch(v, 2, &xm[..2 * 6], &mut ym[..2 * 2], &mut ms);
        }
        assert_eq!(cs.grows(), g1, "CNN scratch reallocated in steady state");
        assert_eq!(ms.grows(), g2, "MLP scratch reallocated in steady state");
    }

    #[test]
    fn batch_flops_are_exactly_b_times_single_column() {
        let net = TendencyCnn::new(16, 64, 9);
        let mlp = RadiationMlp::with_outputs(34, 3, 64, 9);
        for b in [1u64, 3, 32, 33] {
            assert_eq!(cnn_batch_flops(&net, b as usize), b * net.flops());
            assert_eq!(mlp_batch_flops(&mlp, b as usize), b * mlp.flops());
        }
    }

    #[test]
    fn im2col_materializes_zero_padding() {
        // 1 channel, k=3, len=4, one sample: rows are shifted copies with
        // zeros at the out-of-range edge.
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let mut col = vec![9.0f32; 3 * 4];
        im2col(&x, SampleLayout::stage(4, 1), 1, 1, 3, 4, &mut col);
        assert_eq!(&col[0..4], &[0.0, 1.0, 2.0, 3.0]); // k=0, shift −1
        assert_eq!(&col[4..8], &[1.0, 2.0, 3.0, 4.0]); // k=1, centred
        assert_eq!(&col[8..12], &[2.0, 3.0, 4.0, 0.0]); // k=2, shift +1
    }

    #[test]
    fn batch_of_zero_columns_is_a_noop() {
        let net = TendencyCnn::new(4, 4, 1);
        let mut scratch = CnnScratch::new();
        net.infer_batch(GemmVariant::default(), 0, &[], &mut [], &mut scratch);
        assert_eq!(scratch.grows(), 0);
    }
}
