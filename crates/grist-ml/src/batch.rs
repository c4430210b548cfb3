//! Batched inference: the physics networks over blocks of columns.
//!
//! `MlSuite` packs blocks of `B` columns into row-major `[B × n_in]` stage
//! matrices; this module runs the whole block through both networks:
//!
//! * `Conv1d` (k = 3) → **one weight-stationary register tile** swept over
//!   the layer ("implicit GEMM": the receptive field is read in place, never
//!   gathered into a receptive-field matrix). Activations are position-major
//!   `[B × (nlev + 2) × ch]`: row `1 + p` of a sample holds level `p`'s `ch`
//!   channel values, and one zero row sits above and one below each sample.
//!   A tile computes `MR` = 5 levels × `NR` = 16 output channels (two `F32x8`
//!   groups per level) from the `MR + 2` rows around them, streaming the
//!   conv's K-major weight `[(c_in·3) × c_out]` as stored — one `NR`-wide
//!   row per `(ci, tap)`. The zero rows supply the padding taps. The input
//!   conv first transposes the stage matrix into this layout; ReLU and the
//!   ResUnit's residual add are applied as the tile is stored. The 1 × 1
//!   head reads the layout and writes the per-sample output rows directly.
//! * `Dense` → **GEMM on feature-major panels**. Activations live as
//!   `[width × B]` (one transpose on entry, one on exit), `C` starts at zero
//!   and the bias is added after — the per-column kernel computes
//!   `bias + acc`, the batched one `acc + bias`; f32 addition is
//!   commutative, so the results are bitwise identical.
//!
//! Every conv output element starts from its bias and adds `w · x` for
//! `(ci, tap)` in increasing order, one unfused multiply and one add each —
//! the order `Conv1d::infer` visits — and [`gemm_nn`](crate::gemm::gemm_nn)
//! accumulates each dense output strictly in increasing-`k` order (see
//! `gemm.rs`). So **batched and per-column inference agree bit for bit**
//! (the only nominal difference is that zero padding contributes explicit
//! `w · 0.0` terms, which cannot change a sum). That property is what lets
//! the substrate's degrade-to-serial fault path and the chaos suite's
//! bitwise-determinism tests keep holding with the batched engine wired in.
//!
//! All intermediate storage comes from caller-provided scratch arenas
//! ([`CnnScratch`], [`MlpScratch`]) that only grow on
//! first use (or a larger batch) and count every growth — the zero-alloc
//! steady-state acceptance test asserts the counters stop moving.

use crate::gemm::gemm_flops;
use crate::gemm::simd::{gemm_nn_simd, F32x8, Lanes, LANE_WIDTH};
use crate::models::{RadiationMlp, TendencyCnn, CNN_INPUT_CHANNELS, CNN_OUTPUT_CHANNELS};
use crate::tensor::{relu, Conv1d, Dense};

/// Levels per conv register tile: with [`NR`], 10 accumulator vectors, two
/// weight vectors and one broadcast in 16 256-bit registers. It beat seven
/// other shapes on a 32-column CNN block (DESIGN.md §7 has the sweep).
const MR: usize = 5;
/// Output channels per conv register tile: two `F32x8` groups.
const NR: usize = 2 * LANE_WIDTH;
/// Taps of every conv the tile runs (the 1 × 1 head has its own loop).
const TAPS: usize = 3;

/// What a conv tile does to each finished accumulator as it stores it.
#[derive(Clone, Copy)]
enum Epilogue<'a> {
    /// `max(v, 0)`: the ReLU after the input conv and a ResUnit's first conv.
    Relu,
    /// `v + skip`: a ResUnit's residual add; `skip` is laid out as the output.
    Residual(&'a [f32]),
}

impl Epilogue<'_> {
    /// The value stored at index `at` of the output window.
    #[inline(always)]
    fn apply(self, v: f32, at: usize) -> f32 {
        match self {
            Epilogue::Relu => v.max(0.0),
            Epilogue::Residual(skip) => v + skip[at],
        }
    }

    /// [`Self::apply`] on the lane group stored at `at..at + LANE_WIDTH`.
    #[inline(always)]
    fn apply_lanes(self, v: F32x8, at: usize) -> F32x8 {
        match self {
            Epilogue::Relu => F32x8(v.0.map(|x| x.max(0.0))),
            Epilogue::Residual(skip) => {
                let s = F32x8::load(&skip[at..]);
                F32x8(std::array::from_fn(|l| v.0[l] + s.0[l]))
            }
        }
    }

    /// The same epilogue on the output window starting at row `lo`.
    fn window(self, lo: usize, n: usize) -> Self {
        match self {
            Epilogue::Relu => Epilogue::Relu,
            Epilogue::Residual(skip) => Epilogue::Residual(&skip[lo..lo + n]),
        }
    }
}

/// One k = 3 conv over `b` padded samples: `x [b × (len + 2) × c_in]` to
/// the interior rows of `y [b × (len + 2) × c_out]` (its zero rows are not
/// written). Each sample's levels go in tiles of [`MR`], the leftover
/// levels one at a time; each tile's channels go [`NR`] at a time, the
/// leftover channels through the scalar [`edge`] tile.
fn conv3(conv: &Conv1d, b: usize, x: &[f32], y: &mut [f32], epi: Epilogue) {
    let (len, c_in, c_out) = (conv.len, conv.c_in, conv.c_out);
    assert_eq!(conv.ksize, TAPS, "the register tile runs k = 3 convs");
    let n_full = c_out - c_out % NR;
    for s in 0..b {
        let mut p = 0;
        while p < len {
            let r = if len - p >= MR { MR } else { 1 };
            // First output row; the receptive field starts one row above.
            let row0 = s * (len + 2) + 1 + p;
            let xw = &x[(row0 - 1) * c_in..(row0 + r + 1) * c_in];
            let yw = &mut y[row0 * c_out..(row0 + r) * c_out];
            let epi = epi.window(row0 * c_out, r * c_out);
            for c0 in (0..n_full).step_by(NR) {
                if r == MR {
                    tile::<MR>(conv, xw, c0, yw, epi);
                } else {
                    tile::<1>(conv, xw, c0, yw, epi);
                }
            }
            edge(conv, xw, n_full, r, yw, epi);
            p += r;
        }
    }
}

/// The `R × NR` register tile: output channels `c0..c0 + NR` of the `R`
/// levels whose receptive field is `xw` (`R + 2` rows of `c_in`). Each lane
/// owns one output element end to end: seeded from the bias, then one
/// unfused `acc + x·w` per `(ci, tap)` in increasing order.
#[inline(always)]
fn tile<const R: usize>(conv: &Conv1d, xw: &[f32], c0: usize, yw: &mut [f32], epi: Epilogue) {
    let (c_in, c_out, w, bias) = (conv.c_in, conv.c_out, &conv.weight, &conv.bias);
    let seed = [0, LANE_WIDTH].map(|off| F32x8::load(&bias[c0 + off..]));
    let mut acc = [seed; R];
    // Row `i + tap` of the window feeds level `i` at `tap`; every slice is
    // exactly `c_in` long, so the `ci` loop indexes without bounds checks.
    let rows: [[&[f32]; TAPS]; R] =
        std::array::from_fn(|i| std::array::from_fn(|t| &xw[(i + t) * c_in..][..c_in]));
    for ci in 0..c_in {
        let wrows: [&[f32]; TAPS] =
            std::array::from_fn(|t| &w[(ci * TAPS + t) * c_out + c0..][..NR]);
        for t in 0..TAPS {
            let wg = [F32x8::load(wrows[t]), F32x8::load(&wrows[t][LANE_WIDTH..])];
            for (a, row) in acc.iter_mut().zip(&rows) {
                let xv = F32x8::splat(row[t][ci]);
                a[0] = a[0].accum(xv, wg[0]);
                a[1] = a[1].accum(xv, wg[1]);
            }
        }
    }
    // Whole lane groups out: indexing the accumulators lane by lane would
    // keep them in memory across the `ci` loop.
    for (i, a) in acc.iter().enumerate() {
        for (g, &lanes) in a.iter().enumerate() {
            let at = i * c_out + c0 + g * LANE_WIDTH;
            epi.apply_lanes(lanes, at).store(&mut yw[at..]);
        }
    }
}

/// Output channels `c0..c_out` (fewer than [`NR`]) of `r` levels, one
/// scalar accumulator each, in the tile's order.
fn edge(conv: &Conv1d, xw: &[f32], c0: usize, r: usize, yw: &mut [f32], epi: Epilogue) {
    let (c_in, c_out, w) = (conv.c_in, conv.c_out, &conv.weight);
    for i in 0..r {
        for co in c0..c_out {
            let mut acc = conv.bias[co];
            for ci in 0..c_in {
                for t in 0..TAPS {
                    acc += xw[(i + t) * c_in + ci] * w[(ci * TAPS + t) * c_out + co];
                }
            }
            yw[i * c_out + co] = epi.apply(acc, i * c_out + co);
        }
    }
}

/// The 1 × 1 head: `ys[s][co][p] = bias[co] + Σ_ci w[ci][co] · x[s][1 + p][ci]`,
/// `ci` increasing, written straight into the per-sample output rows
/// `[b × c_out·len]`.
fn head(conv: &Conv1d, b: usize, x: &[f32], ys: &mut [f32]) {
    let (len, c_in, c_out) = (conv.len, conv.c_in, conv.c_out);
    debug_assert_eq!(conv.ksize, 1);
    for s in 0..b {
        for p in 0..len {
            let xr = &x[(s * (len + 2) + 1 + p) * c_in..][..c_in];
            for co in 0..c_out {
                let mut acc = conv.bias[co];
                for (&xv, wrow) in xr.iter().zip(conv.weight.chunks_exact(c_out)) {
                    acc += xv * wrow[co];
                }
                ys[(s * c_out + co) * len + p] = acc;
            }
        }
    }
}

/// Zero the row above and the row below each of `b` samples of a padded
/// `[b × (len + 2) × ch]` plane.
fn zero_pad_rows(plane: &mut [f32], b: usize, len: usize, ch: usize) {
    for sample in plane[..b * (len + 2) * ch].chunks_exact_mut((len + 2) * ch) {
        sample[..ch].fill(0.0);
        sample[(len + 1) * ch..].fill(0.0);
    }
}

/// One batched dense layer on feature-major panels: `y [n_out × B] = W · x`
/// then `+ bias` (bias after the dot product, as the per-column kernel
/// effectively computes — f32 addition commutes).
fn dense_batch(layer: &Dense, b: usize, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), layer.n_in * b);
    debug_assert_eq!(y.len(), layer.n_out * b);
    y.fill(0.0);
    gemm_nn_simd(layer.n_out, b, layer.n_in, &layer.weight, x, y);
    for o in 0..layer.n_out {
        let bias = layer.bias[o];
        for v in &mut y[o * b..(o + 1) * b] {
            *v += bias;
        }
    }
}

/// Scratch arena for [`TendencyCnn::infer_batch`]: the stage matrix in the
/// padded position-major layout and three ping-pong activation planes in
/// it. Grows only when first used or when the batch gets larger; every
/// growth increments [`Self::grows`].
#[derive(Debug, Clone, Default)]
pub struct CnnScratch {
    stage: Vec<f32>,
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
        let rows = b * (net.nlev + 2);
        let (stage_n, act_n) = (rows * CNN_INPUT_CHANNELS, rows * net.channels);
        if self.stage.len() < stage_n || self.act_a.len() < act_n {
            self.grows += 1;
            if self.stage.len() < stage_n {
                self.stage.resize(stage_n, 0.0);
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

impl TendencyCnn {
    /// Batched inference on `b` *normalized* samples.
    ///
    /// `xs` is the packed stage matrix `[b × 5·nlev]` (row-major per
    /// sample), `ys` receives `[b × 2·nlev]` normalized outputs. Bitwise
    /// identical to calling [`TendencyCnn::infer`] per sample.
    pub fn infer_batch(&self, b: usize, xs: &[f32], ys: &mut [f32], s: &mut CnnScratch) {
        let (nlev, ch) = (self.nlev, self.channels);
        assert_eq!(xs.len(), b * CNN_INPUT_CHANNELS * nlev);
        assert_eq!(ys.len(), b * CNN_OUTPUT_CHANNELS * nlev);
        if b == 0 {
            return;
        }
        s.reserve(self, b);
        let CnnScratch {
            stage,
            act_a,
            act_b,
            act_c,
            ..
        } = s;
        // Stage rows [5 × nlev] per sample → padded position-major rows.
        zero_pad_rows(stage, b, nlev, CNN_INPUT_CHANNELS);
        for (smp, x) in xs.chunks_exact(CNN_INPUT_CHANNELS * nlev).enumerate() {
            let rows = &mut stage[(smp * (nlev + 2) + 1) * CNN_INPUT_CHANNELS..];
            for (ci, profile) in x.chunks_exact(nlev).enumerate() {
                for (p, &v) in profile.iter().enumerate() {
                    rows[p * CNN_INPUT_CHANNELS + ci] = v;
                }
            }
        }
        let [mut a, h1, mut c] = [act_a, act_b, act_c].map(|p| {
            zero_pad_rows(p, b, nlev, ch);
            &mut p[..b * (nlev + 2) * ch]
        });
        conv3(&self.convs[0], b, stage, a, Epilogue::Relu);
        for [conv1, conv2] in self.units() {
            conv3(conv1, b, a, h1, Epilogue::Relu);
            conv3(conv2, b, h1, c, Epilogue::Residual(a));
            std::mem::swap(&mut a, &mut c);
        }
        head(&self.convs[self.convs.len() - 1], b, a, ys);
    }
}

impl RadiationMlp {
    /// Batched inference on `b` *normalized* samples: `xs` is `[b × n_in]`
    /// row-major, `ys` receives `[b × n_out]` normalized outputs. Bitwise
    /// identical to calling [`RadiationMlp::infer`] per sample: every dense
    /// layer is one [`gemm_nn_simd`], which keeps the scalar kernel's
    /// accumulation order.
    pub fn infer_batch(&self, b: usize, xs: &[f32], ys: &mut [f32], s: &mut MlpScratch) {
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
        dense_batch(&self.layers[0], b, xt, h);
        relu(h);
        for layer in self.hidden() {
            dense_batch(layer, b, h, z);
            relu(z);
            for (a, &v) in h.iter_mut().zip(z.iter()) {
                *a += v;
            }
        }
        let out = &mut out[..self.n_out * b];
        dense_batch(&self.layers[self.layers.len() - 1], b, h, out);
        for smp in 0..b {
            for o in 0..self.n_out {
                ys[smp * self.n_out + o] = out[o * b + smp];
            }
        }
    }
}

/// FLOPs [`TendencyCnn::infer_batch`] issues for a block of `b` samples —
/// the multiply–adds its conv layers perform, padding taps included (one
/// `c_out × b·nlev × c_in·ksize` product per layer). Equals
/// `b × TendencyCnn::flops()`, which the consistency test pins.
pub fn cnn_batch_flops(net: &TendencyCnn, b: usize) -> u64 {
    let n = b * net.nlev;
    let conv = |c: &Conv1d| gemm_flops(c.c_out, n, c.c_in * c.ksize);
    net.convs.iter().map(conv).sum()
}

/// FLOPs [`RadiationMlp::infer_batch`] issues for a block of `b` samples
/// (one GEMM per dense layer). Equals `b × RadiationMlp::flops()`.
pub fn mlp_batch_flops(net: &RadiationMlp, b: usize) -> u64 {
    let dense = |d: &Dense| gemm_flops(d.n_out, b, d.n_in);
    net.layers.iter().map(dense).sum()
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
    fn mlp_batch_is_bitwise_equal_to_per_column() {
        let net = RadiationMlp::with_outputs(12, 3, 16, 5);
        for b in [1usize, 2, 4, 7] {
            let xs: Vec<f32> = (0..b).flat_map(|s| sample(12, s)).collect();
            let mut ys = vec![0.0f32; b * 3];
            let mut scratch = MlpScratch::new();
            net.infer_batch(b, &xs, &mut ys, &mut scratch);
            for s in 0..b {
                let y1 = net.infer(&xs[s * 12..(s + 1) * 12]);
                assert_eq!(&ys[s * 3..(s + 1) * 3], &y1[..], "b={b} sample {s}");
            }
        }
    }
}
