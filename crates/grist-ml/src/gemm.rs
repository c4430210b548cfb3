//! One register-blocked, cache-tiled `f32` GEMM kernel — the "simplified,
//! unified computational pattern (primarily matrix multiplication)" that the
//! paper's AI-enhanced physics suite reduces to (§3.2.3, §3.3.4).
//!
//! Every `Dense` layer of the batched inference engine ([`crate::batch`])
//! lowers to exactly one call of [`simd::gemm_nn_simd`], the lane form of
//! [`gemm_nn`] (bit for bit the same), on transposed activation panels:
//! the radiation MLP's whole trunk, about 4 % of the suite's FLOPs. (The
//! CNN's convolutions run their own register tile over the padded
//! activations, with the same accumulation discipline.) Two properties are
//! load-bearing:
//!
//! 1. **Zero allocations.** The kernel works in place on caller-provided
//!    row-major slices; blocking is done with index arithmetic, not packing
//!    buffers, so the steady-state inference loop performs no heap traffic
//!    (asserted by the scratch-arena counters in `grist-core`).
//! 2. **Deterministic accumulation order.** Each output element `C[i][j]`
//!    accumulates its dot product strictly in increasing-`k` order with a
//!    single accumulator (the cache tiles partition `k` into contiguous
//!    panels visited in order, and the micro-kernel never splits `k` across
//!    partial sums). `C[i][j]`'s value is therefore *bitwise identical* to a
//!    naive `for k { c += a[k]*b[k] }` loop — which is exactly what the
//!    per-column `Dense::infer` path computes. Batched and per-column
//!    inference agree bit for bit, which keeps the substrate's
//!    degrade-to-serial fault path and the chaos suite's bitwise-determinism
//!    guarantees intact.
//!
//! Blocking parameters follow the classic three-level scheme (BLIS/GotoBLAS
//! loop nest, also the structure of the ESCAPE weather-dwarf GEMM ports):
//! an `MR × NR` register tile accumulated over a `KC`-deep panel, swept over
//! `MC × NC` cache blocks. The sizes below target a ~32 KB L1 / 256 KB
//! L2-per-core host (and map directly onto a 256 KB CPE LDM: one `MC × KC`
//! A-panel plus a `KC × NR` B-sliver fit comfortably).

pub mod simd;

/// Rows of the register tile (accumulators live in `MR × NR` registers).
pub const MR: usize = 4;
/// Columns of the register tile — 8 f32 lanes, one AVX2/VSX vector.
pub const NR: usize = 8;
/// Rows of A per cache block.
pub const MC: usize = 64;
/// Depth of the k-panel held in cache (f32 elements).
pub const KC: usize = 192;
/// Columns of B per cache block.
pub const NC: usize = 512;

/// FLOPs of one `C[m×n] += A[m×k]·B[k×n]` invocation (mul+add per term).
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

/// `C[m×n] += A[m×k] · B[k×n]`, all row-major and contiguous (leading
/// dimensions `k`, `n`, `n`).
///
/// The caller owns the initial contents of `C` (bias rows, zeros, or a
/// residual), which is how bias addition stays in the same accumulation
/// order as the per-column reference kernels.
pub fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    assert_eq!(c.len(), m * n, "C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Cache blocking: jc over NC columns of B/C, pc over KC-deep panels
    // (visited in increasing k order — see the determinism note above),
    // ic over MC rows of A/C.
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                block_kernel(a, b, c, k, n, ic, jc, pc, mc, nc, kc);
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// One `mc × nc` cache block of C, accumulated over a `kc`-deep panel:
/// swept by `MR × NR` register tiles with scalar edge tiles.
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_kernel(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    lda_k: usize,
    ldn: usize,
    ic: usize,
    jc: usize,
    pc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
) {
    let mut ir = 0;
    while ir < mc {
        let mr = MR.min(mc - ir);
        let mut jr = 0;
        while jr < nc {
            let nr = NR.min(nc - jr);
            let i0 = ic + ir;
            let j0 = jc + jr;
            if mr == MR && nr == NR {
                micro_full(a, b, c, lda_k, ldn, i0, j0, pc, kc);
            } else {
                micro_edge(a, b, c, lda_k, ldn, i0, j0, pc, kc, mr, nr);
            }
            jr += NR;
        }
        ir += MR;
    }
}

/// The full `MR × NR` register tile: `MR·NR` independent accumulators, each
/// walking `k` sequentially (one accumulator per output element — never
/// split, preserving bitwise dot-product order). The `j` loop over `NR`
/// contiguous lanes auto-vectorizes.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_full(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    lda_k: usize,
    ldn: usize,
    i0: usize,
    j0: usize,
    pc: usize,
    kc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        let base = (i0 + i) * ldn + j0;
        row.copy_from_slice(&c[base..base + NR]);
    }
    for p in 0..kc {
        let bp = &b[(pc + p) * ldn + j0..(pc + p) * ldn + j0 + NR];
        for (i, row) in acc.iter_mut().enumerate() {
            let av = a[(i0 + i) * lda_k + pc + p];
            for (cv, &bv) in row.iter_mut().zip(bp) {
                *cv += av * bv;
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        let base = (i0 + i) * ldn + j0;
        c[base..base + NR].copy_from_slice(row);
    }
}

/// Edge tile (`mr < MR` or `nr < NR`): same accumulation discipline,
/// scalar-indexed.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_edge(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    lda_k: usize,
    ldn: usize,
    i0: usize,
    j0: usize,
    pc: usize,
    kc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate().take(mr) {
        let base = (i0 + i) * ldn + j0;
        row[..nr].copy_from_slice(&c[base..base + nr]);
    }
    for p in 0..kc {
        let brow = (pc + p) * ldn + j0;
        for (i, row) in acc.iter_mut().enumerate().take(mr) {
            let av = a[(i0 + i) * lda_k + pc + p];
            for (j, cv) in row.iter_mut().enumerate().take(nr) {
                *cv += av * b[brow + j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(mr) {
        let base = (i0 + i) * ldn + j0;
        c[base..base + nr].copy_from_slice(&row[..nr]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The order-defining reference: a single accumulator seeded from C
    /// (the bias prefill), then products added in increasing-k order — the
    /// loop `Conv1d::infer` runs per output element.
    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
    }

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 + seed as f32 * 0.7) * 0.137).sin())
            .collect()
    }

    #[test]
    fn matches_naive_bitwise_on_many_shapes() {
        // Shapes straddling every blocking boundary: register-tile tails,
        // KC/MC/NC edges, degenerate dims.
        let shapes = [
            (1, 1, 1),
            (3, 5, 7),
            (MR, NR, KC),
            (MR + 1, NR + 1, KC + 1),
            (MC, NC.min(64), 40),
            (MC + 3, 70, KC + 5),
            (2, 515, 9),
            (128, 192, 15),
            (5, 8, 400),
        ];
        for &(m, n, k) in &shapes {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut c1 = fill(m * n, 3); // nonzero init: C += semantics
            let mut c2 = c1.clone();
            gemm_nn(m, n, k, &a, &b, &mut c1);
            naive(m, n, k, &a, &b, &mut c2);
            assert_eq!(c1, c2, "bitwise mismatch at shape {m}x{n}x{k}");
        }
    }

    #[test]
    fn accumulates_rather_than_overwrites() {
        let a = vec![1.0f32; 2 * 3];
        let b = vec![1.0f32; 3 * 2];
        let mut c = vec![10.0f32; 4];
        gemm_nn(2, 2, 3, &a, &b, &mut c);
        assert_eq!(c, vec![13.0; 4]);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = vec![1.0f32; 4];
        gemm_nn(0, 0, 0, &[], &[], &mut []);
        gemm_nn(2, 2, 0, &[], &[], &mut c);
        assert_eq!(c, vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "A shape mismatch")]
    fn shape_mismatch_panics() {
        let mut c = vec![0.0f32; 4];
        gemm_nn(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }

    #[test]
    fn flops_count_is_2mnk() {
        assert_eq!(gemm_flops(3, 5, 7), 2 * 3 * 5 * 7);
    }
}
