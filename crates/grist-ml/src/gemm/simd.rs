//! Explicit-lane GEMM microkernel: the same BLIS blocking as the scalar
//! reference, with the register tile widened to `MR × 2·LANE_WIDTH` blocks
//! of a portable lane type.
//!
//! **The lane-grouping rule that preserves bitwise equivalence:** lanes run
//! across *independent output elements* (`NR_SIMD` adjacent columns of `C`),
//! never across the `k` reduction. Each `C[i][j]` keeps exactly one
//! accumulator lane that walks `k` strictly in increasing order, and every
//! lane step is an unfused multiply-then-add (`acc + a·b` as two IEEE ops,
//! matching the scalar kernel — [`Lanes::accum`] deliberately does *not*
//! use `f32::mul_add`). The lane kernel therefore performs, per output
//! element, the exact same sequence of IEEE-754 operations as the scalar
//! oracle, and the results agree bit for bit; this module's
//! `lane_kernel_is_bitwise_equal_to_scalar_oracle` and `grist gate ml`'s
//! probe compare the two with exact equality.
//!
//! What the lanes buy over the auto-vectorized scalar kernel is a larger
//! register tile (4×16 instead of 4×8: each B sliver load is amortized
//! over 4 A broadcasts and each broadcast over 2 slivers), the BLIS tile
//! order (`jr` outer, so one `KC × NR_SIMD` B sliver stays cache-hot
//! across every row tile), hoisted row slices (no per-`p` bounds checks in
//! the hot loop), and a guaranteed vector shape — `[f32; 8]` arrays that
//! LLVM lowers to full-width vector mul/add on any 256-bit target without
//! relying on the cost model.

use super::{block_kernel, KC, MC, NC};

/// f32 lanes per vector register group (AVX2/VSX width, and the SIMD width
/// the Sunway CPE model in `grist_ml::flops` assumes).
pub const LANE_WIDTH: usize = 8;
/// Lane groups per register-tile row: the SIMD tile is `MR_SIMD × NR_SIMD`.
pub const NR_GROUPS: usize = 2;
/// Columns of the SIMD register tile.
pub const NR_SIMD: usize = LANE_WIDTH * NR_GROUPS;
/// Rows of the SIMD register tile: 4×2 lane groups = 8 live accumulator
/// registers plus two B slivers and one broadcast on a 16-register
/// 256-bit target — comfortably spill-free (a 6-row tile measured slower
/// here: the extra accumulators push temporaries to the stack).
pub const MR_SIMD: usize = 4;

/// A portable lane group: a fixed-size block of `f32` elements on which all
/// arithmetic is elementwise and *unfused*, compiled to vector code via the
/// fixed array shape. The trait exists so kernels are written against lane
/// semantics, not a concrete width; [`F32x8`] is the only implementation
/// the shipped kernels instantiate.
pub trait Lanes: Copy {
    /// Number of f32 elements in the group.
    const WIDTH: usize;
    /// Broadcast one scalar to every lane.
    fn splat(v: f32) -> Self;
    /// Load `Self::WIDTH` consecutive elements from the head of `src`.
    fn load(src: &[f32]) -> Self;
    /// Store the lanes to the head of `dst`.
    fn store(self, dst: &mut [f32]);
    /// Elementwise `self + a·b` as two separate IEEE operations per lane
    /// (multiply, then add — never a fused multiply-add, which would round
    /// once instead of twice and break bitwise equivalence with the scalar
    /// oracle).
    fn accum(self, a: Self, b: Self) -> Self;
}

/// Eight f32 lanes — one AVX2/VSX register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32x8(pub [f32; LANE_WIDTH]);

impl Lanes for F32x8 {
    const WIDTH: usize = LANE_WIDTH;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        F32x8([v; LANE_WIDTH])
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let mut lanes = [0.0f32; LANE_WIDTH];
        lanes.copy_from_slice(&src[..LANE_WIDTH]);
        F32x8(lanes)
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..LANE_WIDTH].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn accum(self, a: Self, b: Self) -> Self {
        let mut out = self.0;
        for l in 0..LANE_WIDTH {
            // Two rounds: t = a·b, then acc + t. Matches `*cv += av * bv`.
            out[l] += a.0[l] * b.0[l];
        }
        F32x8(out)
    }
}

/// `C[m×n] += A[m×k] · B[k×n]` with the lane microkernel — bitwise
/// identical to [`super::gemm_nn`] (see the module docs for why).
pub fn gemm_nn_simd(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    assert_eq!(c.len(), m * n, "C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Identical cache blocking to the scalar kernel: k-panels visited in
    // increasing order, so per-element accumulation order is unchanged.
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                block_kernel_simd(a, b, c, k, n, ic, jc, pc, mc, nc, kc);
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// One `mc × nc` cache block: full `MR × NR_SIMD` lane tiles, with the
/// remainder strips delegated to the scalar block kernel (same per-element
/// order, so the seam is invisible in the bits).
#[allow(clippy::too_many_arguments)]
fn block_kernel_simd(
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
    let m_full = mc - mc % MR_SIMD;
    let n_full = nc - nc % NR_SIMD;
    // jr outer / ir inner (the BLIS order), with the B sliver *packed*:
    // each `KC × NR_SIMD` sliver is copied once into a contiguous p-major
    // stack buffer (12 KB — LDM-sized) and then re-read by every row tile
    // with sequential, bounds-check-free loads. Packing is a pure data
    // relayout amortized over `m_full / MR_SIMD` tiles; it changes no
    // arithmetic and no per-element order, so the bits are untouched.
    let mut bpack = [0.0f32; KC * NR_SIMD];
    let mut jr = 0;
    while jr < n_full {
        for p in 0..kc {
            let src = &b[(pc + p) * ldn + jc + jr..][..NR_SIMD];
            bpack[p * NR_SIMD..][..NR_SIMD].copy_from_slice(src);
        }
        let mut ir = 0;
        while ir < m_full {
            micro_simd::<F32x8>(a, &bpack, c, lda_k, ldn, ic + ir, jc + jr, pc, kc);
            ir += MR_SIMD;
        }
        jr += NR_SIMD;
    }
    if n_full < nc {
        block_kernel(
            a,
            b,
            c,
            lda_k,
            ldn,
            ic,
            jc + n_full,
            pc,
            m_full,
            nc - n_full,
            kc,
        );
    }
    if m_full < mc {
        block_kernel(
            a,
            b,
            c,
            lda_k,
            ldn,
            ic + m_full,
            jc,
            pc,
            mc - m_full,
            nc,
            kc,
        );
    }
}

/// The `MR_SIMD × NR_SIMD` lane tile: `MR_SIMD · NR_GROUPS` accumulator
/// groups, each lane owning one output element end to end. `bpack` is the
/// packed p-major B sliver (`kc × NR_SIMD` contiguous).
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_simd<L: Lanes>(
    a: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    lda_k: usize,
    ldn: usize,
    i0: usize,
    j0: usize,
    pc: usize,
    kc: usize,
) {
    let mut acc = [[L::splat(0.0); NR_GROUPS]; MR_SIMD];
    for (i, row) in acc.iter_mut().enumerate() {
        let cbase = &c[(i0 + i) * ldn + j0..];
        for (g, lane) in row.iter_mut().enumerate() {
            *lane = L::load(&cbase[g * L::WIDTH..]);
        }
    }
    // Hoist the A row slices so the p-loop indexes with no bounds checks.
    let arow: [&[f32]; MR_SIMD] = std::array::from_fn(|i| &a[(i0 + i) * lda_k + pc..][..kc]);
    let bpack = &bpack[..kc * NR_SIMD];
    for p in 0..kc {
        let brow = &bpack[p * NR_SIMD..][..NR_SIMD];
        let bg: [L; NR_GROUPS] = std::array::from_fn(|g| L::load(&brow[g * L::WIDTH..]));
        for (row, ar) in acc.iter_mut().zip(&arow) {
            let av = L::splat(ar[p]);
            for (lane, &bv) in row.iter_mut().zip(&bg) {
                *lane = lane.accum(av, bv);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        let cbase = &mut c[(i0 + i) * ldn + j0..];
        for (g, lane) in row.iter().enumerate() {
            lane.store(&mut cbase[g * L::WIDTH..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::gemm_nn;
    use super::*;

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 + seed as f32 * 0.7) * 0.137).sin())
            .collect()
    }

    #[test]
    fn lane_kernel_is_bitwise_equal_to_scalar_oracle() {
        // Shapes straddling the SIMD tile (4×16), the scalar remainder
        // strips, and every cache-blocking boundary.
        let shapes = [
            (1, 1, 1),
            (3, 5, 7),
            (MR_SIMD, NR_SIMD, KC),
            (MR_SIMD + 1, NR_SIMD + 1, KC + 1),
            (MR_SIMD, NR_SIMD - 1, 33),
            (MC, 64, 40),
            (MC + 3, 70, KC + 5),
            (2, 515, 9),
            (128, 192, 15),
            (5, 16, 400),
            (64, 512, 192),
        ];
        for &(m, n, k) in &shapes {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut c1 = fill(m * n, 3); // nonzero init: C += semantics
            let mut c2 = c1.clone();
            gemm_nn_simd(m, n, k, &a, &b, &mut c1);
            gemm_nn(m, n, k, &a, &b, &mut c2);
            assert_eq!(c1, c2, "bitwise mismatch at shape {m}x{n}x{k}");
        }
    }

    #[test]
    fn accum_is_unfused_mul_then_add() {
        // A witness triple where fma(a, b, c) != a*b + c in f32: the fused
        // form keeps the low product bits across the add.
        let a = 1.0 + f32::EPSILON;
        let b = 1.0 - f32::EPSILON;
        let c = -1.0f32;
        let two_round = a * b + c;
        assert_ne!(
            two_round,
            a.mul_add(b, c),
            "triple does not discriminate fma"
        );
        let lanes = F32x8::splat(c).accum(F32x8::splat(a), F32x8::splat(b));
        assert_eq!(lanes.0, [two_round; LANE_WIDTH]);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = vec![1.0f32; 4];
        gemm_nn_simd(0, 0, 0, &[], &[], &mut []);
        gemm_nn_simd(2, 2, 0, &[], &[], &mut c);
        assert_eq!(c, vec![1.0; 4]);
    }

    #[test]
    fn lane_load_store_round_trip() {
        let src: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let v = F32x8::load(&src[1..]);
        let mut dst = [0.0f32; 9];
        v.store(&mut dst[..8]);
        assert_eq!(&dst[..8], &src[1..9]);
    }
}
