//! Precision-switchable arithmetic — the Rust rendering of GRIST's custom
//! `ns` Fortran kind (§3.4.3).
//!
//! The paper manages mixed precision by declaring precision-*insensitive*
//! variables with a custom kind `ns` that is compiled as either `real(4)` or
//! `real(8)`. Here the dynamical core is generic over a [`Real`] trait with
//! `f32` and `f64` implementations; a [`PrecisionMode`] selects which
//! instantiation runs. Precision-*sensitive* terms (pressure gradient,
//! gravity/buoyancy, and the accumulated mass flux `δπV`, §3.4.2) always
//! compute and accumulate in `f64` regardless of the mode.

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar usable by the dynamical core.
pub trait Real:
    Copy
    + Clone
    + Debug
    + Default
    + PartialOrd
    + PartialEq
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    const ZERO: Self;
    const ONE: Self;
    /// Bytes per element — used by the roofline performance model.
    const BYTES: usize;
    /// Human-readable name ("f32"/"f64").
    const NAME: &'static str;

    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    fn abs(self) -> Self;
    fn sqrt(self) -> Self;
    fn powf(self, e: Self) -> Self;
    fn exp(self) -> Self;
    fn ln(self) -> Self;
    fn max(self, o: Self) -> Self;
    fn min(self, o: Self) -> Self;
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Write the IEEE-754 bit pattern, little-endian, into `dst`
    /// (`dst.len() == Self::BYTES`) — no widening, no rounding.
    fn write_le(self, dst: &mut [u8]);
    /// Inverse of [`Self::write_le`] (`src.len() == Self::BYTES`).
    fn read_le(src: &[u8]) -> Self;

    #[inline]
    fn from_usize(n: usize) -> Self {
        Self::from_f64(n as f64)
    }
}

macro_rules! impl_real {
    ($t:ty, $name:literal) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const BYTES: usize = std::mem::size_of::<$t>();
            const NAME: &'static str = $name;

            #[inline]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn powf(self, e: Self) -> Self {
                <$t>::powf(self, e)
            }
            #[inline]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline]
            fn max(self, o: Self) -> Self {
                <$t>::max(self, o)
            }
            #[inline]
            fn min(self, o: Self) -> Self {
                <$t>::min(self, o)
            }
            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline]
            fn write_le(self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src.try_into().expect("chunk is Self::BYTES wide"))
            }
        }
    };
}

impl_real!(f32, "f32");
impl_real!(f64, "f64");

/// Which instantiation of the precision-generic solver runs (Table 3's
/// "Dycore" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecisionMode {
    /// Everything in `f64` — the gold standard of §3.4.1.
    Double,
    /// Insensitive terms in `f32`, sensitive terms in `f64` (§3.4.2).
    Mixed,
}

impl PrecisionMode {
    pub fn label(self) -> &'static str {
        match self {
            PrecisionMode::Double => "DP",
            PrecisionMode::Mixed => "MIX",
        }
    }
}

/// Relative L2 norm of the difference between a test field and the
/// double-precision reference — the paper's §3.4.1 metric for `ps` and `vor`,
/// with its 5% acceptance threshold.
pub fn relative_l2_error(test: &[f64], gold: &[f64]) -> f64 {
    assert_eq!(test.len(), gold.len());
    let mut num = 0.0;
    let mut den = 0.0;
    for (&t, &g) in test.iter().zip(gold) {
        num += (t - g) * (t - g);
        den += g * g;
    }
    if den == 0.0 {
        return if num == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (num / den).sqrt()
}

/// The paper's acceptance threshold for mixed-precision deviations (§3.4.1).
pub const MIXED_PRECISION_ERROR_THRESHOLD: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip_and_constants() {
        assert_eq!(f32::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(<f32 as Real>::BYTES, 4);
        assert_eq!(<f64 as Real>::BYTES, 8);
        assert_eq!(<f32 as Real>::NAME, "f32");
    }

    #[test]
    fn generic_arithmetic_matches_native() {
        fn poly<R: Real>(x: R) -> R {
            x.mul_add(x, R::ONE) + x.sqrt()
        }
        let a = poly(2.0f64);
        let b = poly(2.0f32) as f64;
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn relative_l2_is_zero_for_identical_fields() {
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(relative_l2_error(&x, &x), 0.0);
    }

    #[test]
    fn relative_l2_scales_linearly_with_perturbation() {
        let gold = vec![1.0; 100];
        let t1: Vec<f64> = gold.iter().map(|g| g + 0.01).collect();
        let t2: Vec<f64> = gold.iter().map(|g| g + 0.02).collect();
        let e1 = relative_l2_error(&t1, &gold);
        let e2 = relative_l2_error(&t2, &gold);
        assert!((e2 / e1 - 2.0).abs() < 1e-12);
        assert!((e1 - 0.01).abs() < 1e-12);
    }

    #[test]
    fn relative_l2_handles_zero_reference() {
        let z = vec![0.0; 4];
        assert_eq!(relative_l2_error(&z, &z), 0.0);
        assert!(relative_l2_error(&[1.0, 0.0, 0.0, 0.0], &z).is_infinite());
    }

    #[test]
    fn f32_field_stays_under_paper_threshold_for_smooth_data() {
        // Casting a smooth field to f32 and back must deviate far less than
        // the 5% gate — sanity check on the gate itself.
        let gold: Vec<f64> = (0..1000).map(|i| 1.0 + (i as f64 * 0.01).sin()).collect();
        let test: Vec<f64> = gold.iter().map(|&g| g as f32 as f64).collect();
        assert!(relative_l2_error(&test, &gold) < MIXED_PRECISION_ERROR_THRESHOLD / 1000.0);
    }
}
