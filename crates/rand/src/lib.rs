//! A minimal, dependency-free stand-in for the `rand` crate.
//!
//! The container this workspace builds in has no network access to a crates
//! registry, so external dependencies cannot resolve. This crate keeps the
//! `use rand::...` call sites across the workspace compiling by providing the
//! small API surface they actually use:
//!
//! * [`rngs::StdRng`] — a deterministic xoshiro256** generator
//! * [`SeedableRng::seed_from_u64`] — SplitMix64 seed expansion
//! * [`Rng::gen_range`] — uniform sampling from half-open ranges
//!   (`f32`, `f64`, and the common integer types)
//! * [`seq::SliceRandom::shuffle`] — Fisher–Yates shuffle
//!
//! It makes no attempt to be stream-compatible with the real `rand 0.8`;
//! everything in the workspace that consumes randomness only relies on
//! determinism for a fixed seed, which this provides.

use std::ops::Range;

/// Core random source: everything is derived from `next_u64`.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform f64 in `[0, 1)` using the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform f32 in `[0, 1)` using the top 24 bits.
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Types that can be sampled uniformly from a `Range<T>`.
pub trait SampleUniform: Sized {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: &Range<Self>) -> Self;
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: &Range<Self>) -> Self {
        range.start + (range.end - range.start) * rng.next_f64()
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: &Range<Self>) -> Self {
        range.start + (range.end - range.start) * rng.next_f32()
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: &Range<Self>) -> Self {
                let span = (range.end as i128 - range.start as i128) as u128;
                assert!(span > 0, "gen_range called with an empty range");
                // Multiply-shift rejection-free mapping; bias is < 2^-64 and
                // irrelevant for the simulation workloads using this shim.
                let r = rng.next_u64() as u128;
                let v = (r * span) >> 64;
                (range.start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(usize, u64, u32, i64, i32);

/// The subset of `rand::Rng` the workspace uses.
pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, &range)
    }

    /// A uniform value in `[0, 1)` (f64) — parity with `rand::Rng::gen`.
    fn gen(&mut self) -> f64 {
        self.next_f64()
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator, seeded via SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::Rng;

    /// The subset of `rand::seq::SliceRandom` the workspace uses.
    pub trait SliceRandom {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            // Fisher–Yates.
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0usize..i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0.0..1.0), b.gen_range(0.0..1.0));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen_range(-3.0..5.0);
            assert!((-3.0..5.0).contains(&x));
            let y: f32 = rng.gen_range(-0.5f32..0.5f32);
            assert!((-0.5..0.5).contains(&y));
            let k: usize = rng.gen_range(0usize..17);
            assert!(k < 17);
            let s: i32 = rng.gen_range(-4i32..4);
            assert!((-4..4).contains(&s));
        }
    }

    #[test]
    fn values_spread_over_the_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lo = 0;
        let mut hi = 0;
        for _ in 0..1000 {
            if rng.gen_range(0.0..1.0) < 0.5 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        assert!(lo > 350 && hi > 350, "lo={lo} hi={hi}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left slice sorted");
    }
}
