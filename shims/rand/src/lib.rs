//! Offline shim for the subset of `rand 0.9` this workspace uses.
//!
//! `StdRng` is a SplitMix64 generator (Steele et al. 2014): tiny, fast,
//! statistically fine for simulation workloads, and — the property this
//! repo actually relies on — fully deterministic per seed. The API mirrors
//! `rand 0.9` names (`random`, `random_range`, `random_bool`,
//! `seed_from_u64`, `seq::SliceRandom::shuffle`) so call sites are
//! source-compatible with the real crate.

/// Core random source: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types samplable uniformly from an `RngCore` ("standard" distribution).
pub trait StandardUniform: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardUniform for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardUniform for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardUniform for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardUniform for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types with uniform sampling over a half-open `lo..hi` range.
pub trait UniformRange: PartialOrd + Copy {
    /// Draws uniformly from `[lo, hi)`. Panics when `lo >= hi`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_uint {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in random_range");
                let span = (hi - lo) as u64;
                // Multiply-shift bounded sampling (Lemire); the slight
                // modulo-free bias is irrelevant at simulation scale and,
                // crucially, deterministic.
                let hi128 = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                lo + hi128 as $t
            }
        }
    )*};
}
impl_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_int {
    ($($t:ty : $u:ty),*) => {$(
        impl UniformRange for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in random_range");
                let span = (hi as i128 - lo as i128) as u128;
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}
impl_uniform_int!(i8: u8, i16: u16, i32: u32, i64: u64, isize: usize);

macro_rules! impl_uniform_float {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in random_range");
                let u = <$t as StandardUniform>::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
impl_uniform_float!(f32, f64);

/// The user-facing sampling interface (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// A value from the standard distribution (uniform for ints/floats).
    fn random<T: StandardUniform>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from `lo..hi`.
    fn random_range<T: UniformRange>(&mut self, range: core::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Constructs the generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Named RNG types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic SplitMix64 generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (public domain, Sebastiano Vigna).
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // One mixing round so that nearby seeds start decorrelated.
            let mut rng = StdRng { state };
            let _ = rng.next_u64();
            Self { state: state ^ rng.next_u64().rotate_left(17) }
        }
    }
}

/// Slice utilities (subset of `rand::seq`).
pub mod seq {
    use super::Rng;

    /// Random slice operations.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..i + 1);
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
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.random();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.random_range(10u32..20);
            assert!((10..20).contains(&v));
            let f = rng.random_range(-2.0f32..3.0);
            assert!((-2.0..3.0).contains(&f));
            let i = rng.random_range(-5i32..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn bool_probability_is_roughly_honoured() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
    }
}
