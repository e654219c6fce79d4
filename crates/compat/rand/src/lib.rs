//! Offline stand-in for the `rand` crate.
//!
//! The container this workspace builds in has no network access to a crate
//! registry, so the subset of the `rand` 0.8 API the workspace actually uses
//! is reimplemented here: the [`RngCore`]/[`Rng`]/[`SeedableRng`] traits,
//! uniform range sampling, and a deterministic [`rngs::StdRng`] built on
//! xoshiro256++ seeded through SplitMix64.
//!
//! The generator is *not* stream-compatible with upstream `rand`; only the
//! statistical quality and the determinism guarantees the simulations rely on
//! are preserved.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Error type returned by [`RngCore::try_fill_bytes`].
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "random number generator failure")
    }
}

impl std::error::Error for Error {}

/// The core of a random number generator.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
    /// Fallible variant of [`RngCore::fill_bytes`].
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types that can be sampled uniformly from the generator's full output
/// (the `Standard` distribution of upstream `rand`).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() as u8
    }
}

/// A range that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform integer in `[0, bound)` by rejection sampling (unbiased).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % bound;
        }
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Only reachable for the full u64/i64 domain.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_below(rng, span as u64) as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let unit = <$t as Standard>::sample(rng);
                let value = self.start + unit * (self.end - self.start);
                // `start + unit * span` can round up to exactly `end`; keep
                // the range half-open like upstream rand.
                if value < self.end {
                    value
                } else {
                    self.end.next_down().max(self.start)
                }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let unit = <$t as Standard>::sample(rng);
                start + unit * (end - start)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// User-facing random sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution of `T`
    /// (floats uniform in `[0, 1)`, integers over the full domain).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be instantiated from a seed.
pub trait SeedableRng: Sized {
    /// Seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Creates a generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64` via SplitMix64 key expansion.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64 { state };
        let bytes = seed.as_mut();
        let mut i = 0;
        while i < bytes.len() {
            let chunk = sm.next().to_le_bytes();
            let n = chunk.len().min(bytes.len() - i);
            bytes[i..i + n].copy_from_slice(&chunk[..n]);
            i += n;
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }

        /// The full internal state.  Feeding it back through
        /// [`StdRng::from_state`] resumes the exact output stream.
        #[cfg(test)]
        pub(crate) fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from a previously captured [`StdRng::state`].
        ///
        /// # Panics
        ///
        /// Panics on the all-zero state, which xoshiro cannot escape; it can
        /// only come from a hand-rolled value, never from `state()`.
        #[cfg(test)]
        pub(crate) fn from_state(s: [u64; 4]) -> Self {
            assert!(s.iter().any(|&w| w != 0), "xoshiro state must be non-zero");
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = Self::rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = Self::rotl(self.s[3], 45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            // xoshiro must not start from the all-zero state.
            if s.iter().all(|&w| w == 0) {
                s = [0x9E3779B97F4A7C15, 0x6A09E667F3BCC909, 1, 2];
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0usize..=5);
            assert!(y <= 5);
            let f = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn unit_floats_are_uniformish() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let frac_low = (0..n).filter(|_| rng.gen::<f64>() < 0.25).count() as f64 / n as f64;
        assert!((frac_low - 0.25).abs() < 0.01, "frac {frac_low}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        assert!(rng.try_fill_bytes(&mut buf).is_ok());
    }

    #[test]
    fn state_round_trips_through_checkpoint() {
        let mut a = StdRng::seed_from_u64(42);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = StdRng::from_state(a.state());
        assert_eq!(a, b);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn all_zero_state_is_rejected() {
        let _ = StdRng::from_state([0; 4]);
    }

    #[test]
    fn negative_integer_ranges() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.gen_range(-10i64..10);
            assert!((-10..10).contains(&v));
        }
    }
}
