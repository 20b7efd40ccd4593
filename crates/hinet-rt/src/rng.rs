//! Deterministic RNG: SplitMix64 seeding into xoshiro256\*\*, split streams.
//!
//! Every generator in this workspace is seeded, and independent streams are
//! derived by *splitting* rather than sequential draws, so adding a new
//! random decision to one component never perturbs another component's
//! stream. This is what makes experiment runs byte-for-byte reproducible
//! across refactors. The contract:
//!
//! * [`mix`] — SplitMix64-style finalisation of two words into one
//!   well-distributed word; used to derive stream ids.
//! * [`stream_rng`] — `(seed, stream) → Xoshiro256StarStar`: an independent
//!   child RNG per stream id, decorrelated even for adjacent ids.
//!
//! The generator itself is xoshiro256\*\* (Blackman–Vigna), seeded by
//! filling its 256-bit state from a SplitMix64 sequence — the seeding
//! procedure the xoshiro authors recommend. Both algorithms are public
//! domain and implemented here in-tree so the exact output streams are
//! owned by this workspace and pinned by golden-value tests.
//!
//! ```
//! use hinet_rt::rng::{stream_rng, Rng};
//!
//! // Same (seed, stream) → same draws; different streams → decorrelated.
//! let mut a = stream_rng(42, 7);
//! let mut b = stream_rng(42, 7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let mut c = stream_rng(42, 8);
//! assert_ne!(a.next_u64(), c.next_u64());
//! assert!(a.random_range(0..10usize) < 10);
//! ```

use std::ops::{Range, RangeInclusive};

/// SplitMix64 sequence generator (Steele–Lea–Flood), used to expand a
/// 64-bit seed into xoshiro's 256-bit state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start the sequence at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next word of the sequence.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// SplitMix64-style mixing of two words into one well-distributed word.
///
/// This is the stream-id derivation of the `(seed, stream)` splitting
/// contract: `stream_rng(seed, mix(tag, index))` gives every component its
/// own decorrelated stream keyed by a constant tag plus a running index.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive an independent child RNG from `(seed, stream)`.
///
/// Uses [`mix`] over the pair, which decorrelates even adjacent stream ids.
pub fn stream_rng(seed: u64, stream: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(mix(seed, stream))
}

/// xoshiro256\*\* — the workspace's pseudo-random generator.
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush; the all-zero state
/// (the one fixed point) is excluded at seeding time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed by expanding `seed` through [`SplitMix64`], as the xoshiro
    /// authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = sm.next_u64();
        }
        if s == [0; 4] {
            // The all-zero state is xoshiro's only fixed point.
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Xoshiro256StarStar { s }
    }
}

impl Rng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Types drawable uniformly from an RNG via [`Rng::random`].
pub trait Sample: Sized {
    /// Draw one value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for usize {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Sample for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Use a high bit: xoshiro's low bits are its weakest.
        rng.next_u64() >> 63 != 0
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Unbiased uniform draw in `[0, span)` via widening-multiply rejection
/// (Lemire). `span` must be nonzero.
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut m = (rng.next_u64() as u128) * (span as u128);
    let mut low = m as u64;
    if low < span {
        let threshold = span.wrapping_neg() % span;
        while low < threshold {
            m = (rng.next_u64() as u128) * (span as u128);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

/// Ranges drawable uniformly via [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range; panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $ty
            }
        }
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range {start}..={end}");
                match (end - start).checked_add(1) {
                    Some(span) => start + uniform_below(rng, span as u64) as $ty,
                    // Full-width range: every value is fair game.
                    None => rng.next_u64() as $ty,
                }
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let v = self.start + f64::sample(rng) * (self.end - self.start);
        // Rounding can land exactly on the excluded endpoint.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range {start}..={end}");
        start + f64::sample(rng) * (end - start)
    }
}

/// The workspace RNG surface: one required method, everything else derived.
pub trait Rng {
    /// Next raw 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Uniform draw of a [`Sample`] type (`u64`, `u32`, `usize`, `bool`,
    /// `f64` in `[0, 1)`).
    fn random<T: Sample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform draw from a range, e.g. `rng.random_range(0..n)` or
    /// `rng.random_range(0.1..0.9)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
        f64::sample(self) < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Random slice operations: in-place shuffle and uniform element choice.
pub trait SliceRandom {
    /// Element type.
    type Item;

    /// Uniform in-place Fisher–Yates shuffle.
    fn shuffle<R: Rng>(&mut self, rng: &mut R);

    /// A uniformly random element, or `None` if empty.
    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.random_range(0..=i);
            self.swap(i, j);
        }
    }

    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.random_range(0..self.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(0, 0), mix(0, 1));
    }

    #[test]
    fn adjacent_streams_decorrelated() {
        let mut a = stream_rng(42, 0);
        let mut b = stream_rng(42, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn same_stream_reproducible() {
        let mut a = stream_rng(7, 3);
        let mut b = stream_rng(7, 3);
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn reference_vector_xoshiro256starstar() {
        // First outputs from the canonical C implementation for state
        // {1, 2, 3, 4} (Blackman–Vigna reference code).
        let mut rng = Xoshiro256StarStar { s: [1, 2, 3, 4] };
        let expect: [u64; 6] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
        ];
        for e in expect {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn reference_vector_splitmix64() {
        // First outputs for seed 1234567 from the SplitMix64 reference.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
    }

    #[test]
    fn range_draws_stay_in_bounds() {
        let mut rng = stream_rng(1, 1);
        for _ in 0..2000 {
            let v = rng.random_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.random_range(5u64..=9);
            assert!((5..=9).contains(&w));
            let f = rng.random_range(-2.0..1.5f64);
            assert!((-2.0..1.5).contains(&f));
        }
    }

    #[test]
    fn range_draws_hit_every_value() {
        let mut rng = stream_rng(2, 0);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[rng.random_range(0..7usize)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "uniform draw misses values: {seen:?}"
        );
    }

    #[test]
    fn unit_interval_draws() {
        let mut rng = stream_rng(3, 0);
        let mut sum = 0.0;
        for _ in 0..4000 {
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 4000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut rng = stream_rng(4, 0);
        for _ in 0..100 {
            assert!(!rng.random_bool(0.0));
            assert!(rng.random_bool(1.0));
        }
        let hits = (0..4000).filter(|_| rng.random_bool(0.25)).count();
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} far from 0.25");
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bernoulli_rejects_bad_probability() {
        let _ = stream_rng(0, 0).random_bool(1.5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = stream_rng(0, 0).random_range(5usize..5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = stream_rng(5, 0);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // And it actually permutes (probability of identity is ~1/50!).
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = stream_rng(6, 0);
        let xs = [10, 20, 30];
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(*xs.choose(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn seeding_avoids_zero_state_and_differs_by_seed() {
        let a = Xoshiro256StarStar::seed_from_u64(0);
        let b = Xoshiro256StarStar::seed_from_u64(1);
        assert_ne!(a, b);
        let mut a = a;
        // A zero seed must still produce a working stream.
        let draws: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert!(draws.iter().any(|&d| d != 0));
    }

    #[test]
    fn full_width_inclusive_range() {
        let mut rng = stream_rng(7, 0);
        // Must not overflow or panic.
        let _ = rng.random_range(0u64..=u64::MAX);
        let _ = rng.random_range(0usize..=usize::MAX);
    }
}
