//! Offline, in-tree stand-in for the parts of the `rand` crate this
//! workspace uses. The build environment has no crates.io access, so the
//! workspace vendors a deterministic, dependency-free subset:
//!
//! * [`rngs::SmallRng`] — an xoshiro256++ generator seeded via SplitMix64;
//! * [`Rng`] — `gen`, `gen_range`, `gen_bool`;
//! * [`SeedableRng::seed_from_u64`];
//! * [`seq::SliceRandom::shuffle`] / [`seq::SliceRandom::choose`] and
//!   [`seq::index::sample`].
//!
//! The streams are *not* bit-compatible with upstream `rand`; every
//! consumer in this workspace only requires determinism per seed, which
//! this implementation guarantees (no global state, no OS entropy).

use std::ops::{Range, RangeInclusive};

/// Low-level 64-bit generator interface.
pub trait RngCore {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, deterministic per seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types producible uniformly from raw random bits (the shim's stand-in
/// for `Standard: Distribution<T>`).
pub trait FromRng {
    /// Draws one uniform value.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl FromRng for f64 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl FromRng for u64 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl FromRng for usize {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl FromRng for bool {
    #[inline]
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one uniform value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased integer draw in `[0, bound)` via Lemire-style rejection.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "cannot sample from an empty range");
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    let zone = u64::MAX - (u64::MAX % bound) - 1;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % bound;
        }
    }
}

macro_rules! int_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from an empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + uniform_below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

int_range_impl!(usize, u64, u32, i64, i32);

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from an empty range");
        self.start + f64::from_rng(rng) * (self.end - self.start)
    }
}

/// High-level convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw of `T` (`f64` in `[0, 1)`, full-width integers).
    #[inline]
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Uniform draw from `range`.
    #[inline]
    fn gen_range<Rg: SampleRange>(&mut self, range: Rg) -> Rg::Output {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool p out of range");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++, seeded through SplitMix64 — small, fast, and
    /// deterministic per seed.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            SmallRng { s }
        }
    }

    impl SmallRng {
        /// The raw xoshiro256++ state words — for checkpoint/restore of
        /// consumers whose future random stream must survive a process
        /// restart bit-exactly (e.g. reservoir sampling snapshots).
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator mid-stream from saved state words; the
        /// stream continues exactly where [`SmallRng::state`] captured it.
        pub fn from_state(s: [u64; 4]) -> Self {
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }

    /// Alias: the shim does not distinguish the std generator.
    pub type StdRng = SmallRng;
}

pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffle/choose over slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
        /// Uniformly chosen element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }

    pub mod index {
        use crate::{Rng, RngCore};

        /// Result of [`sample`]: distinct indices in `[0, length)`.
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            /// Iterates over the sampled indices.
            pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
                self.0.iter().copied()
            }

            /// Number of sampled indices.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// True when nothing was sampled.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        /// Samples `amount` distinct indices from `[0, length)` via a
        /// partial Fisher–Yates pass (O(length) memory, exact).
        pub fn sample<R: RngCore + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(
                amount <= length,
                "cannot sample {amount} distinct indices from {length}"
            );
            let mut pool: Vec<usize> = (0..length).collect();
            let mut out = Vec::with_capacity(amount);
            for i in 0..amount {
                let j = rng.gen_range(i..length);
                pool.swap(i, j);
                out.push(pool[i]);
            }
            IndexVec(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::{index::sample, SliceRandom};
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        let mut c = SmallRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen::<u64>()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen::<u64>()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.gen::<u64>()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn state_round_trip_resumes_the_stream_exactly() {
        let mut a = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            a.gen::<u64>();
        }
        let mut b = SmallRng::from_state(a.state());
        let va: Vec<u64> = (0..32).map(|_| a.gen::<u64>()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.gen::<u64>()).collect();
        assert_eq!(va, vb, "restored stream must continue bit-exactly");
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..1_000 {
            let v = rng.gen_range(5..10usize);
            assert!((5..10).contains(&v));
            let f = rng.gen_range(-1.0..1.0f64);
            assert!((-1.0..1.0).contains(&f));
            let i = rng.gen_range(0..100i32);
            assert!((0..100).contains(&i));
        }
        let hits: std::collections::HashSet<usize> =
            (0..200).map(|_| rng.gen_range(0..4usize)).collect();
        assert_eq!(hits.len(), 4, "all range values reachable");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle moved something");
    }

    #[test]
    fn index_sample_is_distinct_and_in_range() {
        let mut rng = SmallRng::seed_from_u64(6);
        let s: Vec<usize> = sample(&mut rng, 50, 20).into_iter().collect();
        assert_eq!(s.len(), 20);
        let unique: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(unique.len(), 20);
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn choose_and_gen_bool() {
        let mut rng = SmallRng::seed_from_u64(7);
        let v = [1, 2, 3];
        assert!(v.choose(&mut rng).is_some());
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let trues = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((trues as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }
}
