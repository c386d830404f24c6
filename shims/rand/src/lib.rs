//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors the *subset* of the rand 0.8 API it actually uses.
//! `StdRng` here is xoshiro256++ seeded through SplitMix64: deterministic,
//! portable, and plenty good statistically for workload synthesis. It does
//! **not** produce the same streams as upstream `rand` — nothing in the
//! workspace depends on upstream's exact values, only on determinism, which
//! `charisma-verify gates determinism` enforces end to end.
//!
//! Deliberately absent: `thread_rng` and `from_entropy`. Every generator in
//! the simulation must be seeded explicitly (rule `CH004`), so the shim
//! does not offer ambient-entropy constructors and rustc rejects any call
//! to one (E0425/E0599).

pub mod rngs;
pub mod seq;

/// Core source of randomness: a 64-bit generator.
pub trait RngCore {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A generator constructible from a small seed.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that `Rng::gen` can produce from uniform bits.
pub trait Standard: Sized {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges usable with `Rng::gen_range`. Generic over the produced type so
/// the compiler infers untyped integer literals from the expected output,
/// matching upstream `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + (rng.next_u64() % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + (rng.next_u64() % (span + 1)) as i128) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::from_rng(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + f64::from_rng(rng) * (hi - lo)
    }
}

/// Convenience extension over [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform draw from a range.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        f64::from_rng(self) < p
    }

    /// Uniform draw of a whole value.
    fn gen<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..10u64);
            assert!((3..10).contains(&v));
            let f = rng.gen_range(-0.05..0.05);
            assert!((-0.05..0.05).contains(&f));
            let i = rng.gen_range(-80.0..=80.0);
            assert!((-80.0..=80.0).contains(&i));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
