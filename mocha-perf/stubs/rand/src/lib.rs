//! Std-only stand-in for the part of `rand` 0.8 the Mocha crates use: a
//! seedable generator with `gen_bool`, `gen_range` and `gen`. The stream
//! is SplitMix64-seeded xoshiro256++, not the ChaCha12 of the real
//! `StdRng`, so simulator runs repeat for a seed but do not match runs
//! made with the published crate.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Core source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a function of `seed` alone.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range a value can be drawn from uniformly.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw from `[0, span)` without modulo bias (Lemire's method,
/// widening multiply with rejection).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(span);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u128::from(u64::MAX) {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        self.start + (self.end - self.start) * unit_f64(rng)
    }
}

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_ints {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng)
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Convenience draws on top of [`RngCore`].
pub trait Rng: RngCore {
    /// A value of `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value drawn uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ seeded through SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// The small generator is the same algorithm.
    pub type SmallRng = StdRng;

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}
