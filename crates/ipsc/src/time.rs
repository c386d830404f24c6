//! Simulated time.
//!
//! All simulation time is kept in integer microseconds. The traced period in
//! the paper was about 156 hours, which is ~5.6e11 microseconds — far inside
//! `u64` range. Integer ticks keep the discrete-event engine exactly
//! deterministic across runs and platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// `x.round() as u64`, exactly, without a libm call.
///
/// The x86-64 baseline has no rounding instruction, so `f64::round` is a
/// library call; the latency, clock and disk models round once per message,
/// record or block. Truncate, then add one when the discarded fraction is
/// at least one half: below 2^53 the fraction `x - t` is exact, and from
/// 2^53 on every `f64` is an integer. Negative values, `-0.0` and NaN give
/// 0 and values from 2^64 on (and +inf) give `u64::MAX`, as `as u64` does;
/// so for every input this also equals `x.max(0.0).round() as u64`.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

/// An absolute instant of simulated time, in microseconds since machine boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The machine-boot instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000_000)
    }

    /// This instant as microseconds since boot.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as (fractional) seconds since boot.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s * 1e6).round().max(0.0) as u64)
    }

    /// This span as microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span as (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scale this span by an integer factor.
    pub const fn times(self, n: u64) -> Duration {
        Duration(self.0 * n)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}us", self.0)
    }
}

impl fmt::Display for SimTime {
    #[expect(
        clippy::disallowed_methods,
        reason = "display only: f64 seconds are printed, never compared"
    )]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Duration {
    #[expect(
        clippy::disallowed_methods,
        reason = "display only: f64 seconds are printed, never compared"
    )]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_hours(1), SimTime::from_secs(3600));
        assert_eq!(Duration::from_secs(2), Duration::from_millis(2000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = Duration::from_secs(5);
        assert_eq!(t + d, SimTime::from_secs(15));
        assert_eq!((t + d) - t, d);
        assert_eq!(d + d, Duration::from_secs(10));
        assert_eq!(d - Duration::from_secs(3), Duration::from_secs(2));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.since(b), Duration::ZERO);
        assert_eq!(b.since(a), Duration::from_secs(1));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the conversion under test")]
    fn float_conversions() {
        assert_eq!(Duration::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert!((SimTime::from_secs(3).as_secs_f64() - 3.0).abs() < 1e-12);
    }

    /// The libm forms `round_u64` replaces, one per call-site clamp.
    fn assert_rounds_like_libm(x: f64) {
        let got = round_u64(x);
        assert_eq!(got, x.round() as u64, "{x:e} ({:#x})", x.to_bits());
        assert_eq!(got, x.max(0.0).round() as u64, "{x:e} with .max(0.0)");
        assert_eq!(
            got.max(1),
            x.round().max(1.0) as u64,
            "{x:e} with .max(1.0)"
        );
    }

    #[test]
    fn round_u64_matches_libm_on_the_edges() {
        let two = |e: i32| 2f64.powi(e);
        let mut edges = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            0.5000000000000001,
            -0.5,
            -0.49999999999999994,
            -1.5,
            -1e300,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            two(53),
            two(63),
            two(64),
            u64::MAX as f64,
            (u64::MAX - 1024) as f64,
        ];
        for e in [51, 52, 53, 63, 64] {
            let base = two(e);
            for k in [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0] {
                let x = base + k;
                edges.extend([x, x + 0.5, x - 0.5, x.next_up(), x.next_down()]);
            }
        }
        for x in edges {
            assert_rounds_like_libm(x);
        }
    }

    #[test]
    fn round_u64_matches_libm_on_random_bit_patterns() {
        // splitmix64 draws, each used twice: as an f64 bit pattern (every
        // class and sign), and as a 53-bit integer scaled by 2^-(0..63),
        // which lands anywhere in [0, 2^53) with its fraction bits live.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..1_000_000 {
            let bits = next();
            assert_rounds_like_libm(f64::from_bits(bits));
            let scale = 2f64.powi(-((bits & 63) as i32));
            assert_rounds_like_libm((bits >> 11) as f64 * scale);
        }
    }

    #[test]
    fn paper_trace_period_fits() {
        // 156 hours of tracing must be representable with slack.
        let period = SimTime::from_hours(156);
        assert!(period.as_micros() < u64::MAX / 1000);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000000s");
        assert_eq!(format!("{:?}", Duration::from_micros(7)), "7us");
    }
}
