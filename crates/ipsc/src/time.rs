//! Simulated time.
//!
//! All simulation time is kept in integer microseconds. The traced period in
//! the paper was about 156 hours, which is ~5.6e11 microseconds — far inside
//! `u64` range. Integer ticks keep the discrete-event engine exactly
//! deterministic across runs and platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

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
