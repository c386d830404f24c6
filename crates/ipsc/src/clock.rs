//! Per-node drifting clocks.
//!
//! The iPSC/860 had no synchronized clocks: "Each node maintains its own
//! clock; the clocks are synchronized at system startup but each drifts
//! significantly and differently after that" (paper §3.2, citing French's
//! hypercube time-reference work). The tracing instrumentation therefore
//! timestamped each 4 KB record block when it left the node and again when
//! it was received at the collector, and the postprocessing step used the
//! pair to estimate per-node drift.
//!
//! We model each node clock as a linear function of true simulation time:
//! `local = offset + true * (1 + drift_ppm * 1e-6)`. That is a first-order
//! model of a crystal oscillator and is exactly the model the paper's
//! correction assumes, so the trace postprocessing in `charisma-trace` can
//! (approximately) invert it.

use crate::time::{round_u64, SimTime};

/// A node-local clock with a fixed frequency error and initial offset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftClock {
    /// Frequency error in parts per million. Real crystal oscillators of the
    /// era were within ±100 ppm; drifts of tens of ppm accumulate to whole
    /// seconds over a multi-hour trace.
    pub drift_ppm: f64,
    /// Offset, in microseconds, of the local clock at true time zero
    /// (imperfect boot-time synchronization).
    pub offset_us: f64,
    /// True time (µs) at which this clock jumps forward once, or `0` for
    /// no jump. Fault injection uses this to model operator intervention
    /// or NTP-style step corrections; the linear model holds on either
    /// side of the step.
    pub jump_at_us: u64,
    /// Size of the forward jump, µs. Only forward jumps are modeled so
    /// each node's local time stays monotone (the trace-block pairing the
    /// postprocessor relies on assumes monotone send stamps).
    pub jump_us: u64,
}

impl DriftClock {
    /// A perfect clock: no drift, no offset.
    pub const PERFECT: DriftClock = DriftClock {
        drift_ppm: 0.0,
        offset_us: 0.0,
        jump_at_us: 0,
        jump_us: 0,
    };

    /// Create a clock with the given drift (ppm) and boot offset (µs).
    pub fn new(drift_ppm: f64, offset_us: f64) -> Self {
        crate::invariant!(
            drift_ppm.is_finite() && drift_ppm.abs() <= 1000.0,
            "drift {drift_ppm} ppm is outside the crystal-oscillator model"
        );
        crate::invariant!(
            offset_us.is_finite(),
            "boot offset {offset_us} us is not finite"
        );
        DriftClock {
            drift_ppm,
            offset_us,
            jump_at_us: 0,
            jump_us: 0,
        }
    }

    /// This clock with a one-time forward jump of `jump_us` µs at true
    /// time `at_us` µs. `at_us == 0` disables the jump.
    pub fn with_jump(self, at_us: u64, jump_us: u64) -> Self {
        DriftClock {
            jump_at_us: at_us,
            jump_us,
            ..self
        }
    }

    /// The local timestamp this node's clock shows at true time `t`.
    pub fn local_time(&self, t: SimTime) -> SimTime {
        let mut skewed = self.offset_us + t.as_micros() as f64 * (1.0 + self.drift_ppm * 1e-6);
        if self.jump_at_us != 0 && t.as_micros() >= self.jump_at_us {
            skewed += self.jump_us as f64;
        }
        SimTime::from_micros(round_u64(skewed))
    }

    /// Invert the clock model: the true time at which this clock shows
    /// `local`. Exact up to rounding; used by tests and by an oracle for the
    /// trace postprocessing (which only gets to *estimate* the model).
    pub fn true_time(&self, local: SimTime) -> SimTime {
        let mut l = local.as_micros() as f64;
        if self.jump_at_us != 0 {
            // Local stamps at or past the step include the jump; stamps
            // inside the skipped interval never occur on this clock.
            let rate = 1.0 + self.drift_ppm * 1e-6;
            let jump_local = self.offset_us + self.jump_at_us as f64 * rate + self.jump_us as f64;
            if l >= jump_local {
                l -= self.jump_us as f64;
            }
        }
        let t = (l - self.offset_us) / (1.0 + self.drift_ppm * 1e-6);
        SimTime::from_micros(t.max(0.0).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_is_identity() {
        let c = DriftClock::PERFECT;
        for s in [0, 1, 3600, 561_600] {
            let t = SimTime::from_secs(s);
            assert_eq!(c.local_time(t), t);
            assert_eq!(c.true_time(t), t);
        }
    }

    #[test]
    fn drift_accumulates() {
        // 50 ppm over the paper's 156-hour trace is ~28 seconds of skew.
        let c = DriftClock::new(50.0, 0.0);
        let t = SimTime::from_hours(156);
        let skew = c.local_time(t).as_micros() - t.as_micros();
        assert!((27_000_000..30_000_000).contains(&skew), "skew {skew}us");
    }

    #[test]
    fn offset_applies_at_boot() {
        let c = DriftClock::new(0.0, 1500.0);
        assert_eq!(c.local_time(SimTime::ZERO), SimTime::from_micros(1500));
    }

    #[test]
    fn negative_drift_runs_slow() {
        let c = DriftClock::new(-100.0, 0.0);
        let t = SimTime::from_hours(10);
        assert!(c.local_time(t) < t);
    }

    #[test]
    fn inversion_round_trips() {
        let c = DriftClock::new(73.0, -421.0);
        for s in [1u64, 59, 3600, 100_000, 561_600] {
            let t = SimTime::from_secs(s);
            let back = c.true_time(c.local_time(t));
            let err = back.as_micros().abs_diff(t.as_micros());
            assert!(err <= 1, "round-trip error {err}us at t={t}");
        }
    }

    #[test]
    fn jump_steps_forward_once_and_still_inverts() {
        let c = DriftClock::new(40.0, 250.0).with_jump(1_000_000, 2_000_000);
        let before = c.local_time(SimTime::from_micros(999_999));
        let after = c.local_time(SimTime::from_micros(1_000_000));
        assert!(after.as_micros() >= before.as_micros() + 2_000_000);
        for us in [1u64, 500_000, 1_000_000, 1_000_001, 5_000_000] {
            let t = SimTime::from_micros(us);
            let err = c
                .true_time(c.local_time(t))
                .as_micros()
                .abs_diff(t.as_micros());
            assert!(err <= 1, "round-trip error {err}us at t={t}");
        }
        // Local time stays monotone across the step.
        let mut prev = SimTime::ZERO;
        for us in (0..3_000_000).step_by(10_000) {
            let l = c.local_time(SimTime::from_micros(us));
            assert!(l >= prev);
            prev = l;
        }
    }

    #[test]
    fn local_time_clamps_at_zero() {
        let c = DriftClock::new(0.0, -10.0);
        assert_eq!(c.local_time(SimTime::ZERO), SimTime::ZERO);
    }
}
