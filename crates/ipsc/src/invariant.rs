//! Runtime simulation invariants.
//!
//! [`invariant!`](crate::invariant!) is the workspace's checked-build
//! assertion: under `--features invariants` it asserts; otherwise it
//! compiles to nothing (the condition is embedded in a closure that is
//! never called, so it still type-checks but is never evaluated).
//!
//! The macro lives in `charisma-ipsc` because it is the root of the crate
//! graph; downstream crates (`charisma-cfs`, `charisma-cachesim`, …)
//! invoke it as `charisma_ipsc::invariant!` and forward their own
//! `invariants` feature to this crate's, so one `--features invariants`
//! at any level lights up every check below it.
//!
//! Invariants are *simulation* checks — properties the discrete-event
//! machinery must preserve (time monotonicity, allocation disjointness,
//! cache coherence) — not input validation. Input validation stays as
//! plain `assert!`/typed errors and is always on.

/// Assert a simulation invariant when the `invariants` feature is enabled;
/// compile to nothing otherwise.
///
/// ```
/// use charisma_ipsc::invariant;
/// let balance = 3 + 4;
/// invariant!(balance == 7, "arithmetic drifted: {balance}");
/// ```
#[macro_export]
macro_rules! invariant {
    ($cond:expr) => {
        $crate::invariant!($cond, "{}", stringify!($cond));
    };
    ($cond:expr, $($arg:tt)+) => {{
        #[cfg(feature = "invariants")]
        {
            assert!(
                $cond,
                "simulation invariant violated: {}",
                format_args!($($arg)+)
            );
        }
        #[cfg(not(feature = "invariants"))]
        {
            // Type-check the condition without ever evaluating it.
            let _ = || {
                let _ = &$cond;
            };
        }
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn holds_quietly() {
        invariant!(1 + 1 == 2);
        invariant!(true, "never printed");
    }

    #[cfg(feature = "invariants")]
    #[test]
    #[should_panic(expected = "simulation invariant violated")]
    fn violations_panic_when_enabled() {
        invariant!(1 > 2, "impossible ordering");
    }

    #[cfg(not(feature = "invariants"))]
    #[test]
    fn violations_ignored_when_disabled() {
        invariant!(1 > 2, "impossible ordering");
    }
}
