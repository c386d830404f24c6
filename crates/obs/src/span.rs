//! Wall-clock span timing.
//!
//! A [`Span`] is an RAII guard: dropping it records the elapsed
//! wall-clock time into the registry's timing table (which the JSON
//! export quarantines under `"nondeterministic"` — see
//! [`crate::snapshot`]).

use std::time::Instant;

use crate::metrics::MetricsRegistry;

/// RAII timing guard returned by [`MetricsRegistry::span`]. Records its
/// elapsed wall-clock time when dropped.
#[derive(Debug)]
pub struct Span<'r> {
    registry: &'r MetricsRegistry,
    name: &'static str,
    started: Instant,
}

impl<'r> Span<'r> {
    /// Open a span. Prefer [`MetricsRegistry::span`].
    pub fn enter(registry: &'r MetricsRegistry, name: &'static str) -> Self {
        Span {
            registry,
            name,
            started: Instant::now(),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed();
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.registry.record_timing(self.name, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let registry = MetricsRegistry::new();
        {
            let _span = registry.span("work");
            assert!(registry.snapshot().timings.is_empty());
        }
        let snap = registry.snapshot();
        assert_eq!(snap.timings["work"].count, 1);
    }

    #[test]
    fn nested_spans_record_independently() {
        let registry = MetricsRegistry::new();
        {
            let _outer = registry.span("outer");
            {
                let _inner = registry.span("inner");
            }
        }
        let snap = registry.snapshot();
        assert_eq!(snap.timings["outer"].count, 1);
        assert_eq!(snap.timings["inner"].count, 1);
    }

    #[test]
    fn repeated_spans_accumulate() {
        let registry = MetricsRegistry::new();
        for _ in 0..3 {
            let _span = registry.span("loop");
        }
        assert_eq!(registry.snapshot().timings["loop"].count, 3);
    }
}
