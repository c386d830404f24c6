//! `tier.*` observability: what the policy classified, moved, and
//! rebuilt.
//!
//! All handles are plain [`Counter`]s — pure functions of the plan and
//! the access ledger, so they live in the deterministic metrics core and
//! are pinned by the `charisma-verify gates metrics` fixture alongside the
//! `store.*` family.

use charisma_obs::{Counter, MetricsRegistry};

/// Metric handles for one tiering policy run (and the reads it serves).
#[derive(Clone, Debug, Default)]
pub struct TierMetrics {
    /// Segments the classification pass examined.
    pub segments_classified: Counter,
    /// Segments assigned Hot.
    pub hot: Counter,
    /// Segments assigned Warm.
    pub warm: Counter,
    /// Segments assigned Cold.
    pub cold: Counter,
    /// Segments promoted above the baseline replica factor.
    pub promotions: Counter,
    /// Segments demoted below the baseline replica factor.
    pub demotions: Counter,
    /// Replica copies created by promotions.
    pub replicas_added: Counter,
    /// Replica copies dropped by demotions.
    pub replicas_dropped: Counter,
    /// Parity groups built over cold segments.
    pub parity_groups: Counter,
    /// Segments rebuilt from parity (degraded reads and heals).
    pub parity_rebuilds: Counter,
}

impl TierMetrics {
    /// Handles registered under the `tier.` prefix of `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        TierMetrics {
            segments_classified: registry.counter("tier.segments_classified"),
            hot: registry.counter("tier.hot"),
            warm: registry.counter("tier.warm"),
            cold: registry.counter("tier.cold"),
            promotions: registry.counter("tier.promotions"),
            demotions: registry.counter("tier.demotions"),
            replicas_added: registry.counter("tier.replicas_added"),
            replicas_dropped: registry.counter("tier.replicas_dropped"),
            parity_groups: registry.counter("tier.parity_groups"),
            parity_rebuilds: registry.counter("tier.parity_rebuilds"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_under_the_tier_prefix() {
        let registry = MetricsRegistry::new();
        let m = TierMetrics::register(&registry);
        m.segments_classified.add(5);
        m.hot.inc();
        m.parity_rebuilds.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["tier.segments_classified"], 5);
        assert_eq!(snap.counters["tier.hot"], 1);
        assert_eq!(snap.counters["tier.warm"], 0);
        assert_eq!(snap.counters["tier.cold"], 0);
        assert_eq!(snap.counters["tier.promotions"], 0);
        assert_eq!(snap.counters["tier.demotions"], 0);
        assert_eq!(snap.counters["tier.replicas_added"], 0);
        assert_eq!(snap.counters["tier.replicas_dropped"], 0);
        assert_eq!(snap.counters["tier.parity_groups"], 0);
        assert_eq!(snap.counters["tier.parity_rebuilds"], 1);
    }
}
