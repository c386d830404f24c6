//! `serve.*` observability: ingest, backpressure, sealing,
//! snapshots, and federated query work.
//!
//! All handles are plain [`Counter`]s. Every count is a pure function of
//! the admitted per-tenant streams and the queries asked — worker counts
//! and ingest interleavings never change them — so they live in the
//! deterministic metrics core and are pinned by the `charisma-verify gates
//! metrics` fixture alongside the `store.*` counters.

use charisma_obs::{Counter, MetricsRegistry};

/// Metric handles for one [`Service`](crate::Service).
#[derive(Clone, Debug, Default)]
pub struct ServeMetrics {
    /// Batches admitted into a tenant queue.
    pub batches_ingested: Counter,
    /// Rows carried by admitted batches.
    pub rows_ingested: Counter,
    /// Submissions that found the tenant queue full and had to drain it
    /// synchronously (bounded backpressure).
    pub backpressure_stalls: Counter,
    /// Segments sealed and published to tenant catalogs.
    pub segments_sealed: Counter,
    /// Reader snapshots taken (catalog prefixes pinned).
    pub snapshots_taken: Counter,
    /// Federated queries run across the tenant set.
    pub federated_queries: Counter,
    /// Segments federated queries rejected from zone maps alone.
    pub federated_segments_pruned: Counter,
    /// Segments federated queries decoded and filtered.
    pub federated_segments_scanned: Counter,
    /// Rows federated queries returned.
    pub federated_rows: Counter,
}

impl ServeMetrics {
    /// Handles registered under the `serve.` prefix of `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            batches_ingested: registry.counter("serve.batches_ingested"),
            rows_ingested: registry.counter("serve.rows_ingested"),
            backpressure_stalls: registry.counter("serve.backpressure_stalls"),
            segments_sealed: registry.counter("serve.segments_sealed"),
            snapshots_taken: registry.counter("serve.snapshots_taken"),
            federated_queries: registry.counter("serve.federated_queries"),
            federated_segments_pruned: registry.counter("serve.federated_segments_pruned"),
            federated_segments_scanned: registry.counter("serve.federated_segments_scanned"),
            federated_rows: registry.counter("serve.federated_rows"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_under_the_serve_prefix() {
        let registry = MetricsRegistry::new();
        let m = ServeMetrics::register(&registry);
        m.batches_ingested.inc();
        m.rows_ingested.add(42);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["serve.batches_ingested"], 1);
        assert_eq!(snap.counters["serve.rows_ingested"], 42);
        assert_eq!(snap.counters["serve.backpressure_stalls"], 0);
        assert_eq!(snap.counters["serve.federated_rows"], 0);
    }
}
