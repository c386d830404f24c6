//! `store.*` observability: what the archive wrote and what queries
//! touched versus skipped.
//!
//! All handles are plain [`Counter`]s — pure functions of the archived
//! stream and the query, so they live in the deterministic metrics core
//! and are pinned by the `charisma-verify gates metrics` fixture. The write-side
//! counters are a function of the merged stream alone; the scan-side
//! counters (`segments_pruned` in particular) are the query engine's proof
//! of work: a predicate-pushdown query that prunes nothing is just an
//! expensive filter.

use charisma_obs::{Counter, MetricsRegistry};

use crate::access::AccessLedger;

/// Metric handles for one archive writer or query scan.
#[derive(Clone, Debug, Default)]
pub struct StoreMetrics {
    /// Segments encoded by the writer.
    pub segments_written: Counter,
    /// Rows (records) encoded by the writer.
    pub rows_written: Counter,
    /// Total archive bytes produced (header + segments + footer).
    pub bytes_written: Counter,
    /// Segments a query rejected from the zone map alone — never decoded.
    pub segments_pruned: Counter,
    /// Segments a query decoded and filtered row-by-row.
    pub segments_scanned: Counter,
    /// Rows decoded during scans.
    pub rows_scanned: Counter,
    /// Rows that satisfied the query predicate.
    pub rows_matched: Counter,
    /// Column values (cells) decoded during scans. A full-decode scan
    /// charges ten per row; `cols_decoded / rows_scanned` is the average
    /// column width the scan actually paid for.
    pub cols_decoded: Counter,
    /// Rows inside scanned segments that late materialization never built
    /// an event for — the win on top of `segments_pruned`.
    pub rows_skipped_late: Counter,
    /// Segment integrity checksums that verified during scans — every
    /// scanned segment is verified before any value is decoded.
    pub segments_verified: Counter,
    /// Segment integrity checksums that failed during scans.
    pub checksum_failures: Counter,
    /// Replica copies a scrub pass inspected (segments × replicas).
    pub scrub_segments_checked: Counter,
    /// Replica copies a scrub found checksum-corrupt.
    pub scrub_corrupt_replicas: Counter,
    /// Replica copies a scrub found missing (lost I/O node).
    pub scrub_missing_replicas: Counter,
    /// Replica copies a scrub rewrote byte-identically from a surviving
    /// replica.
    pub scrub_repaired: Counter,
    /// Committed scans the access ledger recorded.
    pub access_scans: Counter,
    /// Per-segment touches the access ledger recorded (admitted segments
    /// summed over scans).
    pub access_segments: Counter,
    /// The per-segment access ledger itself: scan counts, matched rows,
    /// logical last-scan ticks, and reader-class masks, keyed by segment
    /// index. Clones of one `StoreMetrics` share the ledger the way
    /// counter handles share registry slots; the tier policy reads it
    /// via [`AccessLedger::snapshot`].
    pub access: AccessLedger,
}

impl StoreMetrics {
    /// Handles registered under the `store.` prefix of `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        StoreMetrics {
            segments_written: registry.counter("store.segments_written"),
            rows_written: registry.counter("store.rows_written"),
            bytes_written: registry.counter("store.bytes_written"),
            segments_pruned: registry.counter("store.segments_pruned"),
            segments_scanned: registry.counter("store.segments_scanned"),
            rows_scanned: registry.counter("store.rows_scanned"),
            rows_matched: registry.counter("store.rows_matched"),
            cols_decoded: registry.counter("store.cols_decoded"),
            rows_skipped_late: registry.counter("store.rows_skipped_late"),
            segments_verified: registry.counter("store.segments_verified"),
            checksum_failures: registry.counter("store.checksum_failures"),
            scrub_segments_checked: registry.counter("store.scrub.segments_checked"),
            scrub_corrupt_replicas: registry.counter("store.scrub.corrupt_replicas"),
            scrub_missing_replicas: registry.counter("store.scrub.missing_replicas"),
            scrub_repaired: registry.counter("store.scrub.repaired"),
            access_scans: registry.counter("store.access.scans"),
            access_segments: registry.counter("store.access.segments"),
            access: AccessLedger::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_under_the_store_prefix() {
        let registry = MetricsRegistry::new();
        let m = StoreMetrics::register(&registry);
        m.segments_written.inc();
        m.rows_written.add(7);
        m.segments_verified.inc();
        m.scrub_repaired.add(2);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["store.segments_written"], 1);
        assert_eq!(snap.counters["store.rows_written"], 7);
        assert_eq!(snap.counters["store.segments_pruned"], 0);
        assert_eq!(snap.counters["store.segments_verified"], 1);
        assert_eq!(snap.counters["store.checksum_failures"], 0);
        assert_eq!(snap.counters["store.scrub.segments_checked"], 0);
        assert_eq!(snap.counters["store.scrub.corrupt_replicas"], 0);
        assert_eq!(snap.counters["store.scrub.missing_replicas"], 0);
        assert_eq!(snap.counters["store.scrub.repaired"], 2);
        assert_eq!(snap.counters["store.access.scans"], 0);
        assert_eq!(snap.counters["store.access.segments"], 0);
    }

    #[test]
    fn cloned_handles_share_one_access_ledger() {
        let registry = MetricsRegistry::new();
        let m = StoreMetrics::register(&registry);
        let clone = m.clone();
        clone.access.record_scan(&[(1, 3)], u64::MAX);
        assert_eq!(m.access.segment(1).scans, 1);
        assert_eq!(m.access.segment(1).rows_matched, 3);
    }
}
