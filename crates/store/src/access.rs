//! Per-segment access accounting: the ledger the tiering policy reads.
//!
//! Every committed scan records, for each segment it admitted, one scan
//! touch, the rows the predicate matched there, the logical scan tick it
//! happened on, and a bitmask of the reader classes (query node
//! predicates) that asked. The ledger is the paper's access-skew
//! observation turned into state: `charisma-tier` classifies segments
//! Hot/Warm/Cold from exactly these counters (SNIPPETS Snippet 1's
//! "access frequency × coverage" inputs), so everything recorded here is
//! **commutative** — per-segment values are sums, bit-ORs, and maxima,
//! making any classification derived from them invariant under scan
//! order and worker count.
//!
//! Time is a *logical* tick (one per committed scan), never a wall
//! clock: the ledger lives inside the deterministic metrics core and is
//! exercised by the `charisma-verify gates tier` gate, so its contents must be
//! a pure function of the query history.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError};

/// One segment's accumulated access history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentAccess {
    /// Committed scans that admitted this segment (zone map let it through).
    pub scans: u64,
    /// Rows the predicates matched in this segment, across all scans.
    pub rows_matched: u64,
    /// Logical tick of the most recent scan that touched this segment
    /// (ticks start at 1; 0 = never scanned). Informational — ticks
    /// depend on scan order, so tier classification must not read this.
    pub last_scan: u64,
    /// Bitmask of reader classes that touched this segment: bit
    /// `node % 64` for each node in the query's node predicate, all ones
    /// for unrestricted queries. The OR across scans approximates the
    /// paper's "how many compute nodes share this file" axis.
    pub readers: u64,
}

impl SegmentAccess {
    /// Distinct reader classes observed (population count of the mask).
    pub fn reader_count(&self) -> u32 {
        self.readers.count_ones()
    }
}

/// Shared, cheaply-cloneable per-segment access ledger. All handles
/// cloned from one ledger feed the same cells, mirroring how
/// [`Counter`](charisma_obs::Counter) handles share a registry slot.
#[derive(Clone, Debug, Default)]
pub struct AccessLedger {
    #[expect(
        clippy::disallowed_types,
        reason = "interior-mutable ledger cell shared behind Arc: all writes are commutative, \
                  the feed site runs once every scan worker is done, and the lock scope is a \
                  handful of integer merges with no nested locking"
    )]
    inner: Arc<std::sync::Mutex<LedgerInner>>,
}

#[derive(Debug, Default)]
struct LedgerInner {
    tick: u64,
    segments: BTreeMap<u64, SegmentAccess>,
}

impl AccessLedger {
    /// Record one committed scan: `touched` lists `(segment index, rows
    /// matched)` for every admitted segment, `readers` is the scan's
    /// reader-class mask (see [`reader_mask`]). Advances the logical
    /// tick by one per call; a scan that admitted nothing still ticks.
    pub fn record_scan(&self, touched: &[(u64, u64)], readers: u64) {
        let mut inner = self.lock();
        inner.tick = inner.tick.saturating_add(1);
        let tick = inner.tick;
        for &(segment, rows) in touched {
            let cell = inner.segments.entry(segment).or_default();
            cell.scans = cell.scans.saturating_add(1);
            cell.rows_matched = cell.rows_matched.saturating_add(rows);
            cell.last_scan = cell.last_scan.max(tick);
            cell.readers |= readers;
        }
    }

    /// Committed scans recorded so far (the current logical tick).
    pub fn scan_ticks(&self) -> u64 {
        self.lock().tick
    }

    /// This segment's history (all-zero if never scanned).
    pub fn segment(&self, segment: u64) -> SegmentAccess {
        self.lock()
            .segments
            .get(&segment)
            .copied()
            .unwrap_or_default()
    }

    /// A point-in-time copy of every touched segment's history, in
    /// ascending segment order — the tier policy's input.
    pub fn snapshot(&self) -> BTreeMap<u64, SegmentAccess> {
        self.lock().segments.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LedgerInner> {
        // Ledger state is a map of saturating integers: a panicked writer
        // cannot leave it logically inconsistent, so recover from
        // poisoning instead of propagating it (same discipline as the
        // serve tenant cells).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The reader-class mask for a query's node predicate: bit `node % 64`
/// per named node, or all ones when the query is node-unrestricted (an
/// unrestricted scan is "every reader wants this").
pub fn reader_mask(nodes: Option<&[u16]>) -> u64 {
    match nodes {
        None => u64::MAX,
        Some(nodes) => nodes
            .iter()
            .fold(0u64, |mask, &n| mask | (1u64 << (u64::from(n) % 64))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_commutative_across_scan_order() {
        let a = AccessLedger::default();
        let b = AccessLedger::default();
        let scans = [
            (vec![(0u64, 10u64), (2, 5)], reader_mask(Some(&[1, 3]))),
            (vec![(2, 7)], reader_mask(None)),
            (vec![(0, 1), (1, 1)], reader_mask(Some(&[64]))),
        ];
        for (touched, mask) in &scans {
            a.record_scan(touched, *mask);
        }
        for (touched, mask) in scans.iter().rev() {
            b.record_scan(touched, *mask);
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.keys().collect::<Vec<_>>(), sb.keys().collect::<Vec<_>>());
        for (seg, cell) in &sa {
            let other = sb[seg];
            assert_eq!(cell.scans, other.scans, "segment {seg}");
            assert_eq!(cell.rows_matched, other.rows_matched);
            assert_eq!(cell.readers, other.readers);
            // last_scan is the one order-dependent field, by design.
        }
        assert_eq!(a.scan_ticks(), 3);
        assert_eq!(b.scan_ticks(), 3);
    }

    #[test]
    fn clones_share_cells_and_masks_fold_nodes() {
        let ledger = AccessLedger::default();
        let handle = ledger.clone();
        handle.record_scan(&[(4, 9)], reader_mask(Some(&[0, 64, 5])));
        let cell = ledger.segment(4);
        assert_eq!(cell.scans, 1);
        assert_eq!(cell.rows_matched, 9);
        assert_eq!(cell.last_scan, 1);
        // Nodes 0 and 64 alias to bit 0; node 5 is its own bit.
        assert_eq!(cell.readers, (1 << 0) | (1 << 5));
        assert_eq!(cell.reader_count(), 2);
        assert_eq!(reader_mask(None), u64::MAX);
        assert_eq!(reader_mask(Some(&[])), 0);
        assert_eq!(ledger.segment(99), SegmentAccess::default());
    }
}
