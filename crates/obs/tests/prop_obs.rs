//! Property tests for the observability substrate: histogram bucketing
//! over the full u64 range, snapshot merge algebra (associativity,
//! commutativity, identity) across arbitrary shard partitions, and JSON
//! export stability under insertion order.

use charisma_obs::{
    bucket_floor, bucket_index, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;

/// A snapshot built from arbitrary counter/gauge/histogram updates.
fn snapshot_from(updates: &[(u8, u8, u64)]) -> MetricsSnapshot {
    let registry = MetricsRegistry::new();
    for &(kind, which, value) in updates {
        let name = format!("metric.{}", which % 5);
        match kind % 3 {
            0 => registry.counter(&name).add(value),
            1 => registry.gauge(&name).record_max(value),
            _ => registry.histogram(&name).record(value),
        }
    }
    registry.snapshot()
}

proptest! {
    /// Every u64 lands in exactly the bucket whose [floor, next-floor)
    /// range contains it; bucket 0 holds exactly zero.
    #[test]
    fn bucket_index_matches_floor_ranges(v in any::<u64>()) {
        let idx = bucket_index(v);
        prop_assert!(idx < HISTOGRAM_BUCKETS);
        prop_assert!(bucket_floor(idx) <= v);
        if idx + 1 < HISTOGRAM_BUCKETS {
            prop_assert!(v < bucket_floor(idx + 1));
        }
        prop_assert_eq!(idx == 0, v == 0);
    }

    /// Recording values one at a time and in bulk (`record_n`) produce
    /// the same snapshot, for any multiplicity.
    #[test]
    fn record_n_equals_repeated_record(v in any::<u64>(), n in 0u64..50) {
        let bulk = Histogram::new();
        bulk.record_n(v, n);
        let repeated = Histogram::new();
        for _ in 0..n {
            repeated.record(v);
        }
        prop_assert_eq!(bulk.snapshot(), repeated.snapshot());
    }

    /// Merging per-shard snapshots is associative and commutative, and
    /// merging the empty snapshot changes nothing — the algebra that makes
    /// sharded metrics independent of worker scheduling.
    #[test]
    fn merge_is_associative_and_commutative(
        a in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..20),
        b in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..20),
        c in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..20),
    ) {
        let (sa, sb, sc) = (snapshot_from(&a), snapshot_from(&b), snapshot_from(&c));

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // a ⊕ b == b ⊕ a
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);

        // a ⊕ ∅ == a
        let mut with_empty = sa.clone();
        with_empty.merge(&MetricsSnapshot::new());
        prop_assert_eq!(with_empty, sa);
    }

    /// Splitting one update stream across shards and merging the shard
    /// snapshots reproduces the serial snapshot, for any partition.
    #[test]
    fn sharded_updates_merge_to_serial(
        updates in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), 0u64..1_000_000), 0..60),
        shards in 1usize..6,
    ) {
        let serial = snapshot_from(&updates);
        let mut parts: Vec<Vec<(u8, u8, u64)>> = vec![Vec::new(); shards];
        for (i, u) in updates.iter().enumerate() {
            parts[i % shards].push(*u);
        }
        let mut merged = MetricsSnapshot::new();
        for part in &parts {
            merged.merge(&snapshot_from(part));
        }
        prop_assert_eq!(merged, serial);
    }

    /// JSON export depends only on snapshot *content*: shuffling the
    /// update order (which permutes map insertion order) never changes a
    /// byte of the output.
    #[test]
    fn json_export_is_insertion_order_independent(
        updates in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u64>()), 1..30),
        rotate_by in 0usize..30,
    ) {
        let mut rotated = updates.clone();
        let k = rotate_by % rotated.len();
        rotated.rotate_left(k);
        let a = snapshot_from(&updates);
        let b = snapshot_from(&rotated);
        prop_assert_eq!(a.to_core_json(), b.to_core_json());
    }

    /// Histogram merge conserves sample counts (saturating), with buckets
    /// partitioning the total.
    #[test]
    fn histogram_merge_conserves_counts(
        xs in proptest::collection::vec(any::<u64>(), 0..40),
        ys in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let hx = Histogram::new();
        for &v in &xs {
            hx.record(v);
        }
        let hy = Histogram::new();
        for &v in &ys {
            hy.record(v);
        }
        let mut merged: HistogramSnapshot = hx.snapshot();
        merged.merge(&hy.snapshot());
        prop_assert_eq!(merged.count, (xs.len() + ys.len()) as u64);
        prop_assert_eq!(merged.buckets.values().sum::<u64>(), merged.count);
    }
}
