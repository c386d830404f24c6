//! Deterministic k-way merge of per-shard rectified event streams.
//!
//! Sharded generation produces one rectified (clock-corrected, sorted)
//! stream per shard. This module merges them into a single globally
//! ordered stream whose order is a pure function of the shard streams —
//! never of thread scheduling — so a parallel run is bit-identical to a
//! serial run over the same shard plan.
//!
//! The total order is the lexicographic key
//! `(rectified_time, node, shard, seq)`, where `shard` is the shard's
//! index in the input slice and `seq` the event's position within its
//! shard stream. Time orders the stream; `node` groups simultaneous
//! records the way the collector's arrival order tended to; `(shard,
//! seq)` is an arbitrary-but-fixed tiebreak that makes the order total.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use charisma_obs::{Counter, MetricsRegistry};

use crate::postprocess::OrderedEvent;

/// Metric handles a [`MergedEvents`] publishes into, once, when it is
/// dropped (see [`MergedEvents::attach_metrics`]).
#[derive(Clone, Debug, Default)]
pub struct MergeMetrics {
    /// Events emitted by the merge.
    pub records_merged: Counter,
    /// Heap operations performed (pops plus refill pushes) — the merge's
    /// comparison workload, O(total × log shards).
    pub heap_ops: Counter,
}

impl MergeMetrics {
    /// Handles registered under the `merge.` prefix of `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        MergeMetrics {
            records_merged: registry.counter("merge.records_merged"),
            heap_ops: registry.counter("merge.heap_ops"),
        }
    }
}

/// The total-order key of one merged event: `(time, node, shard, seq)`.
pub type MergeKey = (u64, u16, usize, usize);

/// The merge key of one event: `(time, node, shard, seq)`.
///
/// Exposed so property tests can assert the merged stream is sorted by
/// exactly this key.
pub fn merge_key(e: &OrderedEvent, shard: usize, seq: usize) -> MergeKey {
    (e.time.as_micros(), e.node, shard, seq)
}

/// A streaming k-way merge over per-shard event streams.
///
/// Yields every event of every shard exactly once, globally ordered by
/// [`merge_key`]. Construction sorts each shard stream by `(time, node)`
/// (stable, so the `seq` tiebreak preserves each shard's residual order);
/// after that the merge itself is O(total log shards) and streams — the
/// analyzer can consume it without materializing the merged vector.
pub struct MergedEvents {
    shards: Vec<Vec<OrderedEvent>>,
    /// Next unconsumed position in each shard stream.
    cursor: Vec<usize>,
    /// Min-heap over the head of every non-exhausted stream.
    heap: BinaryHeap<Reverse<(MergeKey, usize)>>,
    remaining: usize,
    /// Events yielded so far.
    merged: u64,
    /// Heap operations so far (see [`MergeMetrics::heap_ops`]).
    heap_ops: u64,
    metrics: Option<MergeMetrics>,
    #[cfg(feature = "invariants")]
    last_key: Option<MergeKey>,
}

impl MergedEvents {
    /// Build a merge over `shards` (one rectified stream per shard).
    pub fn new(mut shards: Vec<Vec<OrderedEvent>>) -> Self {
        for stream in &mut shards {
            // `postprocess` sorts by time alone; the merge key also orders
            // by node within a timestamp, so re-sort (stable: the shard's
            // own residual order is the final tiebreak via `seq`).
            stream.sort_by_key(|e| (e.time, e.node));
        }
        let remaining = shards.iter().map(Vec::len).sum();
        let cursor = vec![0; shards.len()];
        let mut heap = BinaryHeap::with_capacity(shards.len());
        for (shard, stream) in shards.iter().enumerate() {
            if let Some(e) = stream.first() {
                heap.push(Reverse((merge_key(e, shard, 0), shard)));
            }
        }
        MergedEvents {
            shards,
            cursor,
            heap,
            remaining,
            merged: 0,
            heap_ops: 0,
            metrics: None,
            #[cfg(feature = "invariants")]
            last_key: None,
        }
    }

    /// Publish the merge's event and heap-operation counts into `metrics`
    /// when it is dropped, covering every event it yielded.
    pub fn attach_metrics(&mut self, metrics: MergeMetrics) {
        self.metrics = Some(metrics);
    }

    /// Total events still to be yielded.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether the merge is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl Iterator for MergedEvents {
    type Item = OrderedEvent;

    fn next(&mut self) -> Option<OrderedEvent> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((key, shard)) = *top;
        #[cfg(feature = "invariants")]
        {
            charisma_ipsc::invariant!(
                self.last_key.is_none_or(|prev| prev <= key),
                "k-way merge emitted keys out of order: {key:?} after {:?}",
                self.last_key
            );
            self.last_key = Some(key);
        }
        #[cfg(not(feature = "invariants"))]
        let _ = key;
        let pos = self.cursor[shard];
        let event = self.shards[shard][pos];
        self.cursor[shard] = pos + 1;
        // The stream's next event replaces the head in place (one sift
        // down); `heap_ops` still counts the pop and the refill push.
        self.heap_ops += 1;
        if let Some(next) = self.shards[shard].get(pos + 1) {
            *top = Reverse((merge_key(next, shard, pos + 1), shard));
            self.heap_ops += 1;
        } else {
            PeekMut::pop(top);
        }
        self.merged += 1;
        self.remaining -= 1;
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for MergedEvents {}

impl Drop for MergedEvents {
    fn drop(&mut self) {
        if let Some(m) = &self.metrics {
            m.records_merged.add(self.merged);
            m.heap_ops.add(self.heap_ops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventBody;
    use charisma_ipsc::SimTime;

    fn ev(us: u64, node: u16, session: u32) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::from_micros(us),
            node,
            body: EventBody::Read {
                session,
                offset: 0,
                bytes: 1,
            },
        }
    }

    fn session(e: &OrderedEvent) -> u32 {
        match e.body {
            EventBody::Read { session, .. } => session,
            _ => unreachable!("tests only build reads"),
        }
    }

    #[test]
    fn merges_in_time_order() {
        let a = vec![ev(1, 0, 0), ev(5, 0, 1), ev(9, 0, 2)];
        let b = vec![ev(2, 1, 10), ev(3, 1, 11), ev(20, 1, 12)];
        let merged: Vec<_> = MergedEvents::new(vec![a, b]).collect();
        let times: Vec<u64> = merged.iter().map(|e| e.time.as_micros()).collect();
        assert_eq!(times, vec![1, 2, 3, 5, 9, 20]);
    }

    #[test]
    fn ties_break_by_node_then_shard() {
        let t = 7;
        let a = vec![ev(t, 3, 0)];
        let b = vec![ev(t, 1, 10), ev(t, 3, 11)];
        let merged: Vec<_> = MergedEvents::new(vec![a, b]).collect();
        let ids: Vec<u32> = merged.iter().map(session).collect();
        // node 1 first; among node 3, shard 0 before shard 1.
        assert_eq!(ids, vec![10, 0, 11]);
    }

    #[test]
    fn merge_is_invariant_to_shard_stream_shape() {
        // The same events split differently across shards merge to the
        // same multiset, and each sorting key is respected.
        let all: Vec<OrderedEvent> = (0..100u64)
            .map(|i| ev(i % 13, (i % 3) as u16, i as u32))
            .collect();
        let one: Vec<_> = MergedEvents::new(vec![all.clone()]).collect();
        let four: Vec<_> = MergedEvents::new(
            (0..4)
                .map(|k| all.iter().skip(k).step_by(4).copied().collect())
                .collect(),
        )
        .collect();
        let mut s1: Vec<u32> = one.iter().map(session).collect();
        let mut s4: Vec<u32> = four.iter().map(session).collect();
        s1.sort_unstable();
        s4.sort_unstable();
        assert_eq!(s1, s4, "merge is a permutation regardless of sharding");
        for w in four.windows(2) {
            assert!((w[0].time, w[0].node) <= (w[1].time, w[1].node));
        }
    }

    #[test]
    fn exact_size_iterator_counts_down() {
        let mut m = MergedEvents::new(vec![vec![ev(1, 0, 0)], vec![ev(2, 0, 1), ev(3, 0, 2)]]);
        assert_eq!(m.len(), 3);
        m.next();
        assert_eq!(m.len(), 2);
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn attached_metrics_count_merge_work() {
        let registry = MetricsRegistry::new();
        let mut m = MergedEvents::new(vec![vec![ev(1, 0, 0), ev(4, 0, 1)], vec![ev(2, 0, 2)]]);
        m.attach_metrics(MergeMetrics::register(&registry));
        let merged: Vec<_> = m.collect();
        assert_eq!(merged.len(), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["merge.records_merged"], 3);
        // 3 pops + 1 refill push (shard 0 has a successor after its head).
        assert_eq!(snap.counters["merge.heap_ops"], 4);
    }

    #[test]
    fn a_merge_dropped_early_publishes_what_it_yielded() {
        let registry = MetricsRegistry::new();
        let shards = vec![
            vec![ev(1, 0, 0), ev(4, 0, 1), ev(6, 0, 2)],
            vec![ev(2, 0, 3), ev(3, 0, 4)],
        ];
        let mut m = MergedEvents::new(shards);
        m.attach_metrics(MergeMetrics::register(&registry));
        let first: Vec<u32> = m.by_ref().take(3).map(|e| session(&e)).collect();
        assert_eq!(first, vec![0, 3, 4]);
        assert_eq!(registry.snapshot().counters["merge.records_merged"], 0);
        drop(m);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["merge.records_merged"], 3);
        // Three pops; shards 0 and 1 each refilled after their first head.
        assert_eq!(snap.counters["merge.heap_ops"], 5);
    }

    #[test]
    fn empty_shards_are_fine() {
        assert_eq!(MergedEvents::new(Vec::new()).count(), 0);
        let one = MergedEvents::new(vec![Vec::new(), vec![ev(1, 0, 0)]]);
        assert_eq!(one.count(), 1);
    }
}
