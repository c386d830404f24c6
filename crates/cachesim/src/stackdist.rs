//! Mattson stack-distance analysis: the *entire* LRU hit-rate curve from
//! one pass over the trace.
//!
//! The Figure 9 sweep re-simulates the trace once per cache size. For LRU
//! that is wasteful: by the inclusion property, an access hits in a cache
//! of capacity `c` iff its *reuse (stack) distance* — the number of
//! distinct blocks touched since the previous access to the same block —
//! is at most `c`. One pass computing stack distances therefore yields the
//! hit count for every capacity at once (Mattson et al., 1970).
//!
//! The implementation keeps the classic structure: a hash map from block
//! to its node in an order-statistics tree (here a Fenwick tree over
//! access timestamps), giving O(log n) per access.

use std::collections::BTreeMap;

use charisma_cfs::BlockKey;
use charisma_trace::record::EventBody;
use charisma_trace::OrderedEvent;

use crate::prep::{block_span, SessionIndex};

/// Fenwick (binary indexed) tree counting live timestamps.
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i32) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + i64::from(delta)) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of live entries in positions `[0, i]`.
    fn prefix(&self, mut i: usize) -> u64 {
        i += 1;
        let mut s = 0u64;
        while i > 0 {
            s += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }

    fn grow(&mut self, n: usize) {
        if n + 1 > self.tree.len() {
            // Rebuild preserving counts (amortized by doubling).
            let mut bigger = Fenwick::new((n + 1).next_power_of_two());
            // Recover point values via prefix differences.
            for i in 0..self.tree.len() - 1 {
                let v = (self.prefix(i) - if i == 0 { 0 } else { self.prefix(i - 1) }) as i32;
                if v != 0 {
                    bigger.add(i, v);
                }
            }
            *self = bigger;
        }
    }
}

/// The stack-distance profile of a trace.
#[derive(Clone, Debug)]
pub struct StackDistanceProfile {
    /// `histogram[d]` = number of block accesses with stack distance
    /// exactly `d+1` (i.e. hits in any LRU cache of capacity > d).
    /// Saturated at `histogram.len()`.
    pub histogram: Vec<u64>,
    /// Accesses with no prior reference (compulsory misses).
    pub cold: u64,
    /// Total block accesses.
    pub total: u64,
}

impl StackDistanceProfile {
    /// LRU block-level hit rate at the given cache capacity (in blocks).
    pub fn hit_rate_at(&self, capacity: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self
            .histogram
            .iter()
            .take(capacity.min(self.histogram.len()))
            .sum();
        hits as f64 / self.total as f64
    }

    /// Smallest capacity reaching `target` block hit rate, if any
    /// capacity within the histogram bound does.
    pub fn capacity_for(&self, target: f64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let mut hits = 0u64;
        for (d, &count) in self.histogram.iter().enumerate() {
            hits += count;
            if hits as f64 / self.total as f64 >= target {
                return Some(d + 1);
            }
        }
        None
    }

    /// The maximum achievable hit rate (1 − compulsory-miss rate … within
    /// the histogram bound).
    pub fn ceiling(&self) -> f64 {
        self.hit_rate_at(usize::MAX)
    }
}

/// Streaming stack-distance computer over block accesses.
pub struct StackDistances {
    /// block → timestamp of its last access.
    last: BTreeMap<BlockKey, usize>,
    /// Fenwick over timestamps: 1 where a block's latest access lives.
    live: Fenwick,
    clock: usize,
    histogram: Vec<u64>,
    cold: u64,
    total: u64,
    max_tracked: usize,
}

impl StackDistances {
    /// Track distances up to `max_tracked` (larger distances count toward
    /// the ceiling bucket as misses at any capacity ≤ max_tracked).
    pub fn new(max_tracked: usize) -> Self {
        StackDistances {
            last: BTreeMap::new(),
            live: Fenwick::new(1024),
            clock: 0,
            histogram: vec![0; max_tracked],
            cold: 0,
            total: 0,
            max_tracked,
        }
    }

    /// Record one block access.
    pub fn access(&mut self, key: BlockKey) {
        self.total += 1;
        self.live.grow(self.clock + 1);
        if let Some(&prev) = self.last.get(&key) {
            // Distinct blocks touched since prev = live stamps in (prev,
            // clock).
            let later = self.live.prefix(self.clock.saturating_sub(1)) - self.live.prefix(prev);
            let distance = later as usize + 1; // include the block itself
            charisma_ipsc::invariant!(
                distance <= self.last.len(),
                "stack distance {distance} exceeds the {} distinct blocks seen",
                self.last.len()
            );
            if distance <= self.max_tracked {
                self.histogram[distance - 1] += 1;
            }
            self.live.add(prev, -1);
        } else {
            self.cold += 1;
        }
        self.live.add(self.clock, 1);
        self.last.insert(key, self.clock);
        self.clock += 1;
    }

    /// Finish and return the profile.
    pub fn finish(self) -> StackDistanceProfile {
        StackDistanceProfile {
            histogram: self.histogram,
            cold: self.cold,
            total: self.total,
        }
    }
}

/// Compute the block-level LRU profile of a whole trace in one pass.
/// With `io_nodes > 1` a separate profile is kept per I/O node (blocks are
/// striped round-robin) and the histograms are summed — capacity `c` in
/// the result means `c` buffers *per I/O node*.
pub fn lru_profile(
    events: &[OrderedEvent],
    index: &SessionIndex,
    io_nodes: usize,
    max_tracked: usize,
) -> StackDistanceProfile {
    assert!(io_nodes > 0);
    let mut per_io: Vec<StackDistances> = (0..io_nodes)
        .map(|_| StackDistances::new(max_tracked))
        .collect();
    for e in events {
        let (session, offset, bytes) = match e.body {
            EventBody::Read {
                session,
                offset,
                bytes,
            }
            | EventBody::Write {
                session,
                offset,
                bytes,
            } => (session, offset, bytes),
            _ => continue,
        };
        let Some((first, last, _)) = block_span(offset, bytes) else {
            continue;
        };
        let Some(facts) = index.get(session) else {
            continue;
        };
        for b in first..=last {
            let io = (b % io_nodes as u64) as usize;
            per_io[io].access((facts.file, b));
        }
    }
    let mut histogram = vec![0u64; max_tracked];
    let mut cold = 0;
    let mut total = 0;
    for sd in per_io {
        let p = sd.finish();
        for (h, v) in histogram.iter_mut().zip(&p.histogram) {
            *h += v;
        }
        cold += p.cold;
        total += p.total;
    }
    StackDistanceProfile {
        histogram,
        cold,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distances(blocks: &[u64]) -> StackDistanceProfile {
        let mut sd = StackDistances::new(64);
        for &b in blocks {
            sd.access((0, b));
        }
        sd.finish()
    }

    #[test]
    fn repeated_block_has_distance_one() {
        let p = distances(&[5, 5, 5, 5]);
        assert_eq!(p.cold, 1);
        assert_eq!(p.histogram[0], 3);
        assert!((p.hit_rate_at(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn scan_has_no_reuse() {
        let p = distances(&[1, 2, 3, 4, 5]);
        assert_eq!(p.cold, 5);
        assert_eq!(p.hit_rate_at(1000), 0.0);
    }

    #[test]
    fn textbook_distances() {
        // a b c a: 'a' re-touched after {b, c} → distance 3.
        let p = distances(&[1, 2, 3, 1]);
        assert_eq!(p.histogram[2], 1);
        assert_eq!(p.hit_rate_at(2), 0.0);
        assert!((p.hit_rate_at(3) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn loop_distance_equals_loop_size() {
        // Cyclic scan over 8 blocks: every re-access has distance 8.
        let blocks: Vec<u64> = (0..40).map(|i| i % 8).collect();
        let p = distances(&blocks);
        assert_eq!(p.cold, 8);
        assert_eq!(p.histogram[7], 32);
        assert_eq!(p.hit_rate_at(7), 0.0, "loop thrashes a smaller cache");
        assert!((p.hit_rate_at(8) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn profile_matches_direct_lru_simulation() {
        use charisma_cfs::LruCache;
        // Pseudo-random but deterministic block stream.
        let mut x = 12345u64;
        let blocks: Vec<u64> = (0..4000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 97
            })
            .collect();
        let profile = distances(&blocks);
        for capacity in [1usize, 4, 16, 50] {
            let mut cache = LruCache::new(capacity);
            let mut hits = 0u64;
            for &b in &blocks {
                if cache.access((0, b)) {
                    hits += 1;
                }
            }
            let direct = hits as f64 / blocks.len() as f64;
            let predicted = profile.hit_rate_at(capacity);
            assert!(
                (direct - predicted).abs() < 1e-12,
                "capacity {capacity}: direct {direct} vs stack-distance {predicted}"
            );
        }
    }

    #[test]
    fn capacity_for_target() {
        let blocks: Vec<u64> = (0..60).map(|i| i % 6).collect();
        let p = distances(&blocks);
        // 54/60 accesses are reuses at distance 6.
        assert_eq!(p.capacity_for(0.5), Some(6));
        assert_eq!(p.capacity_for(0.99), None, "compulsory misses cap it");
        assert!((p.ceiling() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn fenwick_grow_preserves_counts() {
        let mut sd = StackDistances::new(8);
        // Force several grows with a long alternating stream.
        for i in 0..10_000u64 {
            sd.access((0, i % 3));
        }
        let p = sd.finish();
        assert_eq!(p.total, 10_000);
        assert_eq!(p.cold, 3);
        assert_eq!(p.histogram[2], 10_000 - 3, "every reuse has distance 3");
    }
}
