//! Prefetching at the I/O nodes.
//!
//! The paper's related-work section leans on Kotz & Ellis's finding that
//! "caching and prefetching are successful in multiprocessor file
//! systems" [19, 20], and Miller & Katz's observation that their Cray
//! workload benefited from prefetching even where caching failed. This
//! module adds prefetching to the I/O-node cache simulation so the
//! reproduction can quantify that claim on the CHARISMA workload:
//!
//! * [`Prefetcher::None`] — the plain cache (the Figure 9 baseline);
//! * [`Prefetcher::OneBlockLookahead`] — classic OBL: fetching block `b`
//!   also brings in `b+1` of the same file;
//! * [`Prefetcher::Strided`] — per-file stride detection: after two
//!   accesses with the same block stride, the next block in the
//!   progression is prefetched (the interleaved-access-aware variant the
//!   paper's recommendations point toward).
//!
//! Cost accounting: a prefetch that is never referenced before eviction
//! is wasted disk work; the simulator reports hits, misses, and wasted
//! prefetches so the benefit/cost trade-off is visible.

use std::collections::BTreeMap;

use charisma_cfs::LruCache;
use charisma_trace::record::EventBody;
use charisma_trace::OrderedEvent;

use crate::prep::{block_span, SessionIndex};

/// Prefetch policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Prefetcher {
    /// No prefetching.
    None,
    /// Fetching block `b` also loads `b+1`.
    OneBlockLookahead,
    /// Detect a per-file block stride and run one block ahead of it.
    Strided,
}

/// Result of a prefetching cache run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrefetchResult {
    /// Policy used.
    pub prefetcher: Prefetcher,
    /// Block accesses that hit (demand traffic only).
    pub hits: u64,
    /// Hits that were satisfied by a prefetched (not yet demanded) block.
    pub prefetch_hits: u64,
    /// Total demand block accesses.
    pub accesses: u64,
    /// Prefetched blocks evicted without ever being referenced.
    pub wasted_prefetches: u64,
    /// Total prefetch fetches issued.
    pub prefetches: u64,
}

impl PrefetchResult {
    /// Demand hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.accesses.max(1) as f64
    }

    /// Fraction of prefetches that were never used.
    pub fn waste_rate(&self) -> f64 {
        self.wasted_prefetches as f64 / self.prefetches.max(1) as f64
    }
}

/// Per-file stride-detection state.
#[derive(Clone, Copy, Debug, Default)]
struct StrideState {
    last_block: u64,
    stride: i64,
    confirmed: bool,
    seen: bool,
}

/// Run an I/O-node cache simulation with prefetching.
///
/// One cache of `buffers_per_io_node` blocks per I/O node, LRU demand
/// replacement; prefetched blocks enter the same cache.
pub fn prefetch_sim(
    events: &[OrderedEvent],
    index: &SessionIndex,
    io_nodes: usize,
    buffers_per_io_node: usize,
    prefetcher: Prefetcher,
) -> PrefetchResult {
    assert!(io_nodes > 0);
    let mut caches: Vec<LruCache> = (0..io_nodes)
        .map(|_| LruCache::new(buffers_per_io_node))
        .collect();
    // Blocks fetched by prefetch and not yet demanded.
    let mut pending: BTreeMap<(u32, u64), ()> = BTreeMap::new();
    let mut strides: BTreeMap<u32, StrideState> = BTreeMap::new();
    let mut out = PrefetchResult {
        prefetcher,
        hits: 0,
        prefetch_hits: 0,
        accesses: 0,
        wasted_prefetches: 0,
        prefetches: 0,
    };

    let fetch_ahead = |caches: &mut Vec<LruCache>,
                       pending: &mut BTreeMap<(u32, u64), ()>,
                       out: &mut PrefetchResult,
                       file: u32,
                       block: u64| {
        let io = (block % io_nodes as u64) as usize;
        let key = (file, block);
        if caches[io].contains(key) {
            return;
        }
        out.prefetches += 1;
        // Eviction of an unused prefetched block is wasted work; detect by
        // sweeping pending entries no longer resident (cheap amortized:
        // check this key later on demand or at the end).
        caches[io].access(key);
        pending.insert(key, ());
    };

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
            let key = (facts.file, b);
            out.accesses += 1;
            let resident = caches[io].access(key);
            if resident {
                out.hits += 1;
                if pending.remove(&key).is_some() {
                    out.prefetch_hits += 1;
                }
            } else if pending.remove(&key).is_some() {
                // Was prefetched once but evicted before use.
                out.wasted_prefetches += 1;
            }
            // Issue prefetches for the *next* block(s).
            match prefetcher {
                Prefetcher::None => {}
                Prefetcher::OneBlockLookahead => {
                    fetch_ahead(&mut caches, &mut pending, &mut out, facts.file, b + 1);
                }
                Prefetcher::Strided => {
                    let st = strides.entry(facts.file).or_default();
                    if st.seen {
                        let stride = b as i64 - st.last_block as i64;
                        if stride != 0 {
                            if st.stride == stride {
                                st.confirmed = true;
                            } else {
                                st.confirmed = false;
                                st.stride = stride;
                            }
                        }
                        if st.confirmed {
                            let next = b as i64 + st.stride;
                            if next >= 0 {
                                fetch_ahead(
                                    &mut caches,
                                    &mut pending,
                                    &mut out,
                                    facts.file,
                                    next as u64,
                                );
                            }
                        }
                    }
                    st.seen = true;
                    st.last_block = b;
                }
            }
        }
    }
    // Every prefetched block never demanded by the end of the trace was
    // wasted disk work, whether it is still resident or already evicted.
    out.wasted_prefetches += pending.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_ipsc::SimTime;
    use charisma_trace::record::AccessKind;

    fn open(file: u32, session: u32) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body: EventBody::Open {
                job: 1,
                file,
                session,
                mode: 0,
                access: AccessKind::Read,
                created: false,
            },
        }
    }

    fn read(session: u32, offset: u64, bytes: u32) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body: EventBody::Read {
                session,
                offset,
                bytes,
            },
        }
    }

    fn sequential_trace(blocks: u64) -> Vec<OrderedEvent> {
        let mut events = vec![open(1, 1)];
        for b in 0..blocks {
            events.push(read(1, b * 4096, 4096));
        }
        events
    }

    #[test]
    fn obl_turns_a_scan_into_hits() {
        // A pure sequential scan: no reuse, so the plain cache gets 0%;
        // one-block lookahead converts all but the first access to hits.
        let events = sequential_trace(64);
        let idx = SessionIndex::build(&events);
        let none = prefetch_sim(&events, &idx, 2, 32, Prefetcher::None);
        let obl = prefetch_sim(&events, &idx, 2, 32, Prefetcher::OneBlockLookahead);
        assert_eq!(none.hits, 0);
        assert_eq!(obl.hits, 63);
        assert_eq!(obl.prefetch_hits, 63);
        assert!(obl.hit_rate() > 0.95);
    }

    #[test]
    fn strided_prefetch_learns_the_interleave() {
        // One node's share of an 8-way interleave: blocks 0, 8, 16, ...
        let mut events = vec![open(1, 1)];
        for k in 0..50u64 {
            events.push(read(1, k * 8 * 4096, 4096));
        }
        let idx = SessionIndex::build(&events);
        let obl = prefetch_sim(&events, &idx, 2, 64, Prefetcher::OneBlockLookahead);
        let strided = prefetch_sim(&events, &idx, 2, 64, Prefetcher::Strided);
        assert_eq!(obl.hits, 0, "lookahead fetches the wrong blocks");
        assert!(obl.waste_rate() > 0.9);
        assert!(
            strided.hits >= 47,
            "stride detection locks on after two accesses: {} hits",
            strided.hits
        );
    }

    #[test]
    fn none_is_the_plain_cache() {
        let events = sequential_trace(16);
        let idx = SessionIndex::build(&events);
        let r = prefetch_sim(&events, &idx, 1, 8, Prefetcher::None);
        assert_eq!(r.prefetches, 0);
        assert_eq!(r.wasted_prefetches, 0);
        assert_eq!(r.accesses, 16);
    }

    #[test]
    fn prefetching_never_reduces_demand_hits_on_miller_katz_style_scans() {
        // The Miller & Katz observation: sequential workloads with no
        // reuse gain from prefetching even though caching alone fails.
        let events = sequential_trace(200);
        let idx = SessionIndex::build(&events);
        let none = prefetch_sim(&events, &idx, 4, 16, Prefetcher::None);
        let obl = prefetch_sim(&events, &idx, 4, 16, Prefetcher::OneBlockLookahead);
        assert!(obl.hits > none.hits);
    }
}
