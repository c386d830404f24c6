//! I/O-node caching — Figure 9.
//!
//! "We ran a trace-driven simulation of I/O-node caches, with 4-KB buffers
//! managed by either a LRU or FIFO replacement policy. These I/O-node
//! caches served all compute nodes, all files, and all jobs … We assumed
//! the file was striped in a round-robin fashion at a one-block
//! granularity. No compute-node cache was used."
//!
//! The sweep dimensions match the figure: total buffers across the system
//! (x axis), replacement policy (LRU vs FIFO), and the number of I/O
//! nodes the buffers are spread over (1-20 lines in the figure).

use charisma_ipsc::par::claim_each;
use charisma_trace::OrderedEvent;

use crate::bank::{Bank, Counts, FifoBank, IplBank, LruBank};
use crate::prep::SessionIndex;

/// Replacement policy under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Least recently used.
    Lru,
    /// First in, first out.
    Fifo,
    /// The §5 future-work policy: evict blocks whose bytes have been fully
    /// consumed by the interleaved readers.
    Ipl,
}

/// Result of one I/O-node cache run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoCacheResult {
    /// Number of I/O nodes the buffers were spread over.
    pub io_nodes: usize,
    /// Total buffers across all I/O nodes.
    pub total_buffers: usize,
    /// Policy used.
    pub policy: Policy,
    /// Requests fully satisfied from cache.
    pub hits: u64,
    /// Total requests.
    pub accesses: u64,
    /// Block accesses served from cache.
    pub block_hits: u64,
    /// Total block accesses.
    pub block_accesses: u64,
}

impl IoCacheResult {
    /// Request-level hit rate (the paper's "fully satisfied" definition).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.accesses.max(1) as f64
    }
}

/// Run one full-trace I/O-node cache simulation: `total_buffers` spread
/// evenly over `io_nodes` caches, blocks striped round-robin. `index` must
/// be built from `events`; the replay reads its prepared request stream.
///
/// Hit accounting is per *request*, consistent with the paper's Figure 8
/// definition ("fully satisfied from the buffer"): a request counts as a
/// hit only when every block it touches is resident, or is a write of the
/// whole block. Block-level counters are kept alongside. The policy is
/// chosen once here; the replay runs against a bank of that one policy.
pub fn io_cache_sim(
    events: &[OrderedEvent],
    index: &SessionIndex,
    io_nodes: usize,
    total_buffers: usize,
    policy: Policy,
) -> IoCacheResult {
    assert!(io_nodes > 0);
    index.check_built_from(events);
    let (ids, per) = (index.block_ids(), total_buffers / io_nodes);
    let counts = match policy {
        Policy::Lru => replay(index, io_nodes, LruBank::new(ids, io_nodes, per)),
        Policy::Fifo => replay(index, io_nodes, FifoBank::new(ids, io_nodes, per)),
        Policy::Ipl => replay(index, io_nodes, IplBank::new(ids, io_nodes, per)),
    };
    IoCacheResult {
        io_nodes,
        total_buffers,
        policy,
        hits: counts.hits,
        accesses: counts.accesses,
        block_hits: counts.block_hits,
        block_accesses: counts.block_accesses,
    }
}

/// Serve every request of `index`'s stream on `bank`.
fn replay<B: Bank>(index: &SessionIndex, nodes: usize, mut bank: B) -> Counts {
    let mut counts = Counts::default();
    for r in index.stream() {
        counts.request(&mut bank, nodes, r);
    }
    counts
}

/// The Figure 9 sweep: hit rate for every `(io_nodes, buffers, policy)`
/// combination, in `(io_nodes, buffers, policy)` order. Runs are
/// independent; scoped workers claim them one at a time, so multi-core
/// hosts sweep in parallel and a slow geometry never holds up a batch.
pub fn sweep(
    events: &[OrderedEvent],
    index: &SessionIndex,
    io_node_counts: &[usize],
    buffer_counts: &[usize],
    policies: &[Policy],
) -> Vec<IoCacheResult> {
    let mut configs = Vec::new();
    for &n in io_node_counts {
        for &b in buffer_counts {
            for &p in policies {
                configs.push((n, b, p));
            }
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    claim_each(&configs, threads, |_, &(n, b, p)| {
        io_cache_sim(events, index, n, b, p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_ipsc::SimTime;
    use charisma_trace::record::{AccessKind, EventBody};

    fn open(job: u32, file: u32, session: u32) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body: EventBody::Open {
                job,
                file,
                session,
                mode: 0,
                access: AccessKind::Read,
                created: false,
            },
        }
    }

    fn read(session: u32, node: u16, offset: u64, bytes: u32) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::ZERO,
            node,
            body: EventBody::Read {
                session,
                offset,
                bytes,
            },
        }
    }

    /// 8 nodes interleave 512-byte records round-robin through a file:
    /// the canonical interprocess-spatial-locality pattern.
    fn interleaved_trace(rounds: u64) -> Vec<OrderedEvent> {
        let mut events = vec![open(1, 1, 1)];
        for r in 0..rounds {
            for n in 0..8u64 {
                events.push(read(1, n as u16, (r * 8 + n) * 512, 512));
            }
        }
        events
    }

    #[test]
    fn interprocess_locality_yields_high_hit_rate() {
        let events = interleaved_trace(64);
        let idx = SessionIndex::build(&events);
        let r = io_cache_sim(&events, &idx, 10, 100, Policy::Lru);
        // 8 accesses per block, 1 compulsory miss → 87.5%.
        assert!((r.hit_rate() - 0.875).abs() < 0.01, "{}", r.hit_rate());
    }

    #[test]
    fn zero_buffers_never_hit() {
        let events = interleaved_trace(4);
        let idx = SessionIndex::build(&events);
        let r = io_cache_sim(&events, &idx, 10, 0, Policy::Lru);
        assert_eq!(r.hits, 0);
    }

    #[test]
    fn lru_beats_fifo_under_reuse() {
        // Hot blocks re-touched among a cold scan: LRU keeps them.
        let mut events = vec![open(1, 1, 1), open(1, 2, 2)];
        for k in 0..2000u64 {
            events.push(read(1, 0, (k % 4) * 4096, 4096)); // hot set: 4 blocks
            events.push(read(2, 1, k * 4096, 4096)); // cold scan
        }
        let idx = SessionIndex::build(&events);
        let lru = io_cache_sim(&events, &idx, 1, 16, Policy::Lru);
        let fifo = io_cache_sim(&events, &idx, 1, 16, Policy::Fifo);
        assert!(
            lru.hit_rate() > fifo.hit_rate() + 0.1,
            "LRU {} vs FIFO {}",
            lru.hit_rate(),
            fifo.hit_rate()
        );
    }

    #[test]
    fn hit_rate_monotone_in_buffers_for_lru() {
        let events = interleaved_trace(128);
        let idx = SessionIndex::build(&events);
        let mut last = -1.0;
        for buffers in [2, 8, 32, 128] {
            let r = io_cache_sim(&events, &idx, 4, buffers, Policy::Lru);
            assert!(r.hit_rate() >= last - 1e-12, "LRU inclusion property");
            last = r.hit_rate();
        }
    }

    #[test]
    fn spreading_over_io_nodes_changes_little() {
        // The paper: "It made little difference whether the buffers were
        // focused on a few I/O nodes or spread over many."
        let events = interleaved_trace(256);
        let idx = SessionIndex::build(&events);
        let few = io_cache_sim(&events, &idx, 2, 200, Policy::Lru);
        let many = io_cache_sim(&events, &idx, 20, 200, Policy::Lru);
        assert!((few.hit_rate() - many.hit_rate()).abs() < 0.05);
    }

    #[test]
    fn sweep_covers_all_configs() {
        let events = interleaved_trace(16);
        let idx = SessionIndex::build(&events);
        let results = sweep(
            &events,
            &idx,
            &[1, 10],
            &[10, 100],
            &[Policy::Lru, Policy::Fifo],
        );
        // Every config exactly once, in (io_nodes, buffers, policy) order.
        let keys: Vec<_> = results
            .iter()
            .map(|r| (r.io_nodes, r.total_buffers, r.policy as u8))
            .collect();
        let mut expected = Vec::new();
        for n in [1, 10] {
            for b in [10, 100] {
                for p in [Policy::Lru, Policy::Fifo] {
                    expected.push((n, b, p as u8));
                }
            }
        }
        assert_eq!(keys, expected);
        // An empty geometry list sweeps nothing.
        assert!(sweep(&events, &idx, &[], &[10], &[Policy::Lru]).is_empty());
    }

    #[test]
    fn writes_count_in_the_io_simulation() {
        let mut events = vec![open(1, 1, 1)];
        events.push(OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body: EventBody::Write {
                session: 1,
                offset: 0,
                bytes: 512,
            },
        });
        events.push(OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body: EventBody::Write {
                session: 1,
                offset: 512,
                bytes: 512,
            },
        });
        let idx = SessionIndex::build(&events);
        let r = io_cache_sim(&events, &idx, 1, 8, Policy::Lru);
        assert_eq!(r.accesses, 2);
        assert_eq!(r.hits, 1, "second write hits the write-allocated block");
    }
}
