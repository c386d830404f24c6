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

use charisma_cfs::{BlockCache, FifoCache, IplCache, LruCache};
use charisma_ipsc::par::claim_each;
use charisma_trace::record::EventBody;
use charisma_trace::OrderedEvent;

const BLOCK: u64 = 4096;

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

    /// Block-level hit rate.
    pub fn block_hit_rate(&self) -> f64 {
        self.block_hits as f64 / self.block_accesses.max(1) as f64
    }

    /// Record this run's raw counters under the `cachesim.io.` prefix of
    /// `registry` (counts, never rates — snapshots stay mergeable).
    pub fn record_metrics(&self, registry: &charisma_obs::MetricsRegistry) {
        registry.counter("cachesim.io.requests").add(self.accesses);
        registry.counter("cachesim.io.request_hits").add(self.hits);
        registry
            .counter("cachesim.io.block_accesses")
            .add(self.block_accesses);
        registry
            .counter("cachesim.io.block_hits")
            .add(self.block_hits);
    }
}

/// The streaming I/O-node cache bank (one cache per I/O node, blocks
/// striped round-robin).
///
/// Hit accounting is per *request*, consistent with the paper's Figure 8
/// definition ("fully satisfied from the buffer"): a request counts as a
/// hit only when every block it touches is resident. Block-level counters
/// are kept alongside. The bank is generic over its cache type, so every
/// block access is a direct call into one policy.
pub struct IoCacheBank<C> {
    caches: Vec<C>,
    hits: u64,
    accesses: u64,
    block_hits: u64,
    block_accesses: u64,
}

impl<C: BlockCache> IoCacheBank<C> {
    /// `total_buffers` spread evenly over `io_nodes` caches, each built by
    /// `make` from its per-node capacity.
    pub fn new(io_nodes: usize, total_buffers: usize, make: impl Fn(usize) -> C) -> Self {
        assert!(io_nodes > 0);
        let per = total_buffers / io_nodes;
        IoCacheBank {
            caches: (0..io_nodes).map(|_| make(per)).collect(),
            hits: 0,
            accesses: 0,
            block_hits: 0,
            block_accesses: 0,
        }
    }

    /// Serve a whole request: a hit only if every touched block was
    /// satisfied from cache. A *write* that covers a whole block is
    /// satisfied even when the block is absent — with write-behind the
    /// I/O node simply allocates a buffer, no disk read is needed (only a
    /// partial overwrite of an uncached block forces a fetch).
    pub fn access_request(&mut self, file: u32, offset: u64, bytes: u32, is_write: bool) {
        if bytes == 0 {
            return;
        }
        let end = offset + u64::from(bytes);
        let first = offset / BLOCK;
        let last = (end - 1) / BLOCK;
        self.accesses += 1;
        self.block_accesses += last - first + 1;
        // Striping is round-robin, so consecutive blocks live on
        // consecutive I/O nodes: only the run's first block is placed by
        // division.
        let nodes = self.caches.len();
        let mut io = (first % nodes as u64) as usize;
        let mut all = true;
        for b in first..=last {
            let touched = (end.min((b + 1) * BLOCK) - offset.max(b * BLOCK)) as u32;
            let resident = self.caches[io].access((file, b), touched);
            if resident || (is_write && touched == BLOCK as u32) {
                self.block_hits += 1;
            } else {
                all = false;
            }
            io += 1;
            if io == nodes {
                io = 0;
            }
        }
        if all {
            self.hits += 1;
        }
    }

    /// Serve an explicit block list as one request: a hit only if every
    /// listed block was resident. Empty lists are ignored (the request was
    /// fully satisfied upstream).
    pub fn access_blocks(&mut self, file: u32, blocks: &[(u64, u32)]) {
        if blocks.is_empty() {
            return;
        }
        self.accesses += 1;
        let mut all = true;
        for &(b, touched) in blocks {
            let io = (b % self.caches.len() as u64) as usize;
            self.block_accesses += 1;
            if self.caches[io].access((file, b), touched) {
                self.block_hits += 1;
            } else {
                all = false;
            }
        }
        if all {
            self.hits += 1;
        }
    }

    /// Current request-level hit counters `(hits, accesses)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.accesses)
    }

    /// Current block-level hit counters `(hits, accesses)`.
    pub fn block_counters(&self) -> (u64, u64) {
        (self.block_hits, self.block_accesses)
    }

    /// Request-level hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.accesses.max(1) as f64
    }
}

/// Run one full-trace I/O-node cache simulation. The policy is chosen once
/// here; the replay runs against a bank of that one cache type.
pub fn io_cache_sim(
    events: &[OrderedEvent],
    session_file: &crate::prep::SessionIndex,
    io_nodes: usize,
    total_buffers: usize,
    policy: Policy,
) -> IoCacheResult {
    let ((hits, accesses), (block_hits, block_accesses)) = match policy {
        Policy::Lru => replay(
            events,
            session_file,
            IoCacheBank::new(io_nodes, total_buffers, LruCache::new),
        ),
        Policy::Fifo => replay(
            events,
            session_file,
            IoCacheBank::new(io_nodes, total_buffers, FifoCache::new),
        ),
        Policy::Ipl => replay(
            events,
            session_file,
            IoCacheBank::new(io_nodes, total_buffers, |per| IplCache::new(per, BLOCK)),
        ),
    };
    IoCacheResult {
        io_nodes,
        total_buffers,
        policy,
        hits,
        accesses,
        block_hits,
        block_accesses,
    }
}

/// Feed every read and write of a known session to `bank`; returns its
/// request-level and block-level `(hits, accesses)`.
fn replay<C: BlockCache>(
    events: &[OrderedEvent],
    session_file: &crate::prep::SessionIndex,
    mut bank: IoCacheBank<C>,
) -> ((u64, u64), (u64, u64)) {
    for e in events {
        let (session, offset, bytes, is_write) = match e.body {
            EventBody::Read {
                session,
                offset,
                bytes,
            } => (session, offset, bytes, false),
            EventBody::Write {
                session,
                offset,
                bytes,
            } => (session, offset, bytes, true),
            _ => continue,
        };
        let Some(facts) = session_file.get(session) else {
            continue;
        };
        bank.access_request(facts.file, offset, bytes, is_write);
    }
    (bank.counters(), bank.block_counters())
}

/// The Figure 9 sweep: hit rate for every `(io_nodes, buffers, policy)`
/// combination, in `(io_nodes, buffers, policy)` order. Runs are
/// independent; scoped workers claim them one at a time, so multi-core
/// hosts sweep in parallel and a slow geometry never holds up a batch.
pub fn sweep(
    events: &[OrderedEvent],
    index: &crate::prep::SessionIndex,
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
    use crate::prep::SessionIndex;
    use charisma_ipsc::SimTime;
    use charisma_trace::record::AccessKind;

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
