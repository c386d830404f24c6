//! The I/O-node cache banks over dense block ids.
//!
//! A bank is every I/O node's cache under one replacement policy. The
//! [prepared stream](crate::prep::SessionIndex) numbers the touched blocks
//! `0..ids`, and striping puts each block on exactly one node, so a bank
//! keeps one per-id array for all of its nodes and per-node state beside
//! it: no block is ever hashed.
//!
//! * [`LruBank`] — an id→slot array, and per node an intrusive recency
//!   list threaded through the slots. A miss at capacity reuses the
//!   node's least recent slot.
//! * [`FifoBank`] — a residency bitmap over ids, and per node a ring of
//!   its residents in fetch order. A hit changes nothing.
//! * [`IplBank`] — the paper's §5 future-work policy: the LRU bank plus
//!   per-slot byte coverage and per node a stack of blocks that became
//!   exhausted (every byte referenced). A miss at capacity evicts the
//!   most recently exhausted block still resident, else the LRU victim.
//!
//! A node's capacity is the bank's total buffers divided by its node
//! count, rounded down; a capacity of 0 caches nothing.

use crate::prep::{Request, BLOCK};

/// "No id": a sentinel's id, and where a slot's neighbours start out.
const NIL: u32 = u32::MAX;

/// The LRU bank's slot of an id that is not resident: slot 0 is node 0's
/// sentinel and never holds a block, and an array of zeros needs no fill.
const ABSENT: u32 = 0;

/// One policy's caches on every I/O node.
pub(crate) trait Bank {
    /// Reference block `id`, stored on `node`, with `touched` of its
    /// bytes. Returns whether it was resident; it is resident afterwards
    /// unless capacity is 0.
    fn access(&mut self, node: usize, id: u32, touched: u32) -> bool;
}

/// Request- and block-level hit counts of a bank's replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counts {
    /// Requests whose every block was satisfied from cache.
    pub(crate) hits: u64,
    /// Requests.
    pub(crate) accesses: u64,
    /// Block references satisfied from cache.
    pub(crate) block_hits: u64,
    /// Block references.
    pub(crate) block_accesses: u64,
}

impl Counts {
    /// Request-level hit rate so far.
    pub(crate) fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.accesses.max(1) as f64
    }

    /// Serve a whole request on `bank`'s `nodes` nodes, blocks striped
    /// round-robin: a hit only if every touched block was satisfied from
    /// cache. A *write* that covers a whole block is satisfied even when
    /// the block is absent — with write-behind the I/O node simply
    /// allocates a buffer, no disk read is needed (only a partial
    /// overwrite of an uncached block forces a fetch).
    #[inline]
    pub(crate) fn request<B: Bank>(&mut self, bank: &mut B, nodes: usize, r: &Request) {
        self.accesses += 1;
        self.block_accesses += u64::from(r.blocks);
        // Consecutive blocks live on consecutive nodes: only the first
        // block is placed by division.
        let mut node = (r.first % nodes as u64) as usize;
        let write = r.is_write();
        let mut all = true;
        for k in 0..r.blocks {
            let touched = r.touched(k);
            if bank.access(node, r.id + k, touched) || (write && u64::from(touched) == BLOCK) {
                self.block_hits += 1;
            } else {
                all = false;
            }
            node += 1;
            if node == nodes {
                node = 0;
            }
        }
        if all {
            self.hits += 1;
        }
    }

    /// Serve some blocks of `r`, `(block, touched bytes)`, as one request:
    /// a hit only if every listed block was resident. An empty list is
    /// ignored (the request was satisfied upstream).
    pub(crate) fn blocks<B: Bank>(
        &mut self,
        bank: &mut B,
        nodes: usize,
        r: &Request,
        blocks: &[(u64, u32)],
    ) {
        if blocks.is_empty() {
            return;
        }
        self.accesses += 1;
        let mut all = true;
        for &(b, touched) in blocks {
            self.block_accesses += 1;
            if bank.access((b % nodes as u64) as usize, r.id_of(b), touched) {
                self.block_hits += 1;
            } else {
                all = false;
            }
        }
        if all {
            self.hits += 1;
        }
    }
}

/// A node's capacity as a slot count: no node can hold more than every
/// id, so a capacity beyond that is the same as `u32::MAX`.
fn capacity(per_node: usize) -> u32 {
    u32::try_from(per_node).unwrap_or(u32::MAX)
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// A slot of the LRU bank: the resident id and its recency neighbours.
/// Slot `n < nodes` is node `n`'s sentinel: its list is circular through
/// it, most recent block at the sentinel's `next`, least recent at its
/// `prev`.
#[derive(Clone, Copy, Debug)]
struct Link {
    id: u32,
    prev: u32,
    next: u32,
}

/// LRU caches on every node.
#[derive(Debug)]
pub(crate) struct LruBank {
    per_node: u32,
    /// Id → its slot, or [`ABSENT`].
    slot: Vec<u32>,
    /// The sentinels, then the slots, allocated as nodes fill; a full
    /// node reuses its own.
    links: Vec<Link>,
    /// Per node, the blocks it holds.
    lens: Vec<u32>,
}

impl LruBank {
    /// `nodes` empty caches of `per_node` blocks over ids `0..ids`.
    pub(crate) fn new(ids: usize, nodes: usize, per_node: usize) -> Self {
        assert!(
            nodes.saturating_add(ids) < NIL as usize,
            "{nodes} sentinels and {ids} blocks overflow 32-bit slots"
        );
        LruBank {
            per_node: capacity(per_node),
            slot: vec![ABSENT; ids],
            links: (0..nodes as u32)
                .map(|n| Link {
                    id: NIL,
                    prev: n,
                    next: n,
                })
                .collect(),
            lens: vec![0; nodes],
        }
    }

    fn unlink(&mut self, s: u32) {
        let Link { prev, next, .. } = self.links[s as usize];
        self.links[prev as usize].next = next;
        self.links[next as usize].prev = prev;
    }

    fn push_front(&mut self, node: usize, s: u32) {
        let head = self.links[node].next;
        self.links[node].next = s;
        self.links[head as usize].prev = s;
        let link = &mut self.links[s as usize];
        link.prev = node as u32;
        link.next = head;
    }

    /// Make the resident slot `s` the node's most recent.
    #[inline]
    fn touch(&mut self, node: usize, s: u32) {
        if self.links[node].next != s {
            self.unlink(s);
            self.push_front(node, s);
        }
    }

    /// The slot of `node`'s least recent block.
    fn tail(&self, node: usize) -> u32 {
        self.links[node].prev
    }

    /// Whether `node` holds as many blocks as it can.
    fn full(&self, node: usize) -> bool {
        self.lens[node] >= self.per_node
    }

    /// Give the absent `id` a slot on `node` as its most recent block:
    /// `victim`'s, whose block leaves, or a fresh one. Returns the slot.
    fn fill(&mut self, node: usize, id: u32, victim: Option<u32>) -> u32 {
        let s = match victim {
            Some(s) => {
                let gone = std::mem::replace(&mut self.links[s as usize].id, id);
                self.slot[gone as usize] = ABSENT;
                self.unlink(s);
                s
            }
            None => {
                self.links.push(Link {
                    id,
                    prev: NIL,
                    next: NIL,
                });
                self.lens[node] += 1;
                (self.links.len() - 1) as u32
            }
        };
        self.slot[id as usize] = s;
        self.push_front(node, s);
        charisma_ipsc::invariant!(
            self.lens[node] <= self.per_node,
            "LRU node {node} holds {} blocks over capacity {}",
            self.lens[node],
            self.per_node
        );
        s
    }
}

impl Bank for LruBank {
    #[inline]
    fn access(&mut self, node: usize, id: u32, _touched: u32) -> bool {
        let s = self.slot[id as usize];
        if s != ABSENT {
            self.touch(node, s);
            return true;
        }
        if self.per_node > 0 {
            let victim = self.full(node).then(|| self.tail(node));
            self.fill(node, id, victim);
        }
        false
    }
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// One node's residents in fetch order: `ring` grows to the capacity,
/// then `oldest` walks it.
#[derive(Clone, Debug, Default)]
struct Ring {
    ring: Vec<u32>,
    oldest: usize,
}

/// FIFO caches on every node: eviction order is fetch order, ignoring
/// reuse. "FIFO does not give preference to blocks with high locality" —
/// the paper found it needs ~5× the buffers LRU needs for a 90 % hit rate.
#[derive(Debug)]
pub(crate) struct FifoBank {
    per_node: u32,
    /// Bit `id % 64` of word `id / 64` is set while `id` is resident.
    resident: Vec<u64>,
    rings: Vec<Ring>,
}

impl FifoBank {
    /// `nodes` empty caches of `per_node` blocks over ids `0..ids`.
    pub(crate) fn new(ids: usize, nodes: usize, per_node: usize) -> Self {
        FifoBank {
            per_node: capacity(per_node),
            resident: vec![0; ids.div_ceil(64)],
            rings: vec![Ring::default(); nodes],
        }
    }

    /// Whether `id` is resident.
    #[inline]
    fn contains(&self, id: u32) -> bool {
        self.resident[(id / 64) as usize] & (1 << (id % 64)) != 0
    }

    fn flip(&mut self, id: u32) {
        self.resident[(id / 64) as usize] ^= 1 << (id % 64);
    }
}

impl Bank for FifoBank {
    #[inline]
    fn access(&mut self, node: usize, id: u32, _touched: u32) -> bool {
        if self.contains(id) {
            return true;
        }
        if self.per_node == 0 {
            return false;
        }
        let per_node = self.per_node as usize;
        let ring = &mut self.rings[node];
        if ring.ring.len() < per_node {
            ring.ring.push(id);
        } else {
            let gone = std::mem::replace(&mut ring.ring[ring.oldest], id);
            ring.oldest += 1;
            if ring.oldest == per_node {
                ring.oldest = 0;
            }
            self.flip(gone);
        }
        self.flip(id);
        false
    }
}

// ---------------------------------------------------------------------------
// Interprocess-locality-aware (the paper's §5 future-work policy)
// ---------------------------------------------------------------------------

/// An eviction policy specialized for the workload the paper observed.
///
/// Under interleaved parallel access, a block is referenced by several
/// compute nodes in quick succession — once every byte of the block has
/// been consumed, the block is *used up* and will likely never be touched
/// again (the paper found essentially no temporal locality). The bank
/// therefore tracks how many bytes of each resident block have been
/// referenced and preferentially evicts *exhausted* blocks (coverage ≥
/// block size); only when no block is exhausted does it fall back to LRU
/// order.
#[derive(Debug)]
pub(crate) struct IplBank {
    lru: LruBank,
    /// Bytes referenced since the slot's block was fetched, saturating:
    /// only the crossing of [`BLOCK`] matters.
    coverage: Vec<u32>,
    /// Per node, the ids that crossed [`BLOCK`], most recent last. An id
    /// stays until popped, even after its block leaves or returns.
    exhausted: Vec<Vec<u32>>,
}

impl IplBank {
    /// `nodes` empty caches of `per_node` blocks over ids `0..ids`.
    pub(crate) fn new(ids: usize, nodes: usize, per_node: usize) -> Self {
        IplBank {
            lru: LruBank::new(ids, nodes, per_node),
            coverage: vec![0; nodes],
            exhausted: vec![Vec::new(); nodes],
        }
    }
}

impl Bank for IplBank {
    #[inline]
    fn access(&mut self, node: usize, id: u32, touched: u32) -> bool {
        let resident = self.lru.slot[id as usize];
        let (s, before) = if resident != ABSENT {
            self.lru.touch(node, resident);
            (resident, self.coverage[resident as usize])
        } else if self.lru.per_node == 0 {
            return false;
        } else {
            let victim = self.lru.full(node).then(|| {
                // The most recently exhausted block still resident, else
                // the LRU victim. `id` itself is not resident, so it
                // cannot be popped as its own victim.
                let stack = &mut self.exhausted[node];
                std::iter::from_fn(|| stack.pop())
                    .map(|gone| self.lru.slot[gone as usize])
                    .find(|&s| s != ABSENT)
                    .unwrap_or(self.lru.tail(node))
            });
            let s = self.lru.fill(node, id, victim);
            if s as usize == self.coverage.len() {
                self.coverage.push(0);
            }
            // A fresh fetch restarts coverage accounting.
            (s, 0)
        };
        let after = before.saturating_add(touched);
        self.coverage[s as usize] = after;
        if u64::from(before) < BLOCK && u64::from(after) >= BLOCK {
            // Push only on the crossing so a hot block cannot flood the
            // stack with duplicates.
            self.exhausted[node].push(id);
        }
        resident != ABSENT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_cfs::LruCache;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Residency, as the tests observe it.
    trait Resident: Bank {
        fn contains(&self, id: u32) -> bool;
        /// Blocks resident on `node`.
        fn len(&self, node: usize) -> usize;
    }

    impl Resident for LruBank {
        fn contains(&self, id: u32) -> bool {
            self.slot[id as usize] != ABSENT
        }
        fn len(&self, node: usize) -> usize {
            self.lens[node] as usize
        }
    }

    impl Resident for FifoBank {
        fn contains(&self, id: u32) -> bool {
            FifoBank::contains(self, id)
        }
        fn len(&self, node: usize) -> usize {
            self.rings[node].ring.len()
        }
    }

    impl Resident for IplBank {
        fn contains(&self, id: u32) -> bool {
            self.lru.contains(id)
        }
        fn len(&self, node: usize) -> usize {
            self.lru.len(node)
        }
    }

    const IDS: usize = 2000;

    #[test]
    fn zero_capacity_caches_nothing() {
        let banks: [&mut dyn Resident; 3] = [
            &mut LruBank::new(IDS, 2, 0),
            &mut FifoBank::new(IDS, 2, 0),
            &mut IplBank::new(IDS, 2, 0),
        ];
        for bank in banks {
            for _ in 0..3 {
                assert!(!bank.access(1, 0, BLOCK as u32));
            }
            assert!(!bank.contains(0));
            assert_eq!(bank.len(0) + bank.len(1), 0);
        }
    }

    #[test]
    fn lru_evicts_the_least_recent_block_of_its_node_only() {
        let mut c = LruBank::new(IDS, 2, 2);
        assert!(!c.access(0, 0, 1), "cold miss");
        assert!(c.access(0, 0, 1), "hit");
        assert!(!c.access(0, 1, 1));
        assert!(!c.access(1, 7, 1), "another node's block");
        assert!(!c.access(0, 2, 1), "evicts 0 (LRU)");
        assert!(!c.contains(0) && c.contains(1) && c.contains(2) && c.contains(7));
        assert!(c.access(0, 1, 1), "1 survived; now most recent");
        assert!(!c.access(0, 3, 1), "evicts 2");
        assert!(!c.contains(2) && c.contains(1) && c.contains(3));
        assert_eq!((c.len(0), c.len(1)), (2, 1));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = FifoBank::new(IDS, 1, 2);
        c.access(0, 0, 1);
        c.access(0, 1, 1);
        assert!(c.access(0, 0, 1), "hit does not move 0");
        c.access(0, 2, 1); // evicts 0 (oldest fetch) despite recent hit
        assert!(!c.contains(0));
        assert!(c.contains(1) && c.contains(2));
    }

    #[test]
    fn fifo_capacity_respected() {
        let mut c = FifoBank::new(IDS, 3, 4);
        for id in 0..50 {
            c.access(id as usize % 3, id, 1);
            assert!((0..3).all(|node| c.len(node) <= 4));
        }
    }

    #[test]
    fn lru_outperforms_fifo_on_looping_scan_with_hot_block() {
        // A hot block re-touched between scan steps: LRU keeps it, FIFO
        // ages it out. This is the mechanism behind Figure 9's LRU/FIFO gap.
        let mut lru = LruBank::new(IDS, 1, 4);
        let mut fifo = FifoBank::new(IDS, 1, 4);
        let (mut lru_hits, mut fifo_hits) = (0, 0);
        for i in 1..1000 {
            // hot block 0 between cold scan blocks
            for id in [0, i] {
                lru_hits += u32::from(lru.access(0, id, 1));
                fifo_hits += u32::from(fifo.access(0, id, 1));
            }
        }
        assert!(lru_hits > fifo_hits, "LRU {lru_hits} vs FIFO {fifo_hits}");
    }

    #[test]
    fn ipl_evicts_exhausted_blocks_first() {
        let block = BLOCK as u32;
        let mut c = IplBank::new(IDS, 1, 2);
        // Block 1 half consumed (still useful); block 0 fully consumed.
        c.access(0, 1, block / 2);
        c.access(0, 0, block);
        // A third block arrives: the exhausted block 0 should go, even
        // though block 1 is the LRU victim.
        c.access(0, 2, 1);
        assert!(!c.contains(0), "exhausted block evicted");
        assert!(c.contains(1), "unfinished block kept");
        assert!(c.contains(2));
    }

    #[test]
    fn ipl_exhaustion_counts_bytes_across_hits() {
        let quarter = BLOCK as u32 / 4;
        let mut c = IplBank::new(IDS, 1, 2);
        for _ in 0..4 {
            c.access(0, 0, quarter);
        }
        c.access(0, 1, 1);
        c.access(0, 0, 1); // 0 is most recent, but exhausted
        c.access(0, 2, 1);
        assert!(!c.contains(0) && c.contains(1) && c.contains(2));
    }

    #[test]
    fn ipl_falls_back_to_lru() {
        let mut c = IplBank::new(IDS, 1, 2);
        c.access(0, 0, 1);
        c.access(0, 1, 1);
        c.access(0, 2, 1); // nothing exhausted: plain LRU eviction of 0
        assert!(!c.contains(0));
        assert!(c.contains(1) && c.contains(2));
        assert!(c.len(0) <= 2);
    }

    #[test]
    fn ipl_capacity_respected_under_churn() {
        let mut c = IplBank::new(IDS, 2, 8);
        for i in 0..10_000u32 {
            c.access((i % 2) as usize, i % 57, BLOCK as u32);
            assert!(c.len(0) <= 8 && c.len(1) <= 8);
        }
    }

    #[test]
    fn requests_count_whole_block_writes_as_hits() {
        // One 3-block write at block 5 over 2 nodes: blocks 5 and 7 on
        // node 1, 6 on node 0. The whole-block middle write is credited,
        // the partial head and tail are misses.
        use crate::prep::SessionIndex;
        use charisma_ipsc::SimTime;
        use charisma_trace::record::{AccessKind, EventBody};
        use charisma_trace::OrderedEvent;
        let ev = |body| OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body,
        };
        let events = [
            ev(EventBody::Open {
                job: 1,
                file: 1,
                session: 1,
                mode: 0,
                access: AccessKind::Write,
                created: true,
            }),
            ev(EventBody::Write {
                session: 1,
                offset: 5 * BLOCK + 100,
                bytes: 2 * BLOCK as u32 - 50,
            }),
        ];
        let index = SessionIndex::build(&events);
        let r = index.stream()[0];
        assert_eq!((r.first, r.id, r.blocks), (5, 0, 3));
        let mut bank = LruBank::new(index.block_ids(), 2, 4);
        let mut counts = Counts::default();
        counts.request(&mut bank, 2, &r);
        assert_eq!(
            counts,
            Counts {
                hits: 0,
                accesses: 1,
                block_hits: 1,
                block_accesses: 3
            }
        );
        assert!(bank.contains(0) && bank.contains(1) && bank.contains(2));
        counts.request(&mut bank, 2, &r);
        assert_eq!((counts.hits, counts.block_hits), (1, 4));
        // The same blocks listed one by one hit too.
        counts.blocks(&mut bank, 2, &r, &[(5, 1), (7, 1)]);
        assert_eq!(
            (counts.hits, counts.accesses, counts.block_accesses),
            (2, 3, 8)
        );
    }

    /// A naive reference FIFO: a Vec ordered by fetch, oldest first. A hit
    /// leaves the order alone.
    struct RefFifo {
        cap: usize,
        items: Vec<u32>,
    }

    impl RefFifo {
        fn access(&mut self, id: u32) -> bool {
            if self.cap == 0 {
                return false;
            }
            if self.items.contains(&id) {
                return true;
            }
            if self.items.len() >= self.cap {
                self.items.remove(0);
            }
            self.items.push(id);
            false
        }
    }

    /// A differential cache trace: blocks of one of a few files, from a
    /// narrow or a wide range, given dense ids in order of first
    /// reference the way the prepared stream numbers them. Each entry is
    /// `(block, id)`; striping puts it on node `block % nodes`.
    fn cache_ops() -> impl Strategy<Value = Vec<(u64, u32)>> {
        proptest::collection::vec((0u32..4, prop_oneof![0u64..96, 0u64..1 << 40]), 1..600).prop_map(
            |keys| {
                let mut ids = BTreeMap::new();
                keys.into_iter()
                    .map(|key| {
                        let next = ids.len() as u32;
                        (key.1, *ids.entry(key).or_insert(next))
                    })
                    .collect()
            },
        )
    }

    proptest! {
        /// The LRU bank agrees with one `LruCache` per node on every
        /// access, at every capacity from 0 up: hits, residency and each
        /// node's least recent block.
        #[test]
        fn lru_bank_matches_lru_cache(
            cap in 0usize..65,
            nodes in 1usize..5,
            ops in cache_ops(),
        ) {
            let mut bank = LruBank::new(IDS.max(ops.len()), nodes, cap);
            let mut caches: Vec<LruCache> = (0..nodes).map(|_| LruCache::new(cap)).collect();
            for &(block, id) in &ops {
                let node = (block % nodes as u64) as usize;
                let key = (0, u64::from(id));
                prop_assert_eq!(bank.access(node, id, 1), caches[node].access(key, 1), "id {}", id);
                prop_assert_eq!(bank.len(node), caches[node].len());
                prop_assert!(bank.len(node) <= cap);
                let tail = (bank.len(node) > 0)
                    .then(|| u64::from(bank.links[bank.tail(node) as usize].id));
                prop_assert_eq!(tail, caches[node].lru_key().map(|(_, b)| b));
            }
            for &(block, id) in &ops {
                let node = (block % nodes as u64) as usize;
                prop_assert_eq!(bank.contains(id), caches[node].contains((0, u64::from(id))));
            }
        }

        /// The FIFO bank agrees with the naive reference on every access,
        /// per node, at every capacity from 0 up.
        #[test]
        fn fifo_matches_reference_model(cap in 0usize..65, ops in cache_ops()) {
            let mut fast = FifoBank::new(IDS.max(ops.len()), 3, cap);
            let mut slow: Vec<RefFifo> = (0..3).map(|_| RefFifo { cap, items: Vec::new() }).collect();
            for &(block, id) in &ops {
                let node = (block % 3) as usize;
                let a = fast.access(node, id, 1);
                let b = slow[node].access(id);
                prop_assert_eq!(a, b, "divergence on {}", id);
                prop_assert_eq!(fast.len(node), slow[node].items.len());
                for &k in &slow[node].items {
                    prop_assert!(fast.contains(k), "{} should be resident", k);
                }
            }
        }

        /// While no block is exhausted (each access touches one byte, and no
        /// trace is long enough to cover a block), the IPL policy has nothing
        /// to prefer and agrees with LRU on every hit and eviction.
        #[test]
        fn ipl_matches_lru_while_nothing_is_exhausted(cap in 0usize..65, ops in cache_ops()) {
            let ids = IDS.max(ops.len());
            let mut ipl = IplBank::new(ids, 2, cap);
            let mut lru = LruBank::new(ids, 2, cap);
            for &(block, id) in &ops {
                let node = (block % 2) as usize;
                prop_assert_eq!(ipl.access(node, id, 1), lru.access(node, id, 1), "divergence on {}", id);
                prop_assert_eq!(ipl.len(node), lru.len(node));
                for &(_, k) in &ops {
                    prop_assert_eq!(ipl.contains(k), lru.contains(k), "residency of {}", k);
                }
            }
        }
    }
}
