//! Block buffer caches.
//!
//! The paper's trace-driven simulations (§4.8) use 4 KB block buffers with
//! LRU or FIFO replacement; its conclusions call for policies "other than
//! LRU or FIFO … to optimize for interprocess locality rather than
//! traditional spatial and temporal locality" — implemented here as
//! [`IplCache`].
//!
//! All caches share the [`BlockCache`] interface: `access` returns whether
//! the block was resident (a hit) and makes it resident, evicting if full.

use std::collections::VecDeque;

/// Identity of a cached block: the file's path id and the block index.
pub type BlockKey = (u32, u64);

// ---------------------------------------------------------------------------
// Block table
// ---------------------------------------------------------------------------

/// The caches' index from a resident block to its per-policy value (a slab
/// slot, a fetch stamp, a coverage count).
///
/// Open addressing with linear probing over a power-of-two slot array, and
/// backward-shift deletion, so a removal leaves no tombstone behind and a
/// probe always stops at the first empty slot. The hash is a fixed
/// multiplicative (Fibonacci) hash of `(file, block)` — no per-process
/// random state — and the table has no iteration API, so nothing
/// observable can depend on slot order. The table starts at
/// [`BlockTable::MIN_SLOTS`] and doubles when an insert would push the
/// load past ¼, so its memory follows the resident blocks, not the
/// cache's capacity.
#[derive(Debug)]
struct BlockTable<V> {
    slots: Vec<Option<(BlockKey, V)>>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
}

impl<V: Copy> BlockTable<V> {
    const MIN_SLOTS: usize = 16;

    fn new() -> Self {
        BlockTable {
            slots: vec![None; Self::MIN_SLOTS],
            len: 0,
            shift: 64 - Self::MIN_SLOTS.trailing_zeros(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, (file, block): BlockKey) -> usize {
        let h = (block ^ u64::from(file).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> self.shift) as usize
    }

    /// `Ok((slot, value))` for `key`, or `Err(slot)`: the empty slot that
    /// ends its probe sequence. The load stays ≤ ¼, so an empty slot exists.
    fn find(&self, key: BlockKey) -> Result<(usize, V), usize> {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                None => return Err(i),
                Some((k, v)) if k == key => return Ok((i, v)),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    fn get(&self, key: BlockKey) -> Option<V> {
        self.find(key).ok().map(|(_, v)| v)
    }

    fn contains(&self, key: BlockKey) -> bool {
        self.find(key).is_ok()
    }

    /// Insert or overwrite `key`.
    fn insert(&mut self, key: BlockKey, value: V) {
        match self.find(key) {
            Ok((i, _)) => self.slots[i] = Some((key, value)),
            Err(vacant) => self.fill(vacant, key, value),
        }
    }

    /// Insert the absent `key` into `vacant`, the empty slot its
    /// [`Self::find`] ended on, with no table change in between. Only a
    /// growth probes again.
    fn fill(&mut self, vacant: usize, key: BlockKey, value: V) {
        let i = if 4 * (self.len + 1) <= self.slots.len() {
            vacant
        } else {
            self.grow();
            let (Ok((i, _)) | Err(i)) = self.find(key);
            i
        };
        self.slots[i] = Some((key, value));
        self.len += 1;
    }

    /// Double the slot array and rehash every entry into it.
    fn grow(&mut self) {
        let doubled = vec![None; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for (key, value) in old.into_iter().flatten() {
            let (Ok((i, _)) | Err(i)) = self.find(key);
            self.slots[i] = Some((key, value));
        }
    }

    /// Remove `key`, if present.
    fn remove(&mut self, key: BlockKey) -> Option<V> {
        let (slot, value) = self.find(key).ok()?;
        self.remove_at(slot);
        Some(value)
    }

    /// Empty `slot`, then shift back each later entry of the probe run
    /// whose home slot lies at or before the hole, so every remaining key
    /// stays reachable from its home without tombstones.
    fn remove_at(&mut self, slot: usize) {
        if self.slots[slot].take().is_none() {
            return;
        }
        self.len -= 1;
        let mask = self.mask();
        let mut hole = slot;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some((k, _)) = self.slots[j] else {
                break;
            };
            // `k` may fill the hole when the hole is no further from j than
            // k's home is (cyclically), i.e. the hole lies on k's probe path.
            if (j.wrapping_sub(self.home(k)) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
        }
    }
}

/// Common interface of the replacement policies.
pub trait BlockCache {
    /// Touch `key` with `touched_bytes` of the block actually referenced.
    /// Returns true on a hit (block was resident). On a miss the block is
    /// fetched (made resident), evicting the policy's victim if needed.
    fn access(&mut self, key: BlockKey, touched_bytes: u32) -> bool;

    /// Whether `key` is resident, without touching policy state.
    fn contains(&self, key: BlockKey) -> bool;

    /// Number of resident blocks.
    fn len(&self) -> usize;

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity in blocks.
    fn capacity(&self) -> usize;

    /// Drop a block if resident (e.g. on file deletion).
    fn invalidate(&mut self, key: BlockKey);
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Least-recently-used cache: O(1) via an intrusive doubly-linked list over
/// a slab, the classic implementation.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    map: BlockTable<usize>,
    slab: Vec<LruEntry>,
    head: usize, // most recent
    tail: usize, // least recent
    free: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct LruEntry {
    key: BlockKey,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl LruCache {
    /// A cache of `capacity` blocks (capacity 0 caches nothing).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: BlockTable::new(),
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    fn unlink(&mut self, i: usize) {
        let LruEntry { prev, next, .. } = self.slab[i];
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// The least-recently-used key, if any (exposed for tests).
    pub fn lru_key(&self) -> Option<BlockKey> {
        (self.tail != NIL).then(|| self.slab[self.tail].key)
    }
}

impl BlockCache for LruCache {
    /// One probe finds `key`. A miss fills the empty slot that probe ended
    /// on before the victim leaves: removing the victim first could shift
    /// another entry into that slot. The victim's slab entry is reused in
    /// place for the new block.
    #[inline]
    fn access(&mut self, key: BlockKey, _touched_bytes: u32) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let vacant = match self.map.find(key) {
            Ok((_, i)) => {
                self.unlink(i);
                self.push_front(i);
                return true;
            }
            Err(vacant) => vacant,
        };
        let i = if self.map.len() >= self.capacity {
            let victim = self.tail;
            let gone = self.slab[victim].key;
            self.map.fill(vacant, key, victim);
            self.map.remove(gone);
            self.unlink(victim);
            victim
        } else {
            let i = self.free.pop().unwrap_or_else(|| {
                self.slab.push(LruEntry {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            });
            self.map.fill(vacant, key, i);
            i
        };
        self.slab[i].key = key;
        self.push_front(i);
        charisma_ipsc::invariant!(
            self.map.len() <= self.capacity,
            "LRU holds {} blocks over capacity {}",
            self.map.len(),
            self.capacity
        );
        charisma_ipsc::invariant!(
            self.map.is_empty() == (self.head == NIL && self.tail == NIL),
            "LRU map and recency list disagree about emptiness"
        );
        charisma_ipsc::invariant!(
            self.slab[self.head].key == key,
            "LRU head is not the just-touched block"
        );
        false
    }

    fn contains(&self, key: BlockKey) -> bool {
        self.map.contains(key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn invalidate(&mut self, key: BlockKey) {
        if let Some(i) = self.map.remove(key) {
            self.unlink(i);
            self.free.push(i);
        }
    }
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// First-in-first-out cache: eviction order is fetch order, ignoring reuse.
/// "FIFO does not give preference to blocks with high locality" — the paper
/// found it needs ~5× the buffers LRU needs for a 90 % hit rate.
#[derive(Debug)]
pub struct FifoCache {
    capacity: usize,
    map: BlockTable<u64>,
    queue: VecDeque<(BlockKey, u64)>,
    stamp: u64,
}

impl FifoCache {
    /// A cache of `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        FifoCache {
            capacity,
            map: BlockTable::new(),
            queue: VecDeque::with_capacity(capacity.min(1 << 20)),
            stamp: 0,
        }
    }
}

impl BlockCache for FifoCache {
    /// One probe finds `key`; a miss fills the slot it ended on, then
    /// evicts. Each queue entry popped costs one probe, which both checks
    /// its stamp and names the slot to empty.
    #[inline]
    fn access(&mut self, key: BlockKey, _touched_bytes: u32) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let vacant = match self.map.find(key) {
            Ok(_) => return true,
            Err(vacant) => vacant,
        };
        self.stamp += 1;
        self.map.fill(vacant, key, self.stamp);
        while self.map.len() > self.capacity {
            // Pop queue entries until one is still current (invalidation
            // leaves stale queue entries behind). The new block is not
            // queued yet, and a stale entry for it carries an older stamp.
            let Some((victim, stamp)) = self.queue.pop_front() else {
                break; // unreachable: the queue covers the old residents
            };
            if let Ok((slot, current)) = self.map.find(victim) {
                if current == stamp {
                    self.map.remove_at(slot);
                }
            }
        }
        self.queue.push_back((key, self.stamp));
        charisma_ipsc::invariant!(
            self.map.len() <= self.capacity,
            "FIFO holds {} blocks over capacity {}",
            self.map.len(),
            self.capacity
        );
        charisma_ipsc::invariant!(
            self.queue.len() >= self.map.len(),
            "FIFO queue no longer covers the resident set"
        );
        false
    }

    fn contains(&self, key: BlockKey) -> bool {
        self.map.contains(key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn invalidate(&mut self, key: BlockKey) {
        self.map.remove(key);
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
/// again (the paper found essentially no temporal locality). `IplCache`
/// therefore tracks how many bytes of each resident block have been
/// referenced and preferentially evicts *exhausted* blocks (coverage ≥
/// block size); only when no block is exhausted does it fall back to LRU
/// order.
#[derive(Debug)]
pub struct IplCache {
    lru: LruCache,
    coverage: BlockTable<u64>,
    exhausted: Vec<BlockKey>,
    block_bytes: u64,
}

impl IplCache {
    /// A cache of `capacity` blocks of `block_bytes` bytes each.
    pub fn new(capacity: usize, block_bytes: u64) -> Self {
        IplCache {
            lru: LruCache::new(capacity),
            coverage: BlockTable::new(),
            exhausted: Vec::new(),
            block_bytes,
        }
    }
}

impl BlockCache for IplCache {
    fn access(&mut self, key: BlockKey, touched_bytes: u32) -> bool {
        if self.lru.capacity() == 0 {
            return false;
        }
        // The coverage table's keys are the resident set: a miss is known
        // here without probing the LRU a second time.
        let before = self.coverage.get(key);
        if before.is_none() && self.lru.len() >= self.lru.capacity() {
            // Prefer evicting an exhausted block over the LRU victim.
            let mut evicted = false;
            while let Some(victim) = self.exhausted.pop() {
                if victim != key && self.lru.contains(victim) {
                    self.lru.invalidate(victim);
                    self.coverage.remove(victim);
                    evicted = true;
                    break;
                }
            }
            if !evicted {
                // LruCache::access below will evict its LRU victim; drop
                // our coverage record for it so the table cannot leak.
                if let Some(victim) = self.lru.lru_key() {
                    self.coverage.remove(victim);
                }
            }
        }
        let hit = self.lru.access(key, touched_bytes);
        charisma_ipsc::invariant!(hit == before.is_some(), "IPL coverage and LRU disagree");
        // A fresh fetch restarts coverage accounting.
        let before = before.unwrap_or(0);
        let after = before + u64::from(touched_bytes);
        self.coverage.insert(key, after);
        if before < self.block_bytes && after >= self.block_bytes {
            // Push only on the crossing so a hot block cannot flood the
            // exhausted list with duplicates.
            self.exhausted.push(key);
        }
        hit
    }

    fn contains(&self, key: BlockKey) -> bool {
        self.lru.contains(key)
    }

    fn len(&self) -> usize {
        self.lru.len()
    }

    fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    fn invalidate(&mut self, key: BlockKey) {
        self.lru.invalidate(key);
        self.coverage.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(b: u64) -> BlockKey {
        (1, b)
    }

    /// Keys whose home slot is `slot` in a fresh (minimum-size) table.
    fn homed_at(slot: usize, n: usize) -> Vec<BlockKey> {
        let table = BlockTable::<u64>::new();
        (0..)
            .map(k)
            .filter(|&key| table.home(key) == slot)
            .take(n)
            .collect()
    }

    fn permutations(items: &[BlockKey]) -> Vec<Vec<BlockKey>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, first);
                out.push(tail);
            }
        }
        out
    }

    #[test]
    fn block_table_deletes_across_the_wrap_in_every_order() {
        // Three keys share the last slot as home and spill over the end of
        // the array into slots 0 and 1; a fourth key is homed at slot 0 and
        // must be displaced past them. Every insertion order × every
        // deletion order keeps the survivors reachable.
        let last = BlockTable::<u64>::MIN_SLOTS - 1;
        let mut keys = homed_at(last, 3);
        keys.extend(homed_at(0, 1));
        for inserted in permutations(&keys) {
            for deleted in permutations(&keys) {
                let mut t = BlockTable::new();
                for (v, &key) in inserted.iter().enumerate() {
                    t.insert(key, v as u64);
                }
                assert_eq!(t.slots.len(), BlockTable::<u64>::MIN_SLOTS, "no growth");
                for (n, &gone) in deleted.iter().enumerate() {
                    let v = inserted.iter().position(|&key| key == gone);
                    assert_eq!(t.remove(gone), v.map(|v| v as u64));
                    assert_eq!(t.remove(gone), None, "removed twice");
                    assert_eq!(t.len(), keys.len() - n - 1);
                    for (v, &key) in inserted.iter().enumerate() {
                        let live = !deleted[..=n].contains(&key);
                        assert_eq!(t.get(key), live.then_some(v as u64));
                    }
                }
                assert!(t.slots.iter().all(Option::is_none), "no tombstones");
            }
        }
    }

    #[test]
    fn miss_fills_its_slot_then_evicts_across_the_wrap_in_every_order() {
        // Three residents share the last slot as home and spill over the
        // end of the array; a fourth key homed at slot 0 arrives as a miss
        // at capacity. Its probe ends past the wrapped run, and the victim
        // leaves from inside that run afterwards. Every arrival order,
        // under both policies, keeps every survivor reachable.
        let last = BlockTable::<u64>::MIN_SLOTS - 1;
        let mut keys = homed_at(last, 3);
        keys.extend(homed_at(0, 1));
        for order in permutations(&keys) {
            let (residents, newcomer) = order.split_at(3);
            let newcomer = newcomer[0];
            let mut lru = LruCache::new(3);
            let mut fifo = FifoCache::new(3);
            for &key in residents {
                assert!(!lru.access(key, 1) && !fifo.access(key, 1));
            }
            assert!(!lru.access(newcomer, 1) && !fifo.access(newcomer, 1));
            assert_eq!(lru.map.slots.len(), BlockTable::<usize>::MIN_SLOTS);
            assert_eq!(fifo.map.slots.len(), BlockTable::<u64>::MIN_SLOTS);
            // The oldest resident is both policies' victim.
            let victim = residents[0];
            for cache in [&mut lru as &mut dyn BlockCache, &mut fifo] {
                assert_eq!(cache.len(), 3);
                assert!(!cache.contains(victim), "{order:?}");
                for &key in &order[1..] {
                    assert!(cache.contains(key), "{key:?} lost in {order:?}");
                    assert!(cache.access(key, 1), "{key:?} missed in {order:?}");
                }
            }
            assert_eq!(lru.lru_key(), Some(order[1]));
        }
    }

    #[test]
    fn block_table_matches_an_ordered_map() {
        use std::collections::BTreeMap;
        let mut table = BlockTable::new();
        let mut model = BTreeMap::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = ((x >> 40) as u32 % 5, x % 300);
            if x.is_multiple_of(3) {
                assert_eq!(table.remove(key), model.remove(&key));
            } else {
                table.insert(key, step);
                model.insert(key, step);
            }
            assert_eq!(table.len(), model.len());
            assert_eq!(table.get(key), model.get(&key).copied());
            assert!(
                4 * table.len() <= table.slots.len(),
                "load above one quarter"
            );
        }
        for (&key, &v) in &model {
            assert_eq!(table.get(key), Some(v));
        }
    }

    #[test]
    fn block_table_grows_with_residents_not_capacity() {
        let mut c = LruCache::new(1 << 20);
        assert_eq!(c.map.slots.len(), BlockTable::<usize>::MIN_SLOTS);
        for b in 0..100 {
            c.access(k(b), 1);
        }
        assert_eq!(
            c.map.slots.len(),
            512,
            "smallest power of two at load <= 1/4"
        );
    }

    #[test]
    fn lru_hits_and_misses() {
        let mut c = LruCache::new(2);
        assert!(!c.access(k(0), 1), "cold miss");
        assert!(c.access(k(0), 1), "hit");
        assert!(!c.access(k(1), 1));
        assert!(!c.access(k(2), 1), "evicts k0 (LRU)");
        assert!(!c.access(k(0), 1), "k0 was evicted");
        assert!(c.access(k(2), 1), "k2 survived");
    }

    #[test]
    fn lru_eviction_order_is_recency() {
        let mut c = LruCache::new(3);
        c.access(k(0), 1);
        c.access(k(1), 1);
        c.access(k(2), 1);
        c.access(k(0), 1); // k0 now most recent; k1 is LRU
        assert_eq!(c.lru_key(), Some(k(1)));
        c.access(k(3), 1);
        assert!(!c.contains(k(1)));
        assert!(c.contains(k(0)) && c.contains(k(2)) && c.contains(k(3)));
    }

    #[test]
    fn lru_never_exceeds_capacity() {
        let mut c = LruCache::new(5);
        for b in 0..100 {
            c.access(k(b), 1);
            assert!(c.len() <= 5);
        }
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut lru = LruCache::new(0);
        let mut fifo = FifoCache::new(0);
        let mut ipl = IplCache::new(0, 4096);
        for _ in 0..3 {
            assert!(!lru.access(k(0), 1));
            assert!(!fifo.access(k(0), 1));
            assert!(!ipl.access(k(0), 1));
        }
        assert_eq!(lru.len() + fifo.len() + ipl.len(), 0);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = FifoCache::new(2);
        c.access(k(0), 1);
        c.access(k(1), 1);
        assert!(c.access(k(0), 1), "hit does not move k0");
        c.access(k(2), 1); // evicts k0 (oldest fetch) despite recent hit
        assert!(!c.contains(k(0)));
        assert!(c.contains(k(1)) && c.contains(k(2)));
    }

    #[test]
    fn fifo_capacity_respected() {
        let mut c = FifoCache::new(4);
        for b in 0..50 {
            c.access(k(b), 1);
            assert!(c.len() <= 4);
        }
    }

    #[test]
    fn invalidate_removes() {
        let mut lru = LruCache::new(4);
        lru.access(k(1), 1);
        lru.invalidate(k(1));
        assert!(!lru.contains(k(1)));
        assert!(!lru.access(k(1), 1), "miss after invalidation");

        let mut fifo = FifoCache::new(2);
        fifo.access(k(1), 1);
        fifo.invalidate(k(1));
        assert!(!fifo.contains(k(1)));
        // Stale queue entry must not corrupt later evictions.
        fifo.access(k(2), 1);
        fifo.access(k(3), 1);
        fifo.access(k(4), 1);
        assert!(fifo.len() <= 2);
    }

    #[test]
    fn lru_outperforms_fifo_on_looping_scan_with_hot_block() {
        // A hot block re-touched between scan steps: LRU keeps it, FIFO
        // ages it out. This is the mechanism behind Figure 9's LRU/FIFO gap.
        let mut lru = LruCache::new(4);
        let mut fifo = FifoCache::new(4);
        let mut lru_hits = 0;
        let mut fifo_hits = 0;
        for i in 0..1000u64 {
            // hot block 0 between cold scan blocks
            for key in [k(0), k(1000 + i)] {
                if lru.access(key, 1) {
                    lru_hits += 1;
                }
                if fifo.access(key, 1) {
                    fifo_hits += 1;
                }
            }
        }
        assert!(lru_hits > fifo_hits, "LRU {lru_hits} vs FIFO {fifo_hits}");
    }

    #[test]
    fn ipl_evicts_exhausted_blocks_first() {
        let block = 4096;
        let mut c = IplCache::new(2, block);
        // Block 0 fully consumed; block 1 half consumed (still useful).
        c.access(k(0), block as u32);
        c.access(k(1), (block / 2) as u32);
        // A third block arrives: the exhausted block 0 should go, even
        // though block 1 is the LRU victim.
        c.access(k(2), 1);
        assert!(!c.contains(k(0)), "exhausted block evicted");
        assert!(c.contains(k(1)), "unfinished block kept");
        assert!(c.contains(k(2)));
    }

    #[test]
    fn ipl_falls_back_to_lru() {
        let mut c = IplCache::new(2, 4096);
        c.access(k(0), 1);
        c.access(k(1), 1);
        c.access(k(2), 1); // nothing exhausted: plain LRU eviction of k0
        assert!(!c.contains(k(0)));
        assert!(c.contains(k(1)) && c.contains(k(2)));
        assert!(c.len() <= 2);
    }

    #[test]
    fn ipl_capacity_respected_under_churn() {
        let mut c = IplCache::new(8, 4096);
        for i in 0..10_000u64 {
            c.access(k(i % 57), 4096);
            assert!(c.len() <= 8);
        }
    }
}
