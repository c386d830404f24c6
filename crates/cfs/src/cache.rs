//! The block buffer cache of the CFS I/O nodes.
//!
//! [`LruCache`] holds 4 KB blocks keyed by `(file, block)` under LRU
//! replacement: `access` returns whether the block was resident (a hit)
//! and makes it resident, evicting if full; `touch` does the same and
//! also names the block it evicted. The CFS simulator gives each I/O node
//! one, and the §4.8 compute-node and prefetch simulations reuse it. The
//! Figure 9 I/O-node simulations (LRU, FIFO and the paper's §5
//! interprocess-locality policy) run on the cache simulator's own banks
//! over dense block ids instead.

/// Identity of a cached block: the file's path id and the block index.
pub type BlockKey = (u32, u64);

// ---------------------------------------------------------------------------
// Block table
// ---------------------------------------------------------------------------

/// The cache's index from a resident block to its slab slot.
///
/// Open addressing with linear probing over a power-of-two slot array, and
/// backward-shift deletion, so a removal leaves no tombstone behind and a
/// probe always stops at the first empty slot. The hash is a fixed
/// multiplicative (Fibonacci) hash of `(file, block)` — no per-process
/// random state — and the table has no iteration API, so nothing
/// observable can depend on slot order.
///
/// The table is sized once, from the cache's capacity, to the smallest
/// power of two that keeps the load at or below ¼ with `capacity + 1`
/// entries (a miss at capacity fills its slot before the victim leaves),
/// but no larger than [`BlockTable::MAX_INITIAL_SLOTS`]. A cache that fits
/// (every CFS I/O-node cache, every cache simulator's) never regrows; a
/// larger one starts at the cap and doubles when an insert would push the
/// load past ¼, so its memory follows the resident blocks.
#[derive(Debug)]
struct BlockTable {
    slots: Vec<Slot>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
}

/// One 16-byte slot of a [`BlockTable`].
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    block: u64,
    file: u32,
    /// The block's slab index plus one; 0 marks an empty slot.
    entry: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        block: 0,
        file: 0,
        entry: 0,
    };

    fn key(self) -> BlockKey {
        (self.file, self.block)
    }
}

impl BlockTable {
    const MIN_SLOTS: usize = 16;
    /// 256 KB of slots: room for 4096 entries, a 4095-block cache's table.
    const MAX_INITIAL_SLOTS: usize = 1 << 14;

    /// A table for a cache of `capacity` blocks.
    fn for_capacity(capacity: usize) -> Self {
        let entries = capacity.min(Self::MAX_INITIAL_SLOTS / 4 - 1) + 1;
        let slots = (4 * entries).next_power_of_two().max(Self::MIN_SLOTS);
        BlockTable {
            slots: vec![Slot::EMPTY; slots],
            len: 0,
            shift: 64 - slots.trailing_zeros(),
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

    /// `Ok((slot, entry))` for `key`, or `Err(slot)`: the empty slot that
    /// ends its probe sequence. The load stays ≤ ¼, so an empty slot exists.
    fn find(&self, key: BlockKey) -> Result<(usize, u32), usize> {
        let (file, block) = key;
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let slot = self.slots[i];
            if slot.entry == 0 {
                return Err(i);
            }
            if slot.block == block && slot.file == file {
                return Ok((i, slot.entry - 1));
            }
            i = (i + 1) & mask;
        }
    }

    #[cfg(test)]
    fn get(&self, key: BlockKey) -> Option<u32> {
        self.find(key).ok().map(|(_, v)| v)
    }

    fn contains(&self, key: BlockKey) -> bool {
        self.find(key).is_ok()
    }

    /// Insert or overwrite `key`.
    #[cfg(test)]
    fn insert(&mut self, key: BlockKey, entry: u32) {
        match self.find(key) {
            Ok((i, _)) => self.slots[i].entry = entry + 1,
            Err(vacant) => self.fill(vacant, key, entry),
        }
    }

    /// Insert the absent `key` into `vacant`, the empty slot its
    /// [`Self::find`] ended on, with no table change in between. Only a
    /// growth probes again.
    fn fill(&mut self, vacant: usize, key: BlockKey, entry: u32) {
        let i = if 4 * (self.len + 1) <= self.slots.len() {
            vacant
        } else {
            self.grow();
            let (Ok((i, _)) | Err(i)) = self.find(key);
            i
        };
        self.slots[i] = Slot {
            block: key.1,
            file: key.0,
            entry: entry + 1,
        };
        self.len += 1;
    }

    /// Double the slot array and rehash every entry into it.
    fn grow(&mut self) {
        let doubled = vec![Slot::EMPTY; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for slot in old.into_iter().filter(|s| s.entry != 0) {
            let (Ok((i, _)) | Err(i)) = self.find(slot.key());
            self.slots[i] = slot;
        }
    }

    /// Remove `key`, if present, returning its entry.
    fn remove(&mut self, key: BlockKey) -> Option<u32> {
        let (slot, entry) = self.find(key).ok()?;
        self.remove_at(slot);
        Some(entry)
    }

    /// Empty `slot`, then shift back each later entry of the probe run
    /// whose home slot lies at or before the hole, so every remaining key
    /// stays reachable from its home without tombstones.
    fn remove_at(&mut self, slot: usize) {
        if std::mem::replace(&mut self.slots[slot], Slot::EMPTY).entry == 0 {
            return;
        }
        self.len -= 1;
        let mask = self.mask();
        let mut hole = slot;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let moving = self.slots[j];
            if moving.entry == 0 {
                break;
            }
            // `moving` may fill the hole when the hole is no further from j
            // than its home is (cyclically), i.e. the hole lies on its
            // probe path.
            if (j.wrapping_sub(self.home(moving.key())) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = moving;
                self.slots[j] = Slot::EMPTY;
                hole = j;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Least-recently-used cache: O(1) via an intrusive doubly-linked list over
/// a slab, the classic implementation.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    map: BlockTable,
    slab: Vec<LruEntry>,
    head: u32, // most recent
    tail: u32, // least recent
    free: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct LruEntry {
    key: BlockKey,
    prev: u32,
    next: u32,
}

/// The null slab link. Slab indices stay below it: see [`LruCache::new`].
const NIL: u32 = u32::MAX;

/// What one [`LruCache::touch`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Touch {
    /// The block was resident.
    Hit,
    /// The block was fetched. `evicted` is the block that is no longer
    /// resident because of it: the least recent one when the cache was
    /// full, or the fetched block itself in a cache of capacity 0.
    Miss {
        /// The block that left the cache, if any.
        evicted: Option<BlockKey>,
    },
}

impl LruCache {
    /// The largest capacity, in blocks: slab indices are `u32`s below
    /// `NIL`, so a cache holds at most `u32::MAX` blocks.
    pub const MAX_CAPACITY: usize = NIL as usize;

    /// A cache of `capacity` blocks (capacity 0 caches nothing), clamped
    /// to [`LruCache::MAX_CAPACITY`]. The block table and the slab are
    /// allocated up front for at most 4096 blocks; a larger cache grows
    /// them as blocks become resident.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.min(Self::MAX_CAPACITY);
        LruCache {
            capacity,
            map: BlockTable::for_capacity(capacity),
            slab: Vec::with_capacity(capacity.min(BlockTable::MAX_INITIAL_SLOTS / 4)),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    fn unlink(&mut self, i: u32) {
        let LruEntry { prev, next, .. } = self.slab[i as usize];
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        let entry = &mut self.slab[i as usize];
        entry.prev = NIL;
        entry.next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// The least-recently-used key, if any (exposed for tests).
    pub fn lru_key(&self) -> Option<BlockKey> {
        (self.tail != NIL).then(|| self.slab[self.tail as usize].key)
    }

    /// Touch `key`. Returns true on a hit (block was resident). On a miss
    /// the block is fetched (made resident), evicting the least recent
    /// block if full.
    #[inline]
    pub fn access(&mut self, key: BlockKey) -> bool {
        self.touch(key) == Touch::Hit
    }

    /// [`Self::access`] that also reports which block a miss evicted.
    ///
    /// One probe finds `key`. A miss fills the empty slot that probe ended
    /// on before the victim leaves: removing the victim first could shift
    /// another entry into that slot. The victim's slab entry is reused in
    /// place for the new block.
    #[inline]
    pub fn touch(&mut self, key: BlockKey) -> Touch {
        if self.capacity == 0 {
            return Touch::Miss { evicted: Some(key) };
        }
        let vacant = match self.map.find(key) {
            Ok((_, i)) => {
                self.unlink(i);
                self.push_front(i);
                return Touch::Hit;
            }
            Err(vacant) => vacant,
        };
        let mut evicted = None;
        let i = if self.map.len() >= self.capacity {
            let victim = self.tail;
            let gone = self.slab[victim as usize].key;
            self.map.fill(vacant, key, victim);
            self.map.remove(gone);
            self.unlink(victim);
            evicted = Some(gone);
            victim
        } else {
            // Below capacity, so below `MAX_CAPACITY`: the new index fits.
            let i = self.free.pop().unwrap_or_else(|| {
                self.slab.push(LruEntry {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                (self.slab.len() - 1) as u32
            });
            self.map.fill(vacant, key, i);
            i
        };
        self.slab[i as usize].key = key;
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
            self.slab[self.head as usize].key == key,
            "LRU head is not the just-touched block"
        );
        Touch::Miss { evicted }
    }

    /// Whether `key` is resident, without touching recency.
    pub fn contains(&self, key: BlockKey) -> bool {
        self.map.contains(key)
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop a block if resident (e.g. on file deletion); returns whether
    /// it was.
    pub fn invalidate(&mut self, key: BlockKey) -> bool {
        let Some(i) = self.map.remove(key) else {
            return false;
        };
        self.unlink(i);
        self.free.push(i);
        true
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
        let table = BlockTable::for_capacity(0);
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
        let last = BlockTable::MIN_SLOTS - 1;
        let mut keys = homed_at(last, 3);
        keys.extend(homed_at(0, 1));
        for inserted in permutations(&keys) {
            for deleted in permutations(&keys) {
                let mut t = BlockTable::for_capacity(0);
                for (v, &key) in inserted.iter().enumerate() {
                    t.insert(key, v as u32);
                }
                assert_eq!(t.slots.len(), BlockTable::MIN_SLOTS, "no growth");
                for (n, &gone) in deleted.iter().enumerate() {
                    let v = inserted.iter().position(|&key| key == gone);
                    assert_eq!(t.remove(gone), v.map(|v| v as u32));
                    assert_eq!(t.remove(gone), None, "removed twice");
                    assert_eq!(t.len(), keys.len() - n - 1);
                    for (v, &key) in inserted.iter().enumerate() {
                        let live = !deleted[..=n].contains(&key);
                        assert_eq!(t.get(key), live.then_some(v as u32));
                    }
                }
                assert!(t.slots.iter().all(|s| s.entry == 0), "no tombstones");
            }
        }
    }

    #[test]
    fn miss_fills_its_slot_then_evicts_across_the_wrap_in_every_order() {
        // Three residents share the last slot as home and spill over the
        // end of the array; a fourth key homed at slot 0 arrives as a miss
        // at capacity. Its probe ends past the wrapped run, and the victim
        // leaves from inside that run afterwards. Every arrival order keeps
        // every survivor reachable.
        let last = BlockTable::MIN_SLOTS - 1;
        let mut keys = homed_at(last, 3);
        keys.extend(homed_at(0, 1));
        for order in permutations(&keys) {
            let (residents, newcomer) = order.split_at(3);
            let newcomer = newcomer[0];
            let mut lru = LruCache::new(3);
            for &key in residents {
                assert!(!lru.access(key));
            }
            assert!(!lru.access(newcomer));
            assert_eq!(lru.map.slots.len(), BlockTable::MIN_SLOTS);
            // The oldest resident is the victim.
            assert_eq!(lru.len(), 3);
            assert!(!lru.contains(residents[0]), "{order:?}");
            for &key in &order[1..] {
                assert!(lru.contains(key), "{key:?} lost in {order:?}");
                assert!(lru.access(key), "{key:?} missed in {order:?}");
            }
            assert_eq!(lru.lru_key(), Some(order[1]));
        }
    }

    #[test]
    fn block_table_matches_an_ordered_map() {
        use std::collections::BTreeMap;
        let mut table = BlockTable::for_capacity(0);
        let mut model = BTreeMap::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..20_000u32 {
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
    fn slots_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        assert_eq!(std::mem::size_of::<LruEntry>(), 24);
    }

    #[test]
    fn block_table_is_sized_once_from_the_capacity() {
        // The NAS I/O-node cache: 513 entries (a miss's transient one
        // included) at load <= 1/4, and no regrowth however many distinct
        // blocks pass through.
        let mut c = LruCache::new(512);
        assert_eq!(c.map.slots.len(), 4096);
        for b in 0..10_000 {
            c.access(k(b));
        }
        assert_eq!(c.map.slots.len(), 4096);
        assert_eq!(LruCache::new(3).map.slots.len(), 16);
        assert_eq!(LruCache::new(4).map.slots.len(), 32);
        let cap = BlockTable::MAX_INITIAL_SLOTS / 4 - 1;
        for capacity in [cap, cap + 1] {
            let mut c = LruCache::new(capacity);
            assert_eq!(c.map.slots.len(), BlockTable::MAX_INITIAL_SLOTS);
            for b in 0..capacity as u64 + 2 {
                c.access(k(b));
            }
            let grown = (capacity > cap) as usize + 1;
            assert_eq!(c.map.slots.len(), grown * BlockTable::MAX_INITIAL_SLOTS);
        }
    }

    #[test]
    fn a_cache_past_the_cap_grows_with_its_residents() {
        let mut c = LruCache::new(1 << 20);
        assert_eq!(c.map.slots.len(), BlockTable::MAX_INITIAL_SLOTS);
        let quarter = (BlockTable::MAX_INITIAL_SLOTS / 4) as u64;
        for b in 0..quarter {
            assert!(!c.access(k(b)));
        }
        assert_eq!(c.map.slots.len(), BlockTable::MAX_INITIAL_SLOTS);
        assert!(!c.access(k(quarter)));
        assert_eq!(c.map.slots.len(), 2 * BlockTable::MAX_INITIAL_SLOTS);
        for b in 0..=quarter {
            assert!(c.access(k(b)), "block {b} survives the growth");
        }
    }

    #[test]
    fn an_unbounded_capacity_is_clamped_and_allocates_only_the_cap() {
        let mut c = LruCache::new(usize::MAX);
        assert_eq!(c.capacity(), LruCache::MAX_CAPACITY);
        assert_eq!(c.capacity(), u32::MAX as usize);
        assert_eq!(c.map.slots.len(), BlockTable::MAX_INITIAL_SLOTS);
        assert!(c.slab.capacity() <= BlockTable::MAX_INITIAL_SLOTS / 4);
        assert!(!c.access(k(1)));
        assert!(c.access(k(1)));
    }

    #[test]
    fn lru_hits_and_misses() {
        let mut c = LruCache::new(2);
        assert!(!c.access(k(0)), "cold miss");
        assert!(c.access(k(0)), "hit");
        assert!(!c.access(k(1)));
        assert!(!c.access(k(2)), "evicts k0 (LRU)");
        assert!(!c.access(k(0)), "k0 was evicted");
        assert!(c.access(k(2)), "k2 survived");
    }

    #[test]
    fn lru_eviction_order_is_recency() {
        let mut c = LruCache::new(3);
        c.access(k(0));
        c.access(k(1));
        c.access(k(2));
        c.access(k(0)); // k0 now most recent; k1 is LRU
        assert_eq!(c.lru_key(), Some(k(1)));
        c.access(k(3));
        assert!(!c.contains(k(1)));
        assert!(c.contains(k(0)) && c.contains(k(2)) && c.contains(k(3)));
    }

    #[test]
    fn lru_never_exceeds_capacity() {
        let mut c = LruCache::new(5);
        for b in 0..100 {
            c.access(k(b));
            assert!(c.len() <= 5);
        }
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut lru = LruCache::new(0);
        for _ in 0..3 {
            assert!(!lru.access(k(0)));
            let evicted = Some(k(0));
            assert_eq!(lru.touch(k(0)), Touch::Miss { evicted }, "leaves at once");
        }
        assert!(lru.is_empty());
    }

    #[test]
    fn touch_names_the_evicted_block() {
        let mut lru = LruCache::new(2);
        assert_eq!(lru.touch(k(0)), Touch::Miss { evicted: None });
        assert_eq!(lru.touch(k(1)), Touch::Miss { evicted: None });
        assert_eq!(lru.touch(k(0)), Touch::Hit);
        let evicted = Some(k(1));
        assert_eq!(lru.touch(k(2)), Touch::Miss { evicted }, "k1 is LRU");
        lru.invalidate(k(0));
        assert_eq!(lru.touch(k(3)), Touch::Miss { evicted: None }, "room");
    }

    #[test]
    fn invalidate_removes() {
        let mut lru = LruCache::new(4);
        lru.access(k(1));
        assert!(lru.invalidate(k(1)), "was resident");
        assert!(!lru.contains(k(1)));
        assert!(!lru.invalidate(k(1)), "already gone");
        assert!(!lru.access(k(1)), "miss after invalidation");
    }
}
