//! The block buffer cache of the CFS I/O nodes.
//!
//! [`LruCache`] holds 4 KB blocks keyed by `(file, block)` under LRU
//! replacement: `access` returns whether the block was resident (a hit)
//! and makes it resident, evicting if full. The CFS simulator gives each
//! I/O node one, and the §4.8 compute-node and prefetch simulations reuse
//! it. The Figure 9 I/O-node simulations (LRU, FIFO and the paper's §5
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

    #[cfg(test)]
    fn get(&self, key: BlockKey) -> Option<V> {
        self.find(key).ok().map(|(_, v)| v)
    }

    fn contains(&self, key: BlockKey) -> bool {
        self.find(key).is_ok()
    }

    /// Insert or overwrite `key`.
    #[cfg(test)]
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

    /// Touch `key` with `touched_bytes` of the block actually referenced.
    /// Returns true on a hit (block was resident). On a miss the block is
    /// fetched (made resident), evicting the least recent block if full.
    ///
    /// One probe finds `key`. A miss fills the empty slot that probe ended
    /// on before the victim leaves: removing the victim first could shift
    /// another entry into that slot. The victim's slab entry is reused in
    /// place for the new block.
    #[inline]
    pub fn access(&mut self, key: BlockKey, _touched_bytes: u32) -> bool {
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

    /// Drop a block if resident (e.g. on file deletion).
    pub fn invalidate(&mut self, key: BlockKey) {
        if let Some(i) = self.map.remove(key) {
            self.unlink(i);
            self.free.push(i);
        }
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
        // leaves from inside that run afterwards. Every arrival order keeps
        // every survivor reachable.
        let last = BlockTable::<u64>::MIN_SLOTS - 1;
        let mut keys = homed_at(last, 3);
        keys.extend(homed_at(0, 1));
        for order in permutations(&keys) {
            let (residents, newcomer) = order.split_at(3);
            let newcomer = newcomer[0];
            let mut lru = LruCache::new(3);
            for &key in residents {
                assert!(!lru.access(key, 1));
            }
            assert!(!lru.access(newcomer, 1));
            assert_eq!(lru.map.slots.len(), BlockTable::<usize>::MIN_SLOTS);
            // The oldest resident is the victim.
            assert_eq!(lru.len(), 3);
            assert!(!lru.contains(residents[0]), "{order:?}");
            for &key in &order[1..] {
                assert!(lru.contains(key), "{key:?} lost in {order:?}");
                assert!(lru.access(key, 1), "{key:?} missed in {order:?}");
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
        for _ in 0..3 {
            assert!(!lru.access(k(0), 1));
        }
        assert!(lru.is_empty());
    }

    #[test]
    fn invalidate_removes() {
        let mut lru = LruCache::new(4);
        lru.access(k(1), 1);
        lru.invalidate(k(1));
        assert!(!lru.contains(k(1)));
        assert!(!lru.access(k(1), 1), "miss after invalidation");
    }
}
