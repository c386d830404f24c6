//! Property tests for CFS: cache invariants against a reference model,
//! striping coverage, and strided/loop equivalence.

use charisma_cfs::fs::block_overlap;
use charisma_cfs::{
    Access, Cfs, CfsConfig, IoMode, LruCache, StridedSpec, Striping, Touch, BLOCK_BYTES,
};
use charisma_ipsc::{Machine, MachineConfig, SimTime};
use proptest::prelude::*;

/// A naive reference LRU: a Vec ordered most-recent-first.
struct RefLru {
    cap: usize,
    items: Vec<(u32, u64)>,
}

impl RefLru {
    fn access(&mut self, key: (u32, u64)) -> bool {
        self.touch(key) == Touch::Hit
    }

    fn touch(&mut self, key: (u32, u64)) -> Touch {
        if let Some(pos) = self.items.iter().position(|&k| k == key) {
            self.items.remove(pos);
            self.items.insert(0, key);
            return Touch::Hit;
        }
        self.items.insert(0, key);
        let evicted = (self.items.len() > self.cap)
            .then(|| self.items.pop())
            .flatten();
        Touch::Miss { evicted }
    }
}

/// One step of a differential cache trace: a block of one of a few files,
/// and whether to invalidate it instead of accessing it. Blocks span a
/// wide range so the caches' block tables see growth, collisions and
/// wrap-around, not a few dense keys.
fn cache_ops() -> impl Strategy<Value = Vec<(u32, u64, bool)>> {
    proptest::collection::vec(
        (0u32..4, prop_oneof![0u64..96, 0u64..1 << 40], any::<bool>()),
        1..600,
    )
}

proptest! {
    /// The O(1) LRU agrees with the naive reference on every access of
    /// arbitrary traces (odd blocks through `touch`, which also names the
    /// evicted block), including interleaved invalidations and whether
    /// each found its block, at every capacity from 0 up.
    #[test]
    fn lru_matches_reference_model(cap in 0usize..65, ops in cache_ops()) {
        let mut fast = LruCache::new(cap);
        let mut slow = RefLru { cap, items: Vec::new() };
        for (file, block, invalidate) in ops {
            let key = (file, block);
            if invalidate {
                let resident = slow.items.contains(&key);
                prop_assert_eq!(fast.invalidate(key), resident, "invalidate {:?}", key);
                slow.items.retain(|&k| k != key);
            } else if block % 2 == 0 {
                let a = fast.access(key);
                let b = slow.access(key);
                prop_assert_eq!(a, b, "divergence on {:?}", key);
            } else {
                prop_assert_eq!(fast.touch(key), slow.touch(key), "divergence on {:?}", key);
            }
            prop_assert_eq!(fast.len(), slow.items.len());
            prop_assert!(fast.len() <= cap);
            prop_assert_eq!(fast.lru_key(), slow.items.last().copied());
        }
    }

    /// The cache respects capacity and reports `contains` consistently
    /// with `access` hits on arbitrary traces.
    #[test]
    fn caches_respect_capacity(
        cap in 0usize..16,
        blocks in proptest::collection::vec(0u64..64, 1..300),
    ) {
        let mut c = LruCache::new(cap);
        for &b in &blocks {
            let key = (0u32, b);
            let was_resident = c.contains(key);
            let hit = c.access(key);
            prop_assert_eq!(hit, was_resident, "hit must equal prior residency");
            if cap > 0 {
                prop_assert!(c.contains(key), "accessed block becomes resident");
            }
            prop_assert!(c.len() <= cap);
        }
    }

    /// Striping: every block belongs to exactly one I/O node, blocks of a
    /// request are contiguous, and per-block overlaps sum to the request
    /// length.
    #[test]
    fn striping_partitions_requests(
        io_nodes in 1usize..21,
        offset in 0u64..10_000_000,
        bytes in 0u64..2_000_000,
    ) {
        let s = Striping::cfs(io_nodes);
        let range = s.blocks_of_request(offset, bytes);
        let mut total = 0u64;
        for b in range.clone() {
            prop_assert!(s.io_node_of(b) < io_nodes);
            total += u64::from(block_overlap(offset, bytes, b));
        }
        prop_assert_eq!(total, bytes, "overlaps must cover the request exactly");
        if bytes > 0 {
            prop_assert_eq!(range.start, offset / BLOCK_BYTES);
            prop_assert_eq!(range.end, (offset + bytes - 1) / BLOCK_BYTES + 1);
        }
    }

    /// A strided read transfers exactly the same bytes as the equivalent
    /// loop of small reads, for arbitrary pattern shapes.
    #[test]
    fn strided_equals_loop(
        record in 1u32..5000,
        extra_stride in 0u64..9000,
        count in 0u32..60,
        file_kb in 1u64..600,
    ) {
        let machine = Machine::boot_synchronized(MachineConfig::tiny());
        let t0 = SimTime::from_secs(1);
        let size = file_kb * 1024;
        // Fresh file system per arm so one arm's cache warmth cannot leak
        // into the other's timing.
        let stage = |cfs: &mut Cfs| {
            let o = cfs
                .open(1, "f", Access::Write, IoMode::Independent, 0, false)
                .unwrap();
            let mut done = 0;
            while done < size {
                let chunk = (size - done).min(1 << 20) as u32;
                cfs.write(&machine, o.session, 0, chunk, t0).unwrap();
                done += u64::from(chunk);
            }
            cfs.close(o.session, 0).unwrap();
        };

        let spec = StridedSpec {
            start: 128,
            record_bytes: record,
            stride: u64::from(record) + extra_stride,
            count,
        };
        let mut cfs_a = Cfs::new(CfsConfig::tiny());
        stage(&mut cfs_a);
        let o1 = cfs_a.open(2, "f", Access::Read, IoMode::Independent, 0, false).unwrap();
        let strided = cfs_a.read_strided(&machine, o1.session, 0, spec, t0).unwrap();
        cfs_a.close(o1.session, 0).unwrap();

        let mut cfs_b = Cfs::new(CfsConfig::tiny());
        stage(&mut cfs_b);
        let o2 = cfs_b.open(2, "f", Access::Read, IoMode::Independent, 0, false).unwrap();
        let looped = cfs_b.strided_as_loop(&machine, o2.session, 0, spec, t0, false).unwrap();
        cfs_b.close(o2.session, 0).unwrap();

        prop_assert_eq!(strided.bytes, looped.bytes);
        prop_assert!(strided.messages <= looped.messages);
        prop_assert!(strided.completion <= looped.completion,
            "one request can never be slower than the loop");
    }

    /// Random mode-0 write/seek sequences keep `tell` consistent with the
    /// sum of writes, and never corrupt capacity accounting.
    #[test]
    fn pointers_track_writes(ops in proptest::collection::vec((0u32..50_000, any::<bool>()), 1..60)) {
        let machine = Machine::boot_synchronized(MachineConfig::tiny());
        let mut cfs = Cfs::new(CfsConfig::tiny());
        let t0 = SimTime::from_secs(1);
        let o = cfs.open(1, "w", Access::Write, IoMode::Independent, 0, false).unwrap();
        let mut pointer = 0u64;
        let mut max_end = 0u64;
        for (bytes, do_seek) in ops {
            if do_seek {
                pointer /= 2;
                cfs.seek(o.session, 0, pointer).unwrap();
            }
            match cfs.write(&machine, o.session, 0, bytes, t0) {
                Ok(out) => {
                    prop_assert_eq!(out.offset, pointer);
                    pointer += u64::from(bytes);
                    max_end = max_end.max(pointer);
                }
                Err(charisma_cfs::CfsError::NoSpace { .. }) => break,
                Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
            }
            prop_assert_eq!(cfs.tell(o.session, 0).unwrap(), pointer);
            prop_assert_eq!(cfs.file_size(o.file), Some(max_end));
        }
    }
}
