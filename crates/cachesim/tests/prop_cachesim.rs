//! Property tests for the cache simulators: the LRU inclusion property
//! and accounting invariants on arbitrary traces.

use charisma_cachesim::{
    combined_simulation, compute_cache_sim, io_cache_sim, lru_profile, prefetch_sim, writeback_sim,
    FlushPolicy, Policy, Prefetcher, SessionIndex,
};
use charisma_ipsc::SimTime;
use charisma_trace::record::{AccessKind, EventBody};
use charisma_trace::OrderedEvent;
use proptest::prelude::*;

/// Build a one-session trace from `(node, offset, bytes, is_write)` tuples.
fn trace(requests: &[(u16, u64, u32, bool)]) -> Vec<OrderedEvent> {
    let mut events = vec![OrderedEvent {
        time: SimTime::ZERO,
        node: 0,
        body: EventBody::Open {
            job: 1,
            file: 1,
            session: 1,
            mode: 0,
            access: AccessKind::ReadWrite,
            created: false,
        },
    }];
    for (i, &(node, offset, bytes, is_write)) in requests.iter().enumerate() {
        let body = if is_write {
            EventBody::Write {
                session: 1,
                offset,
                bytes,
            }
        } else {
            EventBody::Read {
                session: 1,
                offset,
                bytes,
            }
        };
        events.push(OrderedEvent {
            time: SimTime::from_micros(1 + i as u64),
            node,
            body,
        });
    }
    events
}

proptest! {
    /// LRU's inclusion property: the request-level hit rate never
    /// decreases when the cache grows, on arbitrary traces.
    #[test]
    fn lru_hit_rate_is_monotone_in_capacity(
        requests in proptest::collection::vec(
            (0u16..4, 0u64..400_000, 1u32..20_000, any::<bool>()), 1..250),
    ) {
        let events = trace(&requests);
        let idx = SessionIndex::build(&events);
        let mut last = -1.0f64;
        for buffers in [4usize, 16, 64, 256] {
            let r = io_cache_sim(&events, &idx, 2, buffers, Policy::Lru);
            prop_assert!(
                r.hit_rate() >= last - 1e-12,
                "hit rate dropped from {last} at {buffers} buffers"
            );
            last = r.hit_rate();
        }
    }

    /// Accounting invariants hold for every policy: hits ≤ accesses, and
    /// request counts match the trace.
    #[test]
    fn counters_are_consistent(
        requests in proptest::collection::vec(
            (0u16..4, 0u64..100_000, 1u32..9_000, any::<bool>()), 1..150),
        policy_pick in 0u8..3,
    ) {
        let policy = [Policy::Lru, Policy::Fifo, Policy::Ipl][policy_pick as usize];
        let events = trace(&requests);
        let idx = SessionIndex::build(&events);
        let r = io_cache_sim(&events, &idx, 3, 32, policy);
        prop_assert_eq!(r.accesses, requests.len() as u64);
        prop_assert!(r.hits <= r.accesses);
        prop_assert!(r.block_hits <= r.block_accesses);
        prop_assert!(r.block_accesses >= r.accesses);
    }

    /// The compute-node cache never simulates writes or read-write files,
    /// and its per-job totals add up.
    #[test]
    fn compute_cache_only_sees_read_only(
        requests in proptest::collection::vec(
            (0u16..4, 0u64..50_000, 1u32..5_000, any::<bool>()), 1..120),
    ) {
        let any_write = requests.iter().any(|r| r.3);
        let events = trace(&requests);
        let idx = SessionIndex::build(&events);
        let r = compute_cache_sim(&events, &idx, 1);
        if any_write {
            prop_assert_eq!(r.requests, 0, "read-write session must be excluded");
        } else {
            prop_assert_eq!(r.requests, requests.len() as u64);
            let total: u64 = r.per_job.values().map(|&(_, t)| t).sum();
            let hits: u64 = r.per_job.values().map(|&(h, _)| h).sum();
            prop_assert_eq!(total, r.requests);
            prop_assert_eq!(hits, r.hits);
        }
    }

    /// In the combined simulation, the filtered I/O stream never sees more
    /// requests than the baseline, and all rates stay in [0, 1].
    #[test]
    fn combined_filtering_never_adds_traffic(
        requests in proptest::collection::vec(
            (0u16..4, 0u64..80_000, 1u32..6_000), 1..150),
    ) {
        // All reads: the read-only path is exercised.
        let reads: Vec<(u16, u64, u32, bool)> =
            requests.iter().map(|&(n, o, b)| (n, o, b, false)).collect();
        let events = trace(&reads);
        let idx = SessionIndex::build(&events);
        let r = combined_simulation(&events, &idx, 1, 4, 16);
        for rate in [r.io_only_hit_rate, r.combined_io_hit_rate, r.compute_hit_rate] {
            prop_assert!((0.0..=1.0).contains(&rate));
        }
    }
}

proptest! {
    /// The one-pass stack-distance profile predicts the direct LRU
    /// simulation's block hit rate exactly, at every capacity, for
    /// arbitrary block streams.
    #[test]
    fn stack_distance_equals_direct_lru(
        blocks in proptest::collection::vec((0u32..3, 0u64..40), 1..400),
        capacity in 1usize..24,
    ) {
        use charisma_cachesim::StackDistances;
        use charisma_cfs::LruCache;
        let mut sd = StackDistances::new(4096);
        let mut lru = LruCache::new(capacity);
        let mut hits = 0u64;
        for &(f, b) in &blocks {
            sd.access((f, b));
            if lru.access((f, b)) {
                hits += 1;
            }
        }
        let profile = sd.finish();
        let direct = hits as f64 / blocks.len() as f64;
        prop_assert!((profile.hit_rate_at(capacity) - direct).abs() < 1e-12);
    }
}

/// A request whose byte range runs past the end of the 64-bit offset
/// space is cut off there, so every simulator counts one access to the
/// last block and none overflows the span's end.
#[test]
fn a_request_past_the_end_of_the_offset_space_touches_one_block_everywhere() {
    let read = trace(&[(0, u64::MAX - 10, 100, false)]);
    let idx = SessionIndex::build(&read);
    for policy in [Policy::Lru, Policy::Fifo, Policy::Ipl] {
        let r = io_cache_sim(&read, &idx, 2, 8, policy);
        assert_eq!((r.accesses, r.block_accesses), (1, 1), "{policy:?}");
    }
    for prefetcher in [
        Prefetcher::None,
        Prefetcher::OneBlockLookahead,
        Prefetcher::Strided,
    ] {
        let r = prefetch_sim(&read, &idx, 2, 4, prefetcher);
        assert_eq!(r.accesses, 1, "{prefetcher:?}");
    }
    let profile = lru_profile(&read, &idx, 2, 4);
    assert_eq!((profile.total, profile.cold), (1, 1));

    let write = trace(&[(0, u64::MAX - 10, 100, true)]);
    let idx = SessionIndex::build(&write);
    for policy in [
        FlushPolicy::WriteThrough,
        FlushPolicy::WriteBehind,
        FlushPolicy::Watermark { high: 2, low: 1 },
    ] {
        let r = writeback_sim(&write, &idx, 4, policy);
        assert_eq!(
            (r.write_requests, r.block_writes, r.disk_writes),
            (1, 1, 1),
            "{policy:?}"
        );
    }
}
