//! Property tests for the machine substrate: hypercube routing identities
//! and subcube-allocator safety under arbitrary request sequences.

use charisma_ipsc::alloc::{Subcube, SubcubeAllocator};
use charisma_ipsc::{EventQueue, FaultRng, Hypercube, RetryPolicy, SimTime};
use proptest::prelude::*;

proptest! {
    /// E-cube routes are shortest paths along edges, for any node pair.
    #[test]
    fn ecube_routes_are_shortest_paths(dim in 1u32..8, seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let h = Hypercube::new(dim);
        let a = (seed_a % h.nodes() as u64) as usize;
        let b = (seed_b % h.nodes() as u64) as usize;
        let route = h.ecube_route(a, b);
        prop_assert_eq!(route[0], a);
        prop_assert_eq!(*route.last().unwrap(), b);
        prop_assert_eq!(route.len() as u32, h.distance(a, b) + 1);
        for w in route.windows(2) {
            prop_assert_eq!(h.distance(w[0], w[1]), 1);
        }
        // Deterministic: same endpoints, same route.
        prop_assert_eq!(h.ecube_route(a, b), route);
    }

    /// Hamming distance is symmetric and satisfies the triangle
    /// inequality for arbitrary triples.
    #[test]
    fn distance_is_a_metric(x in 0usize..128, y in 0usize..128, z in 0usize..128) {
        let h = Hypercube::new(7);
        prop_assert_eq!(h.distance(x, y), h.distance(y, x));
        prop_assert_eq!(h.distance(x, x), 0);
        prop_assert!(h.distance(x, z) <= h.distance(x, y) + h.distance(y, z));
    }

    /// Under any interleaving of allocations and releases, live subcubes
    /// never overlap and accounting never goes negative.
    #[test]
    fn allocator_never_overlaps(ops in proptest::collection::vec((0u32..8, any::<bool>()), 1..200)) {
        let mut alloc = SubcubeAllocator::new(7);
        let mut live: Vec<Subcube> = Vec::new();
        for (dim, release_first) in ops {
            if release_first && !live.is_empty() {
                let cube = live.swap_remove(0);
                alloc.release(cube);
            }
            if let Some(cube) = alloc.allocate(dim % 8) {
                // No overlap with any live cube.
                for other in &live {
                    for node in cube.members() {
                        prop_assert!(!other.contains(node),
                            "cube {:?} overlaps {:?}", cube, other);
                    }
                }
                live.push(cube);
            }
            let used: usize = live.iter().map(|c| c.nodes()).sum();
            prop_assert_eq!(alloc.free_nodes() + used, 128);
        }
        // Releasing everything restores the whole machine.
        for cube in live.drain(..) {
            alloc.release(cube);
        }
        prop_assert_eq!(alloc.free_nodes(), 128);
        prop_assert!(alloc.allocate(7).is_some(), "machine fully merged again");
    }

    /// The event queue dequeues in non-decreasing time order with FIFO
    /// ties, for arbitrary push sequences.
    #[test]
    fn event_queue_is_stable_priority(times in proptest::collection::vec(0u64..1000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO tie-break violated");
                }
            }
            last = Some((t, i));
        }
    }

    /// Retry backoff is a pure function of `(seed, request id, attempt)`
    /// — recomputing it never changes it — and is bounded by the cap at
    /// every attempt, including the shifted-past-u64 tail.
    #[test]
    fn backoff_is_deterministic_and_capped(
        seed in any::<u64>(),
        request in any::<u64>(),
        base in 1u64..100_000,
        cap in 1u64..1_000_000,
    ) {
        let policy = RetryPolicy {
            max_retries: 40,
            base_backoff_us: base,
            backoff_cap_us: cap,
            timeout_us: 0,
        };
        let rng = FaultRng::new(seed);
        for attempt in 0..40u32 {
            let first = policy.backoff_us(&rng, request, attempt);
            prop_assert_eq!(first, policy.backoff_us(&rng, request, attempt),
                "backoff must be stateless");
            prop_assert!(first <= cap.max(1),
                "attempt {} backoff {} exceeds cap {}", attempt, first, cap);
        }
    }

    /// Fault decisions depend only on the identity ids handed in, never
    /// on query order: evaluating the same `(domain, ids)` pair before,
    /// after, or interleaved with arbitrary other queries gives the same
    /// answer.
    #[test]
    fn fault_decisions_are_order_independent(
        seed in any::<u64>(),
        probe in proptest::collection::vec(any::<u64>(), 1..4),
        noise in proptest::collection::vec((1u64..12, proptest::collection::vec(any::<u64>(), 0..3)), 0..20),
    ) {
        let rng = FaultRng::new(seed);
        let before = rng.decide(5, &probe);
        for (domain, ids) in &noise {
            let _ = rng.decide(*domain, ids);
        }
        prop_assert_eq!(rng.decide(5, &probe), before);
    }
}
