//! Golden pin for the §4.8 cache simulators: exact hit and access counts
//! on the seed-4994 trace at scale 0.01.
//!
//! The counts are a pure function of the trace and of the replacement
//! policies, so a change to the caches' data structures must leave every
//! number here unchanged. Regenerate them only for a deliberate change of
//! the simulated behaviour, and say so where that change is described.

use charisma_cachesim::{
    combined_simulation, compute_cache_sim, io_cache_sim, Policy, SessionIndex,
};
use charisma_trace::OrderedEvent;
use charisma_workload::{try_generate_sharded, GeneratorConfig};

fn trace() -> Vec<OrderedEvent> {
    let config = GeneratorConfig {
        scale: 0.01,
        seed: 4994,
        ..GeneratorConfig::default()
    };
    let workload = try_generate_sharded(&config, 1).expect("seed-4994 trace generates");
    workload.merged_events().collect()
}

#[test]
fn simulators_match_the_pinned_counts() {
    let events = trace();
    let index = SessionIndex::build(&events);
    assert_eq!((events.len(), index.len()), (28991, 2387), "input trace");

    // Figure 8: (buffers per compute node, hits, requests).
    for (buffers, hits, requests) in [(1, 164, 356), (10, 164, 356), (50, 164, 356)] {
        let r = compute_cache_sim(&events, &index, buffers);
        assert_eq!(
            (r.hits, r.requests),
            (hits, requests),
            "compute, {buffers} buffers"
        );
    }

    // Figure 9: (I/O nodes, total buffers, policy) →
    // (hits, accesses, block hits, block accesses).
    #[rustfmt::skip]
    let io = [
        (1, 40, Policy::Lru, [19772, 23433, 264572, 289261]),
        (1, 40, Policy::Fifo, [19549, 23433, 264349, 289261]),
        (1, 40, Policy::Ipl, [18626, 23433, 263588, 289261]),
        (1, 250, Policy::Lru, [23255, 23433, 268421, 289261]),
        (1, 250, Policy::Fifo, [23255, 23433, 268421, 289261]),
        (1, 250, Policy::Ipl, [18658, 23433, 263620, 289261]),
        (20, 40, Policy::Lru, [17388, 23433, 262188, 289261]),
        (20, 40, Policy::Fifo, [17385, 23433, 262185, 289261]),
        (20, 40, Policy::Ipl, [17741, 23433, 262736, 289261]),
        (20, 250, Policy::Lru, [21279, 23433, 266589, 289261]),
        (20, 250, Policy::Fifo, [21339, 23433, 266649, 289261]),
        (20, 250, Policy::Ipl, [18900, 23433, 264237, 289261]),
    ];
    for (nodes, buffers, policy, want) in io {
        let r = io_cache_sim(&events, &index, nodes, buffers, policy);
        assert_eq!(
            [r.hits, r.accesses, r.block_hits, r.block_accesses],
            want,
            "I/O nodes {nodes}, {buffers} buffers, {policy:?}"
        );
    }

    // The combined experiment: one buffer per compute node, 10 I/O nodes
    // of 50 buffers each.
    let c = combined_simulation(&events, &index, 1, 10, 50);
    assert_eq!(
        [
            c.io_only_hit_rate,
            c.combined_io_hit_rate,
            c.compute_hit_rate
        ]
        .map(f64::to_bits),
        [0x3fefc32bc0f13803, 0x3fefc2be001c2a1d, 0x3fdd7baf75eebdd8],
        "combined rates {c:?}"
    );
}
