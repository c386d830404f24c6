//! Property test: fault injection is independent of worker count.
//!
//! The fault layer's determinism contract says every fault decision is a
//! pure hash of `(plan seed, stable identity)` — never of evaluation
//! order or thread interleaving. This property drives the full sharded
//! generator under randomly drawn fault plans and demands the serial run
//! and the maximally parallel ([`charisma_workload::LOGICAL_SHARDS`]
//! workers) run agree on every merged record and every metric.

use charisma_ipsc::FaultPlan;
use charisma_workload::{try_generate_sharded, GeneratorConfig, LOGICAL_SHARDS};
use proptest::prelude::*;

proptest! {
    /// Serial and 16-worker chaos runs are identical for arbitrary plans.
    #[test]
    fn fault_injection_is_worker_count_invariant(
        draw in any::<u64>(),
        transient_ppm in 0u32..400_000,
        delay_ppm in 0u32..50_000,
        clock_ppm in 0u32..300_000,
    ) {
        // A full double pipeline run is expensive; thin to a few of the
        // shim's 64 deterministic cases.
        if draw % 21 != 0 {
            return Ok(());
        }
        let mut plan = FaultPlan::chaos_fixture();
        plan.seed = draw;
        plan.disk_transient_ppm = transient_ppm;
        plan.msg_delay_ppm = delay_ppm;
        plan.clock_jump_ppm = clock_ppm;
        let config = GeneratorConfig {
            faults: plan,
            ..GeneratorConfig::test_scale(0.01)
        };
        let serial = try_generate_sharded(&config, 1).expect("generates");
        let parallel = try_generate_sharded(&config, LOGICAL_SHARDS).expect("generates");
        let serial_events: Vec<_> = serial.merged_events().collect();
        let parallel_events: Vec<_> = parallel.merged_events().collect();
        prop_assert_eq!(serial_events, parallel_events,
            "merged chaos stream diverged across worker counts");
        prop_assert_eq!(serial.metrics.to_core_json(), parallel.metrics.to_core_json(),
            "chaos metrics diverged across worker counts");
    }
}
