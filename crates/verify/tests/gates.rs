//! The gate table as a test: every check passes at the seed and scale CI
//! uses, the harness underneath catches what it exists to catch, and the
//! archive and tier drills hold their contracts.
//!
//! If a fixture drifts after an intentional change, regenerate it with
//! `cargo run --release -p charisma-verify -- gates NAME --write` and
//! commit it alongside the code.

use charisma::ipsc::FaultPlan;
use charisma::tier::TierPlan;
use charisma::{ArchiveSink, Pipeline, PipelineOutput};
use charisma_verify::chaos::archive_fault_drill;
use charisma_verify::determinism::{check_determinism, pipeline_record_stream, run_records};
use charisma_verify::gates::{Runs, GATES, SCALE, SEED};
use charisma_verify::tier::tier_drill;

#[test]
fn every_gate_passes_at_ci_seed_and_scale() {
    let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        [
            "archive",
            "cache",
            "chaos",
            "determinism",
            "metrics",
            "serve",
            "tier"
        ]
    );
    let mut runs = Runs::new(SEED, SCALE);
    for gate in &GATES {
        let complaints = gate.run(&mut runs, false);
        assert!(
            complaints.is_empty(),
            "gate {} failed: {complaints:#?}",
            gate.name
        );
    }
}

#[test]
fn unknown_gate_name_is_a_usage_error_listing_the_gates() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_charisma-verify"))
        .args(["gates", "metrics", "nonesuch"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nonesuch"), "{stderr}");
    for gate in &GATES {
        assert!(stderr.contains(gate.name), "{stderr}");
    }
}

/// A record stream corrupted by ambient state — the failure mode CH004
/// (`clippy::disallowed_types` on wall clocks; no entropy constructors in
/// the rand shim) and the harness exist to catch. The counter survives across calls, so the
/// second "run" sees a different value than the first, exactly like an
/// unseeded RNG or leaked wall-clock timestamp would inject.
fn nondeterministic_stream() -> Vec<Vec<u8>> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static AMBIENT: AtomicU64 = AtomicU64::new(0);
    let run = AMBIENT.fetch_add(1, Ordering::Relaxed);
    let mut records = vec![vec![1, 2, 3], vec![4, 5, 6]];
    records.push(run.to_le_bytes().to_vec());
    records.push(vec![7, 8, 9]);
    records
}

#[test]
fn injected_nondeterminism_is_caught_and_localized() {
    let report = check_determinism(nondeterministic_stream(), nondeterministic_stream());
    let d = report.divergence.expect("divergence must be detected");
    assert_eq!(d.index, 2, "first two records agree");
    assert_eq!(report.records_checked, 2);
    assert_ne!(d.first, d.second);
}

#[test]
fn stream_length_mismatch_is_a_divergence() {
    let report = check_determinism(vec![vec![1u8], vec![2]], vec![vec![1u8], vec![2], vec![3]]);
    let d = report
        .divergence
        .expect("extra record must be a divergence");
    assert_eq!(d.index, 2);
    assert_eq!(d.first, "", "first stream ended");
    assert_eq!(d.second, "03");
}

fn run(faults: FaultPlan, shards: usize, scale: f64, seed: u64) -> PipelineOutput {
    Pipeline::new()
        .seed(seed)
        .scale(scale)
        .shards(shards)
        .faults(faults)
        .sink(ArchiveSink::Memory)
        .run()
        .expect("pipeline runs")
}

/// The analysis report is part of the hashed stream, so nondeterministic
/// *analysis* would be caught too. Different seeds must diverge, in the
/// unsharded generator and in the sharded pipeline alike.
#[test]
fn different_seeds_produce_different_streams() {
    let report = check_determinism(
        pipeline_record_stream(1, 0.02),
        pipeline_record_stream(2, 0.02),
    );
    assert!(!report.is_deterministic(), "unsharded seeds 1 and 2 agree");
    let (a, b) = (
        run(FaultPlan::none(), 2, 0.02, 1),
        run(FaultPlan::none(), 2, 0.02, 2),
    );
    assert!(!check_determinism(run_records(&a), run_records(&b)).is_deterministic());
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    // The acceptance criterion for the whole fault layer: an all-zero
    // plan — even one with a nonzero seed and retry policy — attaches no
    // fault state and changes nothing: not one record, not one metric
    // key.
    let mut zeroed = FaultPlan::none();
    zeroed.seed = 0xDEAD_BEEF;
    zeroed.retry.max_retries = 9;
    assert!(zeroed.is_empty(), "rates are what make a plan non-empty");
    let with_zeroed_plan = run(zeroed, 2, 0.01, 4994);
    let plain = run(FaultPlan::none(), 2, 0.01, 4994);
    let report = check_determinism(run_records(&with_zeroed_plan), run_records(&plain));
    assert!(
        report.is_deterministic(),
        "empty plan changed the stream at record {:?}",
        report.divergence.map(|d| d.index)
    );
    assert_eq!(
        with_zeroed_plan.metrics.to_core_json(),
        plain.metrics.to_core_json()
    );
}

#[test]
fn archive_fault_plan_drills_the_healing_loop() {
    let mut plan = FaultPlan::chaos_fixture();
    plan.archive_corrupt_ppm = 120_000;
    plan.replica_loss_ppm = 80_000;
    let out = run(plan.clone(), 2, 0.01, 4994);
    let bytes = out.archive.as_deref().expect("memory sink");
    let drill = archive_fault_drill(bytes, &plan).expect("drill heals");
    // The drill injected deterministic damage and scrub repaired it.
    let injected =
        drill.counters["faults.archive.corrupt"] + drill.counters["faults.archive.replica_lost"];
    assert!(injected > 0, "ppms this high must damage something");
    assert_eq!(drill.counters["store.scrub.repaired"], injected);
    assert!(drill.counters["store.scrub.segments_checked"] > 0);
    // Archive faults live in the drill, not the run: the archive is the
    // same as under the plan without them, and the run repaired nothing.
    let mut quiet = plan.clone();
    quiet.archive_corrupt_ppm = 0;
    quiet.replica_loss_ppm = 0;
    let clean = run(quiet, 2, 0.01, 4994);
    assert_eq!(out.archive, clean.archive);
    assert_eq!(out.metrics.counters["store.scrub.repaired"], 0);
    // And the drill is a pure function of the bytes and the plan.
    let again = archive_fault_drill(bytes, &plan).expect("drill heals");
    assert_eq!(again.to_core_json(), drill.to_core_json());
}

#[test]
fn tier_plan_drills_classification_replication_and_parity() {
    let out = run(FaultPlan::none(), 2, 0.01, 4994);
    let drill = tier_drill(
        out.archive.as_deref().expect("memory sink"),
        &TierPlan::default(),
    )
    .expect("tiered layout degrades losslessly and heals");
    let c = &drill.counters;
    let segments = c["tier.segments_classified"];
    assert!(segments > 0);
    assert_eq!(c["tier.hot"] + c["tier.warm"] + c["tier.cold"], segments);
    // The skewed scan schedule makes the head hot and the tail cold.
    assert!(c["tier.hot"] > 0, "repeated head scans must promote");
    assert!(c["tier.cold"] > 0, "the unscanned tail must demote");
    assert!(c["tier.parity_groups"] > 0);
    assert!(c["store.access.scans"] > 0);
    // The degraded-read probe exercised at least one parity rebuild.
    assert!(c["tier.parity_rebuilds"] > 0);
    // The run itself carries no tier.* metrics: tiering is the drill's.
    assert!(!out
        .metrics
        .counters
        .contains_key("tier.segments_classified"));
}

#[test]
fn tier_report_and_archive_are_worker_invariant() {
    let drilled = |shards: usize| {
        let out = run(FaultPlan::none(), shards, 0.01, 4994);
        let bytes = out.archive.expect("memory sink");
        let drill = tier_drill(&bytes, &TierPlan::default()).expect("drill heals");
        (bytes, drill.to_core_json())
    };
    let (bytes, core) = drilled(1);
    for shards in [2, 4] {
        let (other_bytes, other_core) = drilled(shards);
        // Tiering is layout, not format: the archive and every tier
        // decision are identical for every worker count.
        assert_eq!(other_bytes, bytes);
        assert_eq!(other_core, core);
    }
}
