//! Segment tiering over a skewed scan workload.
//!
//! The CHARISMA paper's central observation is skew: a small fraction of
//! files absorbs most of the accesses, many files are barely touched at
//! all. This example replays that shape against a sealed archive and
//! shows the tiering policy exploiting it end to end:
//!
//! 1. run the simulated workload and seal its trace into an archive,
//! 2. replay a skewed scan schedule (every node re-reads the head of
//!    the time range, a few node-restricted scans touch the middle, the
//!    tail stays silent) so the `store.access` ledger records the skew,
//! 3. classify segments hot/warm/cold and re-balance replication — hot
//!    segments fan out to extra copies, cold segments drop to a single
//!    copy behind XOR parity,
//! 4. lose a cold segment's only copy, read through the damage (the
//!    parity group reconstructs it on the fly, byte-exactly), and
//! 5. heal: rebuild the lost copy from parity and scrub-verify the set.
//!
//! ```text
//! cargo run --release --example tiered_archive
//! ```

use charisma::prelude::*;
use charisma::store::StoreMetrics;
use charisma::tier::TierMetrics;

fn main() -> Result<(), charisma::Error> {
    // 1. Seal the workload's trace into an in-memory archive.
    let out = Pipeline::new()
        .seed(4994)
        .scale(0.05)
        .sink(ArchiveSink::Memory)
        .run()?;
    let bytes = out.archive.expect("memory sink returns the archive");
    let archive = Archive::from_bytes(bytes.clone())?;
    let segments = archive.reader().segment_count();
    println!("archive: {} segments, {} bytes", segments, bytes.len());

    // 2. Replay a skewed scan schedule: the head of the time range is
    // re-read by every node (wide scans, the paper's hot shared files),
    // the middle sees a few node-restricted scans, and the tail is never
    // touched. Every scan feeds the access ledger on `StoreMetrics`.
    let registry = MetricsRegistry::new();
    let metrics = StoreMetrics::register(&registry);
    let (start, end) = archive.time_span().expect("non-empty archive");
    let span = end.as_micros().saturating_sub(start.as_micros()).max(1);
    let at = |ppm: u64| SimTime::from_micros(start.as_micros() + span * ppm / 1_000_000);
    for _ in 0..6 {
        archive
            .query(Query::all().time_window(at(0), at(250_000)))
            .attach_metrics(metrics.clone())
            .events()?;
    }
    for round in 0..4u64 {
        let nodes = [((2 * round) % 8) as u16, ((2 * round + 1) % 8) as u16];
        archive
            .query(
                Query::all()
                    .time_window(at(250_000), at(700_000))
                    .nodes(&nodes),
            )
            .attach_metrics(metrics.clone())
            .events()?;
    }
    let ledger = metrics.access.snapshot();

    // 3. Classify and re-balance. The policy is a pure function of the
    // plan seed and the ledger: same workload, same placements.
    let plan = TierPlan::default();
    let mut tiered = TieredSet::build_with_metrics(
        archive.reader(),
        &ledger,
        &plan,
        TierMetrics::register(&registry),
    );
    let report = tiered.report().clone();
    println!("\ntier census (plan seed {:#010x}):", plan.seed);
    println!(
        "  hot {} (x{} copies) / warm {} (x{}) / cold {} (x1 + parity)",
        report.hot, plan.hot_factor, report.warm, plan.base_factor, report.cold
    );
    println!(
        "  replicas: +{} for hot, -{} from cold; {} parity groups ({} bytes)",
        report.replicas_added, report.replicas_dropped, report.parity_groups, report.parity_bytes
    );

    // 4. Lose a cold segment's only copy and read through the damage.
    let cold = tiered
        .assignments()
        .iter()
        .position(|&t| t == Tier::Cold)
        .expect("skewed schedule leaves a cold tail");
    assert!(tiered.replica_set_mut().lose_replica(cold, 0));
    let (degraded, failover) = tiered.degraded_reader()?;
    assert_eq!(degraded.to_bytes(), bytes, "parity read is byte-exact");
    println!(
        "\nlost the only copy of cold segment {cold}: degraded read still byte-exact \
         ({} segment(s) rebuilt from parity on the fly)",
        failover.reconstructed
    );

    // 5. Heal and verify: restore the lost copy from parity, then scrub.
    let heal = tiered.heal();
    assert!(heal.healthy(), "scrub must come back clean");
    let (healed, failovers) = tiered.replica_set().failover_reader()?;
    assert_eq!(failovers, 0, "no failovers after heal");
    assert_eq!(healed.to_bytes(), bytes);
    println!(
        "heal: {} segment(s) restored from parity, scrub clean, archive bytes unchanged",
        heal.parity_rebuilds
    );
    Ok(())
}
