//! End-to-end integration: generate → collect → rectify → characterize,
//! asserting the paper's qualitative findings hold at reduced scale.
//!
//! These are *shape* assertions (who wins, which spikes exist), not
//! absolute-number matches: absolute counts scale with the workload and
//! the singleton applications (the out-of-core job, the checkpointer) are
//! deliberately not scaled down.

use charisma::cachesim::{Policy, SessionIndex};
use charisma::core::analyze::SessionClass;
use charisma::core::{census, intervals, jobs, modes, sequential, sharing};
use charisma::prelude::*;

/// One shared pipeline for the whole file (generation dominates runtime).
fn pipeline() -> (Vec<OrderedEvent>, Report, SessionIndex) {
    let workload = generate(GeneratorConfig {
        scale: 0.10,
        seed: 4994,
        ..Default::default()
    });
    let events = postprocess(&workload.trace);
    let report = Report::from_events(&events);
    let index = SessionIndex::build(&events);
    (events, report, index)
}

#[test]
fn paper_shapes_hold_end_to_end() {
    let (
        events,
        Report {
            chars,
            request_sizes: rs,
        },
        index,
    ) = pipeline();

    // --- §4.1: jobs ------------------------------------------------------
    let profile = jobs::concurrency_profile(&chars);
    assert!(
        profile[0] > 0.10,
        "the machine is idle a good fraction of the time"
    );
    assert!(
        profile.iter().skip(2).sum::<f64>() > 0.15,
        "multiprogramming is real: >1 job a good fraction of the time"
    );
    let usage = jobs::node_usage(&chars);
    let one_node = usage.iter().find(|&&(n, _)| n == 1).expect("1-node jobs").1;
    assert!(one_node > 60.0, "one-node jobs dominate the population");
    assert!(
        usage.iter().all(|&(n, _)| n.is_power_of_two()),
        "the iPSC limits node counts to powers of two"
    );
    let share = jobs::node_time_share(&chars);
    let big: f64 = share
        .iter()
        .filter(|&&(n, _)| n >= 32)
        .map(|&(_, s)| s)
        .sum();
    assert!(big > 0.5, "large parallel jobs dominate node usage: {big}");

    // --- §4.2: files ------------------------------------------------------
    let cen = census::census(&chars);
    assert!(
        cen.write_only > 2 * cen.read_only,
        "write-only files dominate"
    );
    assert!(cen.read_only > cen.read_write || cen.read_only > 500);
    assert!(cen.unaccessed > 0, "open-but-unaccessed files exist");
    assert!(
        cen.temporary_fraction() < 0.1,
        "temporary files are rare: {}",
        cen.temporary_fraction()
    );
    let size_cdf = census::size_cdf(&chars);
    // Most files are "large" (10 KB to 1 MB).
    let mid_mass = size_cdf.fraction_le(1_000_000) - size_cdf.fraction_le(10_000);
    assert!(
        mid_mass > 0.5,
        "file-size mass sits in 10KB..1MB: {mid_mass}"
    );

    // --- §4.3: request sizes ----------------------------------------------
    assert!(
        rs.small_read_fraction() > 0.85,
        "the vast majority of reads are small"
    );
    assert!(
        rs.small_read_data_fraction() < 0.10,
        "but they move almost none of the data"
    );
    assert!(rs.small_write_fraction() > 0.75);
    assert!(rs.small_write_data_fraction() < 0.15);

    // --- §4.4: sequentiality ----------------------------------------------
    let seq = sequential::cdfs(&chars, sequential::Metric::Sequential);
    assert!(
        seq.fully(SessionClass::ReadOnly) > 0.7,
        "most read-only files are 100% sequential"
    );
    assert!(seq.fully(SessionClass::WriteOnly) > 0.7);
    assert!(
        seq.fully(SessionClass::ReadWrite) < 0.3,
        "read-write files are mostly non-sequential"
    );
    let con = sequential::cdfs(&chars, sequential::Metric::Consecutive);
    assert!(
        con.fully(SessionClass::WriteOnly) > con.fully(SessionClass::ReadOnly),
        "interleaving makes read-only files much less consecutive than write-only"
    );

    // --- §4.5: regularity --------------------------------------------------
    let t2 = intervals::interval_table(&chars);
    let p2 = t2.percents();
    assert!(p2[0] + p2[1] + p2[2] > 85.0, "access patterns are regular");
    assert!(
        intervals::one_interval_consecutive_fraction(&chars) > 0.8,
        "single-interval files are overwhelmingly consecutive"
    );
    let t3 = intervals::request_size_table(&chars);
    let p3 = t3.percents();
    assert!(p3[1] + p3[2] > 70.0, "one or two request sizes dominate");

    // --- §4.6: modes --------------------------------------------------------
    let mu = modes::mode_usage(&chars);
    assert!(
        mu.mode0_fraction() > 0.99,
        "mode 0 dominates: {}",
        mu.mode0_fraction()
    );

    // --- §4.7: sharing -------------------------------------------------------
    assert_eq!(
        sharing::concurrent_interjob_shares(&chars),
        0,
        "no concurrent file sharing between jobs"
    );
    let sh = sharing::sharing_cdfs(&chars);
    assert!(
        sh.read_bytes.total() > 0.0,
        "read-only sharing population exists"
    );
    // More sharing for read-only than write-only files.
    let ro_full = 1.0 - sh.read_bytes.fraction_le(99);
    let wo_none = sh.write_bytes.fraction_le(0);
    assert!(
        ro_full > 0.4,
        "many read-only files fully byte-shared: {ro_full}"
    );
    assert!(
        wo_none > 0.7,
        "most write-only files share no bytes: {wo_none}"
    );

    // --- §4.8: caching -------------------------------------------------------
    let f8 = charisma::cachesim::compute_cache_sim(&events, &index, 1);
    assert!(
        f8.fraction_of_jobs_at_zero() > 0.1,
        "a zero-hit clump exists"
    );
    assert!(
        f8.fraction_of_jobs_above(0.75) > 0.2,
        "a high-hit clump exists"
    );
    let f8_many = charisma::cachesim::compute_cache_sim(&events, &index, 10);
    assert!(
        (f8.hit_rate() - f8_many.hit_rate()).abs() < 0.1,
        "one buffer is nearly as good as many: {} vs {}",
        f8.hit_rate(),
        f8_many.hit_rate()
    );

    let small = charisma::cachesim::io_cache_sim(&events, &index, 10, 100, Policy::Lru);
    let big = charisma::cachesim::io_cache_sim(&events, &index, 10, 2000, Policy::Lru);
    assert!(
        big.hit_rate() > 0.8,
        "a modest I/O-node cache reaches a high hit rate"
    );
    assert!(big.hit_rate() >= small.hit_rate());
    let fifo = charisma::cachesim::io_cache_sim(&events, &index, 10, 100, Policy::Fifo);
    assert!(
        small.hit_rate() >= fifo.hit_rate() - 0.01,
        "LRU at least matches FIFO: {} vs {}",
        small.hit_rate(),
        fifo.hit_rate()
    );

    let combined = charisma::cachesim::combined_simulation(&events, &index, 1, 10, 50);
    assert!(
        combined.io_hit_rate_reduction().abs() < 0.10,
        "compute-node filtering barely dents the I/O-node hit rate: {}",
        combined.io_hit_rate_reduction()
    );
}

#[test]
fn pipeline_is_deterministic_across_runs() {
    let a = generate(GeneratorConfig::test_scale(0.02));
    let b = generate(GeneratorConfig::test_scale(0.02));
    assert_eq!(a.trace.event_count(), b.trace.event_count());
    let ea = postprocess(&a.trace);
    let eb = postprocess(&b.trace);
    assert_eq!(ea, eb, "the whole pipeline is reproducible per seed");
}

#[test]
fn different_seeds_give_different_traces_same_shapes() {
    let a = generate(GeneratorConfig {
        scale: 0.05,
        seed: 1,
        ..Default::default()
    });
    let b = generate(GeneratorConfig {
        scale: 0.05,
        seed: 2,
        ..Default::default()
    });
    assert_ne!(postprocess(&a.trace), postprocess(&b.trace), "seeds matter");
    // But the qualitative shape is seed-independent.
    for w in [a, b] {
        let events = postprocess(&w.trace);
        let report = Report::from_events(&events);
        assert!(report.request_sizes.small_read_fraction() > 0.8);
        let mu = modes::mode_usage(&report.chars);
        assert!(mu.mode0_fraction() > 0.99);
    }
}
