//! The archive service: many sites publishing, many readers querying.
//!
//! The CHARISMA study watched one shared file system serve a whole
//! production mix. This example is the repo's "open archive" analog of
//! that situation — a long-lived multi-tenant `charisma-serve` service
//! where three simulated *sites* publish their trace campaigns and
//! readers query across all of them:
//!
//! * site 0 publishes straight from a pipeline run through
//!   `ArchiveSink::Serve` — the run is just another tenant;
//! * site 1 ingests its own campaign as explicit batch feeds;
//! * site 2 demonstrates snapshot isolation: a reader pins the catalog
//!   mid-ingest and keeps seeing exactly that prefix while ingest
//!   continues underneath it;
//! * finally one federated query fans out across all three catalogs and
//!   k-way merges the results back into a single `(time, node)`-ordered
//!   stream.
//!
//! ```text
//! cargo run --release --example archive_service
//! ```

use std::sync::Arc;

use charisma::prelude::*;
use charisma::serve::ServeMetrics;
use charisma::{ArchiveSink, ServeSink};

fn main() -> Result<(), charisma::Error> {
    // One long-lived service hosting three sites. Its (seed, scale)
    // stamps the published catalogs' metadata.
    let registry = MetricsRegistry::new();
    let mut service = Service::new(ServiceConfig {
        seed: 4994,
        scale: 0.02,
        tenants: 3,
        ..ServiceConfig::default()
    });
    service.attach_metrics(ServeMetrics::register(&registry));
    let service = Arc::new(service);

    // Site 0: a pipeline run delivers its merged stream through the
    // serve sink — same single merge pass that feeds the analysis.
    let out = Pipeline::new()
        .scale(0.02)
        .seed(4994)
        .shards(2)
        .sink(ArchiveSink::Serve(ServeSink::new(Arc::clone(&service), 0)))
        .run()?;
    println!(
        "site 0: pipeline published {} rows through the serve sink",
        out.events.len()
    );

    // Site 1: a different campaign, ingested as an explicit batch feed
    // on two workers (the published bytes are worker-invariant).
    let campaign1 = Pipeline::new().scale(0.01).seed(271).run()?;
    let feed = TenantFeed {
        tenant: 1,
        batches: campaign1.events.chunks(2048).map(<[_]>::to_vec).collect(),
    };
    service.run_ingest(std::slice::from_ref(&feed), 2, 0)?;
    println!(
        "site 1: ingested {} rows from its own campaign (seed 271)",
        campaign1.events.len()
    );

    // Site 2: snapshot isolation. Pin a reader mid-ingest; it keeps
    // seeing exactly the prefix it pinned while ingest continues.
    // Small batches so the bounded queue (8 batches) overflows and
    // drains into sealed segments well before the feed ends.
    let campaign2 = Pipeline::new().scale(0.01).seed(828).run()?;
    let batches: Vec<Vec<OrderedEvent>> =
        campaign2.events.chunks(1024).map(<[_]>::to_vec).collect();
    let half = batches.len() / 2;
    for batch in &batches[..half] {
        service.submit(2, batch)?;
    }
    let pinned = service.snapshot(2)?;
    for batch in &batches[half..] {
        service.submit(2, batch)?;
    }
    service.flush(2)?;
    let live = service.snapshot(2)?;
    let pinned_rows = usize::try_from(pinned.rows()).expect("row count fits");
    assert_eq!(
        pinned.events()?,
        campaign2.events[..pinned_rows],
        "a pinned snapshot is a serial replay of exactly its prefix"
    );
    println!(
        "site 2: reader pinned {} rows; ingest continued to {} underneath it",
        pinned.rows(),
        live.rows()
    );

    // The published catalogs, as any reader sees them.
    println!();
    for tenant in 0..3 {
        let snap = service.snapshot(tenant)?;
        println!(
            "site {tenant}: {} rows in {} sealed segments ({} bytes published)",
            snap.rows(),
            snap.segment_count(),
            snap.to_bytes().len()
        );
    }

    // One federated query across every site: fan out with worker
    // threads, k-way merge back by (time, node, site).
    let everything = service.federated(Query::all()).workers(4).events()?;
    let total: u64 = (0..3)
        .map(|t| service.snapshot(t).map(|s| s.rows()))
        .sum::<Result<u64, _>>()?;
    assert_eq!(everything.len() as u64, total);
    for w in everything.windows(2) {
        assert!((w[0].time, w[0].node) <= (w[1].time, w[1].node));
    }
    println!(
        "\nfederated scan: {} rows across all sites, one (time, node)-ordered stream",
        everything.len()
    );

    // A pruned federated query: only the first half of the traced span.
    // Zone maps reject segments entirely outside the window per tenant.
    let (t0, t1) = (
        everything.first().map_or(0, |e| e.time.as_micros()),
        everything.last().map_or(0, |e| e.time.as_micros()),
    );
    let window = Query::all().time_window(
        SimTime::from_micros(t0),
        SimTime::from_micros(t0 + (t1 - t0) / 2),
    );
    let early = service.federated(window).workers(4).events()?;
    let snap = registry.snapshot();
    println!(
        "windowed federated scan: {} rows; pruning skipped {} of {} segments",
        early.len(),
        snap.counters["serve.federated_segments_pruned"],
        snap.counters["serve.federated_segments_pruned"]
            + snap.counters["serve.federated_segments_scanned"],
    );
    println!(
        "service counters: {} batches in, {} rows in, {} segments sealed, \
         {} backpressure stalls, {} federated queries",
        snap.counters["serve.batches_ingested"],
        snap.counters["serve.rows_ingested"],
        snap.counters["serve.segments_sealed"],
        snap.counters["serve.backpressure_stalls"],
        snap.counters["serve.federated_queries"],
    );

    println!(
        "\nEvery byte above is a pure function of the service seed and the\n\
         per-site batch sequences: worker counts, interleavings, and\n\
         backpressure timing cannot change a published catalog\n\
         (`charisma-verify gates serve` is the gate that proves it)."
    );
    Ok(())
}
