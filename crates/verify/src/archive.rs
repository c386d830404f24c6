//! The trace-archive gate.
//!
//! `charisma-store` makes three promises the rest of the workspace builds
//! on, and this module turns each into a CI check:
//!
//! 1. **Canonical bytes** — the archive a pipeline run writes is a pure
//!    function of seed and scale: byte-identical across worker counts,
//!    and pinned by a checked-in FNV-1a hash fixture
//!    (`crates/verify/fixtures/archive_hash.txt`) so any format or
//!    encoding change is visible in review.
//! 2. **Exact round trip** — reopening the archive and scanning it with
//!    the match-everything query reproduces the pipeline's merged event
//!    stream record-for-record, and the report computed *from the
//!    archive* renders identically to the report the pipeline computed
//!    in memory.
//! 3. **Pruning is pure optimization** — a time-window query must prune
//!    at least one segment (`store.segments_pruned > 0` at gate scale)
//!    while returning exactly the records a plain filter of the full
//!    stream returns, with serial and multi-worker scans agreeing. A
//!    two-predicate query (the middle third of the stream by row
//!    position, request records only) must do the same, and its scan
//!    counters are pinned exactly by `fixtures/pruned_scan.txt`.
//!
//! It also checks that a scrub of a clean default replica placement
//! finds nothing to repair.

use charisma::prelude::*;
use charisma::store::{ReplicaConfig, StoreMetrics};

use crate::determinism::fnv1a_hash;
use crate::gates::{pin, Config, Runs, WORKERS};

/// The archive-hash fixture line for one archive: fully self-describing,
/// `seed=… scale=… fnv1a=0x… bytes=… rows=… segments=…`.
fn fixture_line(seed: u64, scale: f64, bytes: &[u8], archive: &Archive) -> String {
    format!(
        "seed={} scale={} fnv1a={:#018x} bytes={} rows={} segments={}\n",
        seed,
        scale,
        fnv1a_hash(bytes),
        bytes.len(),
        archive.rows(),
        archive.segments(),
    )
}

/// The store counters the pruned-scan fixture pins, in fixture order.
const PRUNED_SCAN_COUNTERS: [&str; 4] = [
    "store.rows_scanned",
    "store.rows_matched",
    "store.cols_decoded",
    "store.segments_pruned",
];

/// Scan `query` (described by `what`) on `workers` threads with store
/// metrics attached, and complain unless it returns exactly `want`, a
/// plain filter of the stream. Returns the scan's store counters.
fn filtered_scan(
    archive: &Archive,
    what: &str,
    query: &Query,
    workers: usize,
    want: &[OrderedEvent],
    complaints: &mut Vec<String>,
) -> Result<MetricsSnapshot, charisma::Error> {
    let registry = MetricsRegistry::new();
    let got = archive
        .query(query.clone())
        .workers(workers)
        .attach_metrics(StoreMetrics::register(&registry))
        .events()?;
    if got != want {
        complaints.push(format!(
            "{workers}-worker {what} query returned {} records; a plain \
             filter of the stream returns {}",
            got.len(),
            want.len(),
        ));
    }
    Ok(registry.snapshot())
}

/// The `archive` gate: canonical bytes across every worker count, the
/// hash fixture, exact round trip, conservative pruning and the pinned
/// pruned-scan counters at every scan worker count in [`WORKERS`], and a
/// clean scrub of a clean placement.
pub(crate) fn check(runs: &mut Runs, write: bool) -> Result<Vec<String>, charisma::Error> {
    let mut complaints = Vec::new();

    // One serial run supplies the reference stream, report, and bytes.
    let out = runs.get(Config::Clean, 1)?;
    let bytes = out.archive.clone().unwrap_or_default();

    // 1. Canonical bytes: worker count must not leak into the format.
    for &n in &WORKERS[1..] {
        let other = runs.get(Config::Clean, n)?;
        let other = other.archive.as_deref().unwrap_or_default();
        if other != bytes {
            complaints.push(format!(
                "archive bytes from a {n}-worker run differ from the serial run \
                 ({} vs {} bytes, fnv1a {:#018x} vs {:#018x})",
                other.len(),
                bytes.len(),
                fnv1a_hash(other),
                fnv1a_hash(&bytes),
            ));
        }
    }

    let archive = Archive::from_bytes(bytes.clone())?;
    let Some((t0, t1)) = archive.time_span() else {
        complaints.push("archive is empty at gate scale — nothing to scan".to_owned());
        return Ok(complaints);
    };
    let span = t1.as_micros() - t0.as_micros();
    let window = Query::all().time_window(
        SimTime::from_micros(t0.as_micros() + span / 3),
        SimTime::from_micros(t0.as_micros() + 2 * span / 3),
    );
    // The middle third of the stream *by row position*, request records
    // only: a two-predicate query (time + op) through zone-map pruning,
    // predicate-first decode and late materialization. Row-position
    // bounds keep the matched set non-degenerate at every scale.
    let at = |i: usize| out.events.get(i).map_or(SimTime::ZERO, |e| e.time);
    let n = out.events.len();
    let requests = Query::all()
        .time_window(at(n / 3), at(2 * n / 3))
        .ops(OpSet::requests());
    let filter = |query: &Query| -> Vec<OrderedEvent> {
        out.events
            .iter()
            .filter(|e| query.matches(e))
            .copied()
            .collect()
    };
    let want = filter(&window);
    let want_requests = filter(&requests);
    let mut pruned_scan_line: Option<String> = None;

    for &workers in &WORKERS {
        // 2a. Round trip: the all-pass scan reproduces the merged stream.
        let reread = archive.query(Query::all()).workers(workers).events()?;
        if reread != out.events {
            let first_diff = reread
                .iter()
                .zip(&out.events)
                .position(|(a, b)| a != b)
                .unwrap_or(reread.len().min(out.events.len()));
            complaints.push(format!(
                "{workers}-worker archive round trip diverges from the in-memory \
                 stream at record {first_diff} ({} archived vs {} generated)",
                reread.len(),
                out.events.len(),
            ));
        }

        // 2b. The report computed from the archive renders identically to
        // the report the pipeline computed in the pass that fed the writer.
        let archived_report = archive.query(Query::all()).workers(workers).report()?;
        if archived_report.render() != out.report.render() {
            complaints.push(format!(
                "report from the {workers}-worker all-pass archive query renders \
                 differently from the pipeline's in-memory report"
            ));
        }

        // 3. Predicate pushdown: a middle-third time window must prune
        // segments yet agree exactly with a plain filter of the stream.
        let snap = filtered_scan(
            &archive,
            "time-window",
            &window,
            workers,
            &want,
            &mut complaints,
        )?;
        if counter(&snap, "store.segments_pruned") == 0 {
            complaints.push(format!(
                "middle-third time window pruned no segments (archive has {}) — \
                 zone-map pushdown is not engaging",
                archive.segments(),
            ));
        }

        // The two-predicate query agrees with its plain filter too, and
        // its scan counters are the same at every worker count.
        let snap = filtered_scan(
            &archive,
            "requests-window",
            &requests,
            workers,
            &want_requests,
            &mut complaints,
        )?;
        let counts: Vec<String> = PRUNED_SCAN_COUNTERS
            .iter()
            .map(|name| format!("{name}={}", counter(&snap, name)))
            .collect();
        let line = format!(
            "seed={} scale={} {}\n",
            runs.seed,
            runs.scale,
            counts.join(" ")
        );
        let serial = pruned_scan_line.get_or_insert_with(|| line.clone());
        if *serial != line {
            complaints.push(format!(
                "{workers}-worker pruned scan counted `{}`; the serial scan counted `{}`",
                line.trim_end(),
                serial.trim_end(),
            ));
        }
    }

    // 4. A scrub of a clean default placement is healthy and repairs
    // nothing: damage is only ever reported where some was done.
    let mut set = ReplicaSet::place(archive.reader(), ReplicaConfig::default(), runs.seed);
    let scrub = set.scrub();
    if !scrub.healthy() || scrub.repaired != 0 {
        complaints.push(format!(
            "scrub of a clean default placement reported damage: {} repaired, \
             {:?} unrecoverable",
            scrub.repaired, scrub.unrecoverable
        ));
    }

    if let Some(line) = pruned_scan_line {
        complaints.extend(pin("pruned_scan.txt", &line, "archive", write));
    }
    let line = fixture_line(runs.seed, runs.scale, &bytes, &archive);
    complaints.extend(pin("archive_hash.txt", &line, "archive", write));
    Ok(complaints)
}

/// The value of counter `name` in `snap`, 0 if it never moved.
fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}
