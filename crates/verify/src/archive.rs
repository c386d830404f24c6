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
//!    stream returns, with serial and multi-worker scans agreeing.

use charisma::prelude::*;
use charisma::store::StoreMetrics;

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

/// The `archive` gate: canonical bytes across every worker count, the
/// hash fixture, exact round trip and conservative pruning at every scan
/// worker count in [`WORKERS`].
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
    let want: Vec<OrderedEvent> = out
        .events
        .iter()
        .filter(|e| window.matches(e))
        .copied()
        .collect();

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
        let registry = MetricsRegistry::new();
        let pruned = archive
            .query(window.clone())
            .workers(workers)
            .attach_metrics(StoreMetrics::register(&registry))
            .events()?;
        if pruned != want {
            complaints.push(format!(
                "{workers}-worker time-window query returned {} records; a plain \
                 filter of the stream returns {}",
                pruned.len(),
                want.len(),
            ));
        }
        let snap = registry.snapshot();
        if snap
            .counters
            .get("store.segments_pruned")
            .copied()
            .unwrap_or(0)
            == 0
        {
            complaints.push(format!(
                "middle-third time window pruned no segments (archive has {}) — \
                 zone-map pushdown is not engaging",
                archive.segments(),
            ));
        }
    }
    let line = fixture_line(runs.seed, runs.scale, &bytes, &archive);
    complaints.extend(pin("archive_hash.txt", &line, "archive", write));
    Ok(complaints)
}
