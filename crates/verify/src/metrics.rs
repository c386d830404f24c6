//! The metrics-snapshot gate.
//!
//! The observability layer (`charisma-obs`) claims its counters, gauges,
//! and histograms are a **pure function of the configuration and seed** —
//! wall-clock artifacts are quarantined in the snapshot's nondeterministic
//! section and never reach [`MetricsSnapshot::to_core_json`]. The
//! `metrics` gate turns that claim into two checks:
//!
//! 1. **Snapshot diff** — render the serial run's deterministic core as
//!    canonical JSON and diff it line-by-line against the checked-in
//!    fixture (`crates/verify/fixtures/metrics_snapshot.json`). Any new,
//!    removed, or changed metric fails the gate until the fixture is
//!    regenerated with `charisma-verify gates metrics --write` — which
//!    forces metric changes to be visible in review.
//! 2. **Shard equivalence** — every worker count's core must be
//!    byte-identical to the serial one: worker count is an execution
//!    detail, and the merge algebra (saturating counter sums, gauge
//!    maxima, bucket-wise histogram sums) must keep it that way.
//!
//! [`MetricsSnapshot::to_core_json`]: charisma::obs::MetricsSnapshot::to_core_json

use charisma::obs::{MetricsRegistry, MetricsSnapshot};
use charisma::serve::{ServeMetrics, Service, ServiceConfig, TenantFeed};
use charisma::store::Query;
use charisma::tier::TierPlan;
use charisma::trace::OrderedEvent;
use charisma::PipelineOutput;

use crate::gates::{pin, Config, Runs, WORKERS};
use crate::tier::tier_drill;

/// One line-level disagreement between fixture and observed core JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonDiff {
    /// 1-based line number in the fixture (or past-the-end for additions).
    pub line: usize,
    /// The fixture's line, if any.
    pub expected: Option<String>,
    /// The observed line, if any.
    pub actual: Option<String>,
}

impl std::fmt::Display for JsonDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.expected, &self.actual) {
            (Some(e), Some(a)) => {
                write!(f, "line {}: fixture `{}` vs observed `{}`", self.line, e, a)
            }
            (Some(e), None) => write!(f, "line {}: fixture `{}` missing from run", self.line, e),
            (None, Some(a)) => write!(f, "line {}: run added `{}`", self.line, a),
            (None, None) => write!(f, "line {}: <no difference>", self.line),
        }
    }
}

/// Render the deterministic metrics core the fixture pins for one
/// pipeline run with an in-memory archive sink.
///
/// The core merges three sources, all pure functions of `(seed, scale)`:
///
/// - the run's own metrics, including the `store.*` writer counters (an
///   encoding change that moves `store.bytes_written` fails this gate,
///   not just the archive one);
/// - [`tier_drill`] under the default [`TierPlan`] over the run's
///   archive, pinning the `tier.*` counters and the scan-fed
///   `store.access.*` ledger counters;
/// - [`serve_exercise`] over the run's merged stream, pinning the
///   `serve.*` counters.
pub(crate) fn core_json(
    out: &PipelineOutput,
    seed: u64,
    scale: f64,
) -> Result<String, charisma::Error> {
    let mut metrics = out.metrics.clone();
    let bytes = out.archive.as_deref().unwrap_or_default();
    metrics.merge(&tier_drill(bytes, &TierPlan::default())?);
    metrics.merge(&serve_exercise(&out.events, seed, scale)?);
    Ok(metrics.to_core_json())
}

/// A small `charisma-serve` exercise — two tenants fed round-robin, one
/// federated scan — returning the `serve.*` metrics it recorded. Serve
/// counters are per-tenant deterministic sums, so the snapshot depends
/// only on `events`.
fn serve_exercise(
    events: &[OrderedEvent],
    seed: u64,
    scale: f64,
) -> Result<MetricsSnapshot, charisma::Error> {
    let registry = MetricsRegistry::new();
    let mut service = Service::new(ServiceConfig {
        seed,
        scale,
        tenants: 2,
        ..ServiceConfig::default()
    });
    service.attach_metrics(ServeMetrics::register(&registry));
    let mut streams = vec![Vec::new(); 2];
    for (i, e) in events.iter().enumerate() {
        streams[i % 2].push(*e);
    }
    let feeds: Vec<TenantFeed> = streams
        .into_iter()
        .enumerate()
        .map(|(tenant, events)| TenantFeed {
            tenant,
            batches: events.chunks(512).map(<[_]>::to_vec).collect(),
        })
        .collect();
    service.run_ingest(&feeds, 2, 0)?;
    service.federated(Query::all()).workers(2).events()?;
    Ok(registry.snapshot())
}

/// The `metrics` gate: the serial clean run's core against
/// `metrics_snapshot.json`, and every other worker count's core against
/// the serial one.
pub(crate) fn check(runs: &mut Runs, write: bool) -> Result<Vec<String>, charisma::Error> {
    let (seed, scale) = (runs.seed, runs.scale);
    let serial = core_json(&*runs.get(Config::Clean, 1)?, seed, scale)?;
    let mut complaints = pin("metrics_snapshot.json", &serial, "metrics", write);
    for &workers in &WORKERS[1..] {
        let core = core_json(&*runs.get(Config::Clean, workers)?, seed, scale)?;
        let diffs = diff_json(&serial, &core);
        complaints.extend(
            diffs
                .iter()
                .take(20)
                .map(|d| format!("serial vs {workers}-worker core: {d}")),
        );
    }
    Ok(complaints)
}

/// Line-by-line diff of two JSON documents, fixture first.
///
/// Canonical JSON (BTreeMap key order, fixed indentation) makes a plain
/// line diff exact: every metric lives on its own line, so each [`JsonDiff`]
/// names the metric that changed.
pub fn diff_json(expected: &str, actual: &str) -> Vec<JsonDiff> {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut diffs = Vec::new();
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e != a {
            diffs.push(JsonDiff {
                line: i + 1,
                expected: e.map(str::to_owned),
                actual: a.map(str::to_owned),
            });
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_have_no_diff() {
        assert!(diff_json("{\n  \"a\": 1\n}\n", "{\n  \"a\": 1\n}\n").is_empty());
    }

    #[test]
    fn changed_added_and_removed_lines_are_localized() {
        let diffs = diff_json("a\nb\nc\n", "a\nB\nc\nd\n");
        assert_eq!(diffs.len(), 2);
        assert_eq!(diffs[0].line, 2);
        assert_eq!(diffs[0].expected.as_deref(), Some("b"));
        assert_eq!(diffs[0].actual.as_deref(), Some("B"));
        assert_eq!(diffs[1].line, 4);
        assert_eq!(diffs[1].expected, None);
        assert_eq!(diffs[1].actual.as_deref(), Some("d"));
        assert!(diffs[1].to_string().contains("run added"));
    }

    #[test]
    fn core_json_is_stable_across_runs_and_workers() {
        let run = |workers: usize| {
            let out = charisma::Pipeline::new()
                .scale(0.01)
                .shards(workers)
                .sink(charisma::ArchiveSink::Memory)
                .run()
                .expect("runs");
            core_json(&out, 4994, 0.01).expect("drills")
        };
        let serial = run(1);
        assert_eq!(serial, run(1), "same seed, same core");
        let diffs = diff_json(&serial, &run(3));
        assert!(diffs.is_empty(), "first diff: {}", diffs[0]);
        assert!(serial.contains("\"tier.segments_classified\""));
        assert!(serial.contains("\"serve.federated_queries\""));
    }
}
