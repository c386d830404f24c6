//! The chaos gate: determinism and observability under fault injection.
//!
//! The fault layer's central claim is that injecting faults does not cost
//! determinism: every fault decision is a pure hash of the plan seed and
//! stable event identities (never of evaluation order or thread timing),
//! so a chaos run must be exactly as repeatable and worker-count-invariant
//! as a clean one. The `chaos` gate turns that into checks:
//!
//! 1. **Plan fixtures** — the canonical chaos plan
//!    ([`FaultPlan::chaos_fixture`]) is checked in as
//!    `crates/verify/fixtures/fault_plan_chaos.txt` and the archive-fault
//!    plan as `fault_plan_archive.txt`. Each fixture must equal the
//!    builtin's encoding and parse back to the builtin, so any drift in
//!    either the plan or its text codec is visible in review.
//! 2. **Repeatability and worker-count invariance** — the chaos pipeline
//!    is held to `check_runs_agree`: every worker count reproduces the
//!    serial run, and the widest count reproduces itself.
//! 3. **Fault-metrics snapshot** — the serial chaos run's deterministic
//!    metrics core (which includes the `faults.*` counters) must show the
//!    machinery engaged and is diffed against
//!    `crates/verify/fixtures/metrics_snapshot_chaos.json`, pinning the
//!    exact number of injected faults, retries, timeouts, and degraded
//!    serves at the gate's seed and scale.
//! 4. **Archive-fault drill** — `check_archive_chaos`: everything
//!    again under [`archive_fault_plan`], with [`archive_fault_drill`]
//!    placing, damaging, failing over and scrubbing a replica set over
//!    each run's archive, plus torn-tail recovery and degraded-tenant
//!    federation.
//!
//! Run the binary with `--features invariants` (CI does) and every
//! `invariant!` assertion in the simulation crates is live while the
//! faults fire.

use charisma::ipsc::FaultMetrics;
use charisma::obs::{MetricsRegistry, MetricsSnapshot};
use charisma::serve::{Service, ServiceConfig, Snapshot, TenantFeed};
use charisma::store::{Archive, Query, ReplicaConfig, ReplicaSet, StoreError, StoreMetrics};
use charisma_ipsc::FaultPlan;

use crate::determinism::check_runs_agree;
use crate::gates::{pin, Config, Runs};

/// The canonical chaos plan the gate runs under — a moderately hostile
/// environment: disk transients, one I/O node lost an hour in, service
/// stalls, message delay/drop/duplication, and clock jumps.
pub fn chaos_plan() -> FaultPlan {
    FaultPlan::chaos_fixture()
}

/// The `chaos` gate: plan fixtures, repeatability and worker-count
/// invariance under the chaos plan, fault activity, the chaos metrics
/// fixture, and the archive-fault drill.
pub(crate) fn check(runs: &mut Runs, write: bool) -> Result<Vec<String>, charisma::Error> {
    let mut complaints = pin_plan("fault_plan_chaos.txt", &chaos_plan(), write);
    complaints.extend(pin_plan(
        "fault_plan_archive.txt",
        &archive_fault_plan(),
        write,
    ));
    complaints.extend(check_runs_agree(runs, Config::Chaos)?);
    let metrics = &runs.get(Config::Chaos, 1)?.metrics;
    complaints.extend(require_engaged(metrics, &CHAOS_ENGAGED));
    let core = metrics.to_core_json();
    complaints.extend(pin("metrics_snapshot_chaos.json", &core, "chaos", write));
    complaints.extend(check_archive_chaos(runs)?);
    Ok(complaints)
}

/// Pin `plan`'s encoding as the fixture `file`, and require that
/// encoding to parse back to `plan` — together, the fixture text parses
/// to the builtin.
fn pin_plan(file: &str, plan: &FaultPlan, write: bool) -> Vec<String> {
    let encoded = plan.encode();
    let mut complaints = pin(file, &encoded, "chaos", write);
    match FaultPlan::parse(&encoded) {
        Ok(parsed) if parsed == *plan => {}
        Ok(parsed) => complaints.push(format!(
            "{file}: the text codec does not round-trip the builtin plan\n  \
             parsed:  {parsed:?}\n  builtin: {plan:?}"
        )),
        Err(e) => complaints.push(format!(
            "{file}: the builtin plan's encoding does not parse: {e}"
        )),
    }
    complaints
}

/// Counters the chaos plan must drive above zero: injection, retry,
/// degraded service, message delay and clock jumps.
const CHAOS_ENGAGED: [&str; 6] = [
    "faults.injected",
    "faults.disk_transient",
    "faults.retried",
    "faults.degraded",
    "faults.msg_delayed",
    "faults.clock_jumps",
];

/// Counters the archive-fault drill must drive above zero.
const ARCHIVE_ENGAGED: [&str; 4] = [
    "faults.archive.corrupt",
    "faults.archive.replica_lost",
    "store.scrub.segments_checked",
    "store.scrub.repaired",
];

/// A complaint for each of `keys` that `metrics` lacks or counts as
/// zero: a fault or recovery path the plan must exercise but did not —
/// a problem no fixture diff would name clearly.
fn require_engaged(metrics: &MetricsSnapshot, keys: &[&str]) -> Vec<String> {
    keys.iter()
        .filter_map(|&key| match metrics.counters.get(key) {
            None => Some(format!("`{key}` missing from the faulted run's metrics")),
            Some(0) => Some(format!("`{key}` is zero: the fault plan must exercise it")),
            Some(_) => None,
        })
        .collect()
}

/// The archive-fault plan: the canonical chaos environment with the
/// self-healing archive layer's faults switched on — replica byte
/// corruption and whole-replica loss at rates hostile enough to damage
/// many copies at the gate's seed and scale while (deterministically)
/// leaving at least one live replica of every segment, so the drill
/// exercises failover and scrub rather than declared data loss.
/// Checked in as `crates/verify/fixtures/fault_plan_archive.txt`.
pub fn archive_fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::chaos_fixture();
    plan.archive_corrupt_ppm = 25_000;
    plan.replica_loss_ppm = 20_000;
    plan
}

/// The self-healing drill over one archive: place its segments on
/// replicated I/O nodes, inject `plan`'s deterministic replica damage
/// (`archive_corrupt_ppm` / `replica_loss_ppm`), and require the healing
/// loop to close — degraded reads fail over to the canonical bytes, scrub
/// repairs every damaged replica, and the healed set reads clean with no
/// failovers left.
///
/// Returns the drill's metrics — `faults.archive.*` injections and
/// `store.scrub.*` activity — for the caller to merge into the run's.
pub fn archive_fault_drill(bytes: &[u8], plan: &FaultPlan) -> Result<MetricsSnapshot, StoreError> {
    let archive = Archive::from_bytes(bytes.to_vec())?;
    let registry = MetricsRegistry::new();
    let mut set = ReplicaSet::place(archive.reader(), ReplicaConfig::default(), plan.seed);
    set.attach_metrics(StoreMetrics::register(&registry));
    let injected = set.inject_faults(plan.archive_corrupt_ppm, plan.replica_loss_ppm);
    let fm = FaultMetrics::register(&registry);
    fm.archive_corrupt.add(injected.corrupted);
    fm.replica_lost.add(injected.lost);
    // Degraded reads must already serve the canonical container.
    let (degraded, _failovers) = set.failover_reader()?;
    if degraded.to_bytes() != bytes {
        return Err(StoreError::Corrupt(
            "degraded read diverged from canonical bytes",
        ));
    }
    // Scrub must repair every damaged replica in place…
    let report = set.scrub();
    if !report.healthy() {
        return Err(StoreError::CorruptSegment {
            segment: report.unrecoverable[0],
            replica: 0,
        });
    }
    // …after which the set reads clean, with no failovers left.
    let (healed, failovers) = set.failover_reader()?;
    if failovers != 0 || healed.to_bytes() != bytes {
        return Err(StoreError::Corrupt("scrub left a replica diverging"));
    }
    Ok(registry.snapshot())
}

/// The archive-fault half of the chaos gate. Every
/// [`Config::ArchiveFaults`] run has already passed
/// [`archive_fault_drill`] (failover and scrub byte-exact) with its
/// metrics merged in; this holds the self-healing layer to its remaining
/// contracts:
///
/// 1. **Repeatability and worker-count invariance** —
///    [`check_runs_agree`]: archive bytes and metric cores included.
/// 2. **Fault activity** — the archive fault counters and scrub counters
///    are live, and scrub repaired exactly the copies that were damaged.
/// 3. **Torn-tail recovery** — truncating the archive mid-final-segment
///    is classified `TornTail`, and recovery yields exactly the sealed
///    prefix of the merged stream.
/// 4. **Degraded federation** — a federated query in which one tenant's
///    snapshot is rebuilt through replica failover answers exactly like
///    the healthy federation.
///
/// Returns human-readable complaints; empty means the checks passed.
fn check_archive_chaos(runs: &mut Runs) -> Result<Vec<String>, charisma::Error> {
    let mut complaints = check_runs_agree(runs, Config::ArchiveFaults)?;
    let plan = archive_fault_plan();
    let (seed, scale) = (runs.seed, runs.scale);
    let out = runs.get(Config::ArchiveFaults, 1)?;
    let bytes = out.archive.clone().unwrap_or_default();

    // 2. The archive fault machinery demonstrably engaged, and scrub
    // repaired exactly the copies that were damaged.
    complaints.extend(require_engaged(&out.metrics, &ARCHIVE_ENGAGED));
    let count = |key: &str| out.metrics.counters.get(key).copied().unwrap_or(0);
    let damaged = count("faults.archive.corrupt") + count("faults.archive.replica_lost");
    let repaired = count("store.scrub.repaired");
    if repaired != damaged {
        complaints.push(format!(
            "scrub repaired {repaired} copies but {damaged} were damaged"
        ));
    }

    // 3. Torn-tail recovery: cut mid-final-segment, recover the prefix.
    let archive = Archive::from_bytes(bytes.clone())?;
    let whole_segments = archive.segments() as u64;
    let last_len = archive
        .reader()
        .segments()
        .last()
        .map_or(0, charisma::store::SealedSegment::size_bytes);
    let cut = bytes.len() - last_len / 2;
    let truncated = bytes[..cut].to_vec();
    match Archive::from_bytes(truncated.clone()) {
        Err(StoreError::TornTail { recovered_segments })
            if recovered_segments == whole_segments - 1 => {}
        Err(e) => complaints.push(format!(
            "mid-segment truncation misclassified: expected TornTail with {} segments, got {e}",
            whole_segments - 1
        )),
        Ok(_) => complaints.push("a torn archive parsed strictly".to_owned()),
    }
    let rec = Archive::recover_from_bytes(truncated)?;
    let rows = usize::try_from(rec.archive.rows()).unwrap_or(usize::MAX);
    if !rec.was_torn
        || rec.recovered_segments != whole_segments - 1
        || rows >= out.events.len()
        || rec.archive.events()? != out.events[..rows]
    {
        complaints.push(format!(
            "torn-tail recovery did not restore the sealed prefix \
             ({} of {} segments, {} rows)",
            rec.recovered_segments,
            whole_segments,
            rec.archive.rows()
        ));
    }

    // 4. Degraded federation ≡ healthy federation.
    let service = Service::new(ServiceConfig {
        seed,
        scale,
        tenants: 2,
        ..ServiceConfig::default()
    });
    let half = out.events.len() / 2;
    let feeds: Vec<TenantFeed> = [&out.events[..half], &out.events[half..]]
        .iter()
        .enumerate()
        .map(|(tenant, events)| TenantFeed {
            tenant,
            batches: events.chunks(1024).map(<[_]>::to_vec).collect(),
        })
        .collect();
    service.run_ingest(&feeds, 2, 1)?;
    let query = Query::all();
    let want = service.federated(query.clone()).workers(2).events()?;
    let mut snapshots = service.snapshot_all();
    let mut degraded =
        ReplicaSet::place(snapshots[1].reader(), ReplicaConfig::default(), plan.seed);
    degraded.inject_faults(plan.archive_corrupt_ppm, plan.replica_loss_ppm);
    match degraded.failover_reader() {
        Ok((reader, _)) => {
            snapshots[1] = Snapshot::from_reader(1, reader);
            let got = service.federated_over(&snapshots, &query, 2)?;
            if got != want {
                complaints.push(format!(
                    "degraded federation diverged from the healthy one \
                     ({} vs {} rows)",
                    got.len(),
                    want.len()
                ));
            }
        }
        Err(e) => complaints.push(format!("degraded tenant failed to fail over: {e}")),
    }

    Ok(complaints)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_trip_through_the_text_codec() {
        for plan in [chaos_plan(), archive_fault_plan()] {
            let parsed = FaultPlan::parse(&plan.encode()).expect("canonical plan parses");
            assert_eq!(parsed, plan);
        }
    }

    #[test]
    fn archive_plan_differs_from_the_chaos_plan_only_in_archive_rates() {
        let archive = archive_fault_plan();
        let mut base = chaos_plan();
        assert_eq!((base.archive_corrupt_ppm, base.replica_loss_ppm), (0, 0));
        base.archive_corrupt_ppm = archive.archive_corrupt_ppm;
        base.replica_loss_ppm = archive.replica_loss_ppm;
        assert_eq!(base, archive);
        assert!(archive.archive_corrupt_ppm > 0 && archive.replica_loss_ppm > 0);
    }

    #[test]
    fn idle_or_missing_counters_are_named() {
        let mut metrics = MetricsSnapshot::default();
        for key in CHAOS_ENGAGED {
            metrics.counters.insert(key.to_owned(), 1);
        }
        assert!(require_engaged(&metrics, &CHAOS_ENGAGED).is_empty());
        metrics.counters.insert("faults.retried".to_owned(), 0);
        metrics.counters.remove("faults.clock_jumps");
        let complaints = require_engaged(&metrics, &CHAOS_ENGAGED);
        assert_eq!(complaints.len(), 2, "{complaints:?}");
        assert!(complaints[0].contains("faults.retried") && complaints[0].contains("zero"));
        assert!(complaints[1].contains("faults.clock_jumps") && complaints[1].contains("missing"));
    }
}
