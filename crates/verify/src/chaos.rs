//! The chaos gate: determinism and observability under fault injection.
//!
//! The fault layer's central claim is that injecting faults does not cost
//! determinism: every fault decision is a pure hash of the plan seed and
//! stable event identities (never of evaluation order or thread timing),
//! so a chaos run must be exactly as repeatable and worker-count-invariant
//! as a clean one. The `chaos` gate turns that into checks:
//!
//! 1. **Plan fixture** — the canonical chaos plan
//!    ([`FaultPlan::chaos_fixture`]) is pinned, as its `{:#?}` rendering,
//!    in `crates/verify/fixtures/fault_plan_chaos.txt`, so any drift in
//!    the plan is visible in review.
//! 2. **Repeatability and worker-count invariance** — the chaos pipeline
//!    is held to `check_runs_agree`: every worker count reproduces the
//!    serial run, and the widest count reproduces itself.
//! 3. **Fault-metrics snapshot** — the serial chaos run's deterministic
//!    metrics core (which includes the `faults.*` counters) must show the
//!    machinery engaged and is diffed against
//!    `crates/verify/fixtures/metrics_snapshot_chaos.json`, pinning the
//!    exact number of injected faults, retries, timeouts, and degraded
//!    serves at the gate's seed and scale.
//! 4. **Archive-fault drill** — `check_archive_chaos`: the serial chaos
//!    run's stream is archived, and [`archive_fault_drill`] places,
//!    damages (at [`ARCHIVE_CORRUPT_PPM`] and [`REPLICA_LOSS_PPM`]),
//!    fails over and scrubs a replica set over it; then torn-tail
//!    recovery and degraded-tenant federation.
//!
//! Run the binary with `--features invariants` (CI does) and every
//! `invariant!` assertion in the simulation crates is live while the
//! faults fire.

use charisma::obs::{MetricsRegistry, MetricsSnapshot};
use charisma::serve::{Service, ServiceConfig, Snapshot, TenantFeed};
use charisma::store::{
    write_archive, Archive, ArchiveMeta, InjectReport, Query, ReplicaConfig, ReplicaSet,
    StoreError, StoreMetrics,
};
use charisma_ipsc::FaultPlan;

use crate::determinism::check_runs_agree;
use crate::gates::{pin, Config, Runs};

/// The canonical chaos plan the gate runs under — a moderately hostile
/// environment: disk transients, one I/O node lost an hour in, service
/// stalls, message delay/drop/duplication, and clock jumps.
pub fn chaos_plan() -> FaultPlan {
    FaultPlan::chaos_fixture()
}

/// Replica byte-flip rate of the gate's archive drill, ppm. With
/// [`REPLICA_LOSS_PPM`] it damages many copies at the gate's seed and
/// scale while (deterministically) leaving a live copy of every segment,
/// so the drill exercises failover and scrub rather than data loss.
pub const ARCHIVE_CORRUPT_PPM: u32 = 25_000;

/// Whole-replica loss rate of the gate's archive drill, ppm.
pub const REPLICA_LOSS_PPM: u32 = 20_000;

/// The `chaos` gate: the plan fixture, repeatability and worker-count
/// invariance under the chaos plan, fault activity, the chaos metrics
/// fixture, and the archive-fault drill.
pub(crate) fn check(runs: &mut Runs, write: bool) -> Result<Vec<String>, charisma::Error> {
    let plan = format!("{:#?}\n", chaos_plan());
    let mut complaints = pin("fault_plan_chaos.txt", &plan, "chaos", write);
    complaints.extend(check_runs_agree(runs, Config::Chaos)?);
    let metrics = &runs.get(Config::Chaos, 1)?.metrics;
    complaints.extend(require_engaged(metrics, &CHAOS_ENGAGED));
    let core = metrics.to_core_json();
    complaints.extend(pin("metrics_snapshot_chaos.json", &core, "chaos", write));
    complaints.extend(check_archive_chaos(runs)?);
    Ok(complaints)
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
const ARCHIVE_ENGAGED: [&str; 2] = ["store.scrub.segments_checked", "store.scrub.repaired"];

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

/// The self-healing drill over one archive: place its segments on
/// replicated I/O nodes by `seed`, inject deterministic replica damage
/// (`corrupt_ppm` byte flips, `loss_ppm` lost copies), and require the
/// healing loop to close — degraded reads fail over to the canonical
/// bytes, scrub repairs every damaged replica, and the healed set reads
/// clean with no failovers left.
///
/// Returns the damage done and the drill's `store.scrub.*` metrics, for
/// the caller to check and merge.
pub fn archive_fault_drill(
    bytes: &[u8],
    seed: u64,
    corrupt_ppm: u32,
    loss_ppm: u32,
) -> Result<(InjectReport, MetricsSnapshot), StoreError> {
    let archive = Archive::from_bytes(bytes.to_vec())?;
    let registry = MetricsRegistry::new();
    let mut set = ReplicaSet::place(archive.reader(), ReplicaConfig::default(), seed);
    set.attach_metrics(StoreMetrics::register(&registry));
    let injected = set.inject_faults(corrupt_ppm, loss_ppm);
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
    Ok((injected, registry.snapshot()))
}

/// The archive-fault half of the chaos gate, over the serial chaos run's
/// stream archived with [`write_archive`]. The chaos runs already agree
/// on that stream at every worker count and on a repeat, so its archive
/// bytes do too. This holds the self-healing layer to its contracts:
///
/// 1. **The drill heals, repeatably** — [`archive_fault_drill`] fails
///    over and scrubs byte-exactly, and a second drill over the same
///    bytes damages and repairs exactly what the first did.
/// 2. **Fault activity** — the drill corrupted and lost copies, the scrub
///    counters are live, and scrub repaired exactly the copies that were
///    damaged.
/// 3. **Torn-tail recovery** — truncating the archive mid-final-segment
///    is classified `TornTail`, and recovery yields exactly the sealed
///    prefix of the merged stream.
/// 4. **Degraded federation** — a federated query in which one tenant's
///    snapshot is rebuilt through replica failover answers exactly like
///    the healthy federation.
///
/// Returns human-readable complaints; empty means the checks passed.
fn check_archive_chaos(runs: &mut Runs) -> Result<Vec<String>, charisma::Error> {
    let mut complaints = Vec::new();
    let drill_seed = chaos_plan().seed;
    let meta = ArchiveMeta {
        seed: runs.seed,
        scale: runs.scale,
    };
    let out = runs.get(Config::Chaos, 1)?;
    let bytes = write_archive(&out.events, meta);

    // 1. The drill heals (or errs), and heals the same way twice.
    let drill = || archive_fault_drill(&bytes, drill_seed, ARCHIVE_CORRUPT_PPM, REPLICA_LOSS_PPM);
    let (injected, metrics) = drill()?;
    let (again, metrics_again) = drill()?;
    if again != injected || metrics_again.to_core_json() != metrics.to_core_json() {
        complaints.push(format!(
            "the archive drill is not repeatable: {injected:?} then {again:?}"
        ));
    }

    // 2. The archive fault machinery demonstrably engaged, and scrub
    // repaired exactly the copies that were damaged.
    if injected.corrupted == 0 || injected.lost == 0 {
        complaints.push(format!(
            "the archive drill must both corrupt and lose copies: {injected:?}"
        ));
    }
    complaints.extend(require_engaged(&metrics, &ARCHIVE_ENGAGED));
    let damaged = injected.corrupted + injected.lost;
    let repaired = metrics
        .counters
        .get("store.scrub.repaired")
        .copied()
        .unwrap_or(0);
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
        seed: meta.seed,
        scale: meta.scale,
        tenants: 2,
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
        ReplicaSet::place(snapshots[1].reader(), ReplicaConfig::default(), drill_seed);
    degraded.inject_faults(ARCHIVE_CORRUPT_PPM, REPLICA_LOSS_PPM);
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
