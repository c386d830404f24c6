//! The segment-tiering gate: proof that `charisma-tier` turns access
//! history into storage layout without ever touching the data.
//!
//! The tier layer claims its policy is **deterministic in the access
//! history and lossless under its own demotions**. This gate turns that
//! claim into four checks over one pinned workload and one pinned skewed
//! scan schedule:
//!
//! 1. **Worker invariance** — the schedule replayed with 1, 2, and 4
//!    scan workers must produce identical ledgers, hence identical tier
//!    assignments, replica placements, and parity layouts.
//! 2. **Scan-order invariance** — the schedule replayed in reverse must
//!    classify identically: every ledger merge is commutative, so the
//!    order scans commit in is an execution detail.
//! 3. **Parity exactness** — for *every* cold segment, dropping its
//!    single live copy must read back byte-identically through XOR
//!    parity, and the healed set must scrub clean.
//! 4. **Degraded federation** — a federated query over a tiered,
//!    damaged tenant catalog (one hot replica down, one cold copy gone)
//!    must return exactly the healthy baseline's rows, and the degraded
//!    reader's bytes must still equal the tenant's canonical catalog.

use std::collections::BTreeMap;

use charisma::ipsc::SimTime;
use charisma::obs::{MetricsRegistry, MetricsSnapshot};
use charisma::serve::{Service, ServiceConfig, Snapshot};
use charisma::store::{Archive, Query, SegmentAccess, StoreError, StoreMetrics};
use charisma::tier::{Tier, TierMetrics, TierPlan, TieredSet};

use crate::gates::{Config, Runs};
use crate::serve::{feeds_from, partition};

/// Scan worker counts the invariance matrix covers.
const GATE_WORKERS: &[usize] = &[1, 2, 4];

/// A scan schedule: `(from_ppm, to_ppm, nodes)` time windows over the
/// archive's own time span, optionally restricted to a node set.
type Schedule = [(u64, u64, Option<&'static [u16]>)];

/// The pinned skewed scan schedule of the gate: the head of the trace is
/// scanned repeatedly by every reader class, the first half by narrow
/// node sets, the tail never — the paper's access skew, replayed as
/// queries.
const GATE_SCHEDULE: &Schedule = &[
    (0, 120_000, None),
    (0, 120_000, None),
    (0, 120_000, None),
    (0, 120_000, Some(&[0, 1])),
    (0, 500_000, Some(&[1, 2, 3])),
    (200_000, 450_000, Some(&[2])),
];

/// The schedule [`tier_drill`] replays: the head tenth four times by
/// every reader class, the first half once by nodes 1–3.
const DRILL_SCHEDULE: &Schedule = &[
    (0, 100_000, None),
    (0, 100_000, None),
    (0, 100_000, None),
    (0, 100_000, None),
    (0, 500_000, Some(&[1, 2, 3])),
];

/// Replay `schedule` against `archive` with `workers` scan threads
/// (optionally in reverse order), feeding every scan's access into
/// `metrics`.
fn replay(
    archive: &Archive,
    schedule: &Schedule,
    workers: usize,
    reversed: bool,
    metrics: &StoreMetrics,
) -> Result<(), StoreError> {
    let Some((start, end)) = archive.time_span() else {
        return Ok(());
    };
    let span = end.as_micros().saturating_sub(start.as_micros()).max(1);
    let at = |ppm: u64| SimTime::from_micros(start.as_micros() + span * ppm / 1_000_000);
    let mut order: Vec<_> = schedule.iter().collect();
    if reversed {
        order.reverse();
    }
    for &(from, to, nodes) in order {
        let mut query = Query::all().time_window(at(from), at(to));
        if let Some(nodes) = nodes {
            query = query.nodes(nodes);
        }
        archive
            .query(query)
            .attach_metrics(metrics.clone())
            .workers(workers)
            .events()?;
    }
    Ok(())
}

/// The ledger [`GATE_SCHEDULE`] leaves on `archive` when replayed with
/// `workers` scan threads, optionally in reverse order.
fn ledger_for(
    archive: &Archive,
    workers: usize,
    reversed: bool,
) -> Result<BTreeMap<u64, SegmentAccess>, StoreError> {
    let metrics = StoreMetrics::register(&MetricsRegistry::new());
    replay(archive, GATE_SCHEDULE, workers, reversed, &metrics)?;
    Ok(metrics.access.snapshot())
}

/// The tiering drill over one archive: replay `DRILL_SCHEDULE` to
/// build an access ledger, classify every segment under `plan` and apply
/// the replication policy, then hold the layout to the
/// lossless-degradation bar — drop a cold segment's only copy, read the
/// canonical bytes back through parity, and heal scrub-clean.
///
/// Returns the drill's metrics — the scan-fed `store.*` and
/// `store.access.*` counters and the `tier.*` census — for the caller to
/// merge into the run's. Tiering never changes the archive bytes.
pub fn tier_drill(bytes: &[u8], plan: &TierPlan) -> Result<MetricsSnapshot, StoreError> {
    let archive = Archive::from_bytes(bytes.to_vec())?;
    let registry = MetricsRegistry::new();
    let store_metrics = StoreMetrics::register(&registry);
    replay(&archive, DRILL_SCHEDULE, 1, false, &store_metrics)?;
    let mut tiered = TieredSet::build_with_metrics(
        archive.reader(),
        &store_metrics.access.snapshot(),
        plan,
        TierMetrics::register(&registry),
    );
    // Cold side of the lossless-degradation bar: losing a cold
    // segment's single copy must not cost a byte.
    if let Some(cold) = tiered.assignments().iter().position(|&t| t == Tier::Cold) {
        tiered.replica_set_mut().lose_replica(cold, 0);
    }
    let (degraded, _report) = tiered.degraded_reader()?;
    if degraded.to_bytes() != bytes {
        return Err(StoreError::Corrupt(
            "tiered degraded read diverged from canonical bytes",
        ));
    }
    let heal = tiered.heal();
    if !heal.healthy() {
        return Err(StoreError::CorruptSegment {
            segment: heal.scrub.unrecoverable[0],
            replica: 0,
        });
    }
    let (healed, failovers) = tiered.replica_set().failover_reader()?;
    if failovers != 0 || healed.to_bytes() != bytes {
        return Err(StoreError::Corrupt("tier heal left a replica diverging"));
    }
    Ok(registry.snapshot())
}

/// Per-segment replica placements — the layout fingerprint the
/// invariance check compares.
fn placements(tiered: &TieredSet) -> Vec<Vec<u32>> {
    let set = tiered.replica_set();
    (0..set.segment_count())
        .map(|s| set.replica_nodes(s).to_vec())
        .collect()
}

/// The `tier` gate: worker and scan-order invariance, parity
/// exactness for every cold segment, and degraded federation.
pub(crate) fn check(runs: &mut Runs, _write: bool) -> Result<Vec<String>, charisma::Error> {
    let mut complaints = Vec::new();
    let plan = TierPlan::default();
    let out = runs.get(Config::Clean, 1)?;
    let bytes = out.archive.clone().unwrap_or_default();
    let archive = Archive::from_bytes(bytes.clone())?;

    // 1. Worker invariance: same schedule, 1/2/4 scan workers — same
    // ledger, same assignments, same placements, same parity layout.
    let baseline_ledger = ledger_for(&archive, 1, false)?;
    let baseline = TieredSet::build(archive.reader(), &baseline_ledger, &plan);
    let base_encoding = baseline.report().encode();
    let base_placements = placements(&baseline);
    for &workers in &GATE_WORKERS[1..] {
        let ledger = ledger_for(&archive, workers, false)?;
        if ledger != baseline_ledger {
            complaints.push(format!(
                "access ledger under {workers} scan workers differs from the serial ledger"
            ));
        }
        let tiered = TieredSet::build(archive.reader(), &ledger, &plan);
        if tiered.report().encode() != base_encoding {
            complaints.push(format!(
                "tier report under {workers} scan workers differs from the serial report"
            ));
        }
        if placements(&tiered) != base_placements {
            complaints.push(format!(
                "replica placements under {workers} scan workers differ from the serial layout"
            ));
        }
    }

    // 2. Scan-order invariance: the reversed schedule must classify and
    // place identically (the ledger's scan ticks may differ — they are
    // the one order-dependent field — but the policy never reads them).
    let reversed = TieredSet::build(archive.reader(), &ledger_for(&archive, 2, true)?, &plan);
    if reversed.report().encode() != base_encoding {
        complaints.push(
            "tier report from the reversed scan schedule differs from the forward one".into(),
        );
    }
    if placements(&reversed) != base_placements {
        complaints.push(
            "replica placements from the reversed scan schedule differ from the forward ones"
                .into(),
        );
    }

    // 3. Parity exactness: every single cold-segment loss must read back
    // byte-identically and heal scrub-clean.
    let cold_segments: Vec<usize> = baseline
        .assignments()
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t == Tier::Cold)
        .map(|(s, _)| s)
        .collect();
    let census = baseline.report();
    if census.hot == 0 || census.cold == 0 || census.parity_groups == 0 {
        complaints.push(format!(
            "the pinned skewed schedule must leave hot, cold and parity-protected \
             segments (hot {}, cold {}, parity groups {})",
            census.hot, census.cold, census.parity_groups
        ));
    }
    for &s in &cold_segments {
        let mut damaged = baseline.clone();
        damaged.replica_set_mut().lose_replica(s, 0);
        let (degraded, report) = damaged.degraded_reader()?;
        if report.reconstructed == 0 {
            complaints.push(format!(
                "losing cold segment {s}'s single copy triggered no parity reconstruction"
            ));
        } else if degraded.to_bytes() != bytes {
            complaints.push(format!(
                "parity reconstruction of cold segment {s} diverged from the canonical bytes"
            ));
        }
        let heal = damaged.heal();
        if !heal.healthy() {
            complaints.push(format!(
                "healing after the loss of cold segment {s} left unrecoverable segments"
            ));
        }
    }

    // 4. Degraded federation: a tiered, damaged tenant must federate
    // identically to the healthy baseline.
    let tenants = 2usize;
    let feeds = feeds_from(&partition(&out.events, tenants));
    let service = Service::new(ServiceConfig {
        seed: runs.seed,
        scale: runs.scale,
        tenants,
        ..ServiceConfig::default()
    });
    service.run_ingest(&feeds, 2, 0)?;

    let probe_tenant = tenants - 1;
    let tenant_bytes = service.snapshot(probe_tenant)?.to_bytes();
    let tenant_archive = Archive::from_bytes(tenant_bytes.clone())?;
    let tenant_ledger = ledger_for(&tenant_archive, 2, false)?;
    let mut tiered = TieredSet::build(tenant_archive.reader(), &tenant_ledger, &plan);
    let assignments = tiered.assignments().to_vec();
    if let Some(hot) = assignments.iter().position(|&t| t == Tier::Hot) {
        tiered.replica_set_mut().lose_replica(hot, 0);
    }
    if let Some(cold) = assignments.iter().position(|&t| t == Tier::Cold) {
        tiered.replica_set_mut().lose_replica(cold, 0);
    }
    let (degraded, _) = tiered.degraded_reader()?;
    if degraded.to_bytes() != tenant_bytes {
        complaints.push("degraded tiered tenant catalog diverged from its canonical bytes".into());
    }
    let queries = [Query::all(), Query::all().nodes(&[0, 1, 2, 3, 4, 5, 6, 7])];
    for query in queries {
        let healthy = service.federated(query.clone()).workers(2).events()?;
        let mut snapshots = service.snapshot_all();
        let (patched, _) = tiered.degraded_reader()?;
        snapshots[probe_tenant] = Snapshot::from_reader(probe_tenant, patched);
        let got = service.federated_over(&snapshots, &query, 2)?;
        if got != healthy {
            complaints.push(format!(
                "federated scan over the tiered degraded tenant (query={query:?}) returned \
                 {} rows where the healthy baseline has {}",
                got.len(),
                healthy.len()
            ));
        }
    }

    Ok(complaints)
}
