//! The policy engine: classify → re-replicate → parity-protect → serve.
//!
//! [`TieredSet::build`] turns an archive catalog, an access ledger, and
//! a [`TierPlan`] into a tiered replica layout:
//!
//! 1. every segment's demand is computed from the ledger and classified
//!    ([`classify`](crate::classify()));
//! 2. the catalog is placed as a [`ReplicaSet`] at the plan's baseline
//!    factor (the `FaultRng` placement hash — layout is a pure function
//!    of seed + access history);
//! 3. Hot segments are raised to `hot_factor` copies, Cold ones dropped
//!    to a single copy, and the cold population is chunked in ascending
//!    segment order into XOR [`ParityGroup`]s of `parity_k` members.
//!
//! Reads go through [`TieredSet::degraded_reader`]: the replica layer's
//! failover (any live verifying copy, hot segments having the most to
//! choose from) with parity reconstruction as the last resort for cold
//! segments, so a single cold loss still serves the canonical bytes.
//! [`TieredSet::heal`] writes parity rebuilds back and scrubs, restoring
//! the set to full health.
//!
//! Tiering is **layout, not format**: nothing here changes a segment's
//! bytes, so the canonical archive serialization (and its checked-in
//! hash fixture) is untouched by any plan.

use std::collections::BTreeMap;

use charisma_store::{
    ArchiveReader, FailoverReport, ParityGroup, ReplicaConfig, ReplicaSet, ScrubReport,
    SegmentAccess, StoreError,
};

use crate::classify::{classify, demand, Tier};
use crate::metrics::TierMetrics;
use crate::plan::{TierPlan, TierReport};

/// What a [`TieredSet::heal`] pass did: parity rebuilds first, then the
/// replica layer's scrub.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealReport {
    /// Segments restored from parity (no live verifying copy remained).
    pub parity_rebuilds: u64,
    /// The scrub pass that followed.
    pub scrub: ScrubReport,
}

impl HealReport {
    /// True when the set is fully healthy after the pass.
    pub fn healthy(&self) -> bool {
        self.scrub.healthy()
    }
}

/// A replica set shaped by a tiering policy run, plus the parity groups
/// protecting its cold segments.
#[derive(Clone, Debug)]
pub struct TieredSet {
    set: ReplicaSet,
    assignments: Vec<Tier>,
    parity: Vec<ParityGroup>,
    report: TierReport,
    metrics: Option<TierMetrics>,
}

impl TieredSet {
    /// Run the policy: classify `reader`'s segments from `ledger` (a
    /// [`snapshot`](charisma_store::AccessLedger::snapshot) of the
    /// per-segment access history) and build the tiered layout under
    /// `plan`. Deterministic: same catalog + ledger + plan ⇒ the same
    /// assignments, placements, and parity bytes, on any machine.
    pub fn build(
        reader: &ArchiveReader,
        ledger: &BTreeMap<u64, SegmentAccess>,
        plan: &TierPlan,
    ) -> TieredSet {
        Self::build_inner(reader, ledger, plan, None)
    }

    /// [`TieredSet::build`], reporting through `metrics` (classification
    /// counts now, parity rebuilds as reads and heals happen).
    pub fn build_with_metrics(
        reader: &ArchiveReader,
        ledger: &BTreeMap<u64, SegmentAccess>,
        plan: &TierPlan,
        metrics: TierMetrics,
    ) -> TieredSet {
        Self::build_inner(reader, ledger, plan, Some(metrics))
    }

    fn build_inner(
        reader: &ArchiveReader,
        ledger: &BTreeMap<u64, SegmentAccess>,
        plan: &TierPlan,
        metrics: Option<TierMetrics>,
    ) -> TieredSet {
        let demands: Vec<u64> = (0..reader.segment_count())
            .map(|s| ledger.get(&(s as u64)).map_or(0, demand))
            .collect();
        let assignments = classify(&demands, plan.hot_weight, plan.cold_weight);

        let mut set = ReplicaSet::place(
            reader,
            ReplicaConfig {
                nodes: plan.nodes,
                factor: plan.base_factor,
            },
            plan.seed,
        );
        let base = u64::from(set.config().factor);

        let mut report = TierReport {
            segments: assignments.len() as u64,
            assignments: assignments.clone(),
            ..TierReport::default()
        };
        let mut cold_segments: Vec<usize> = Vec::new();
        for (s, tier) in assignments.iter().enumerate() {
            match tier {
                Tier::Hot => {
                    report.hot += 1;
                    set.set_replica_factor(s, plan.hot_factor);
                    let now = set.replica_factor(s) as u64;
                    if now > base {
                        report.promotions += 1;
                        report.replicas_added += now - base;
                    }
                }
                Tier::Warm => report.warm += 1,
                Tier::Cold => {
                    report.cold += 1;
                    cold_segments.push(s);
                    set.set_replica_factor(s, 1);
                    let now = set.replica_factor(s) as u64;
                    if now < base {
                        report.demotions += 1;
                        report.replicas_dropped += base - now;
                    }
                }
            }
        }

        // Parity over the cold population: ascending segment order,
        // chunks of parity_k — a deterministic grouping for any ledger.
        let k = usize::try_from(plan.parity_k).unwrap_or(1).max(1);
        let mut parity = Vec::new();
        for chunk in cold_segments.chunks(k) {
            let members: Vec<(u64, &[u8])> = chunk
                .iter()
                .filter_map(|&s| set.segment_bytes(s).map(|bytes| (s as u64, bytes)))
                .collect();
            if let Some(group) = ParityGroup::build(&members) {
                report.parity_groups += 1;
                report.parity_bytes += group.parity_bytes() as u64;
                parity.push(group);
            }
        }

        if let Some(m) = &metrics {
            m.segments_classified.add(report.segments);
            m.hot.add(report.hot);
            m.warm.add(report.warm);
            m.cold.add(report.cold);
            m.promotions.add(report.promotions);
            m.demotions.add(report.demotions);
            m.replicas_added.add(report.replicas_added);
            m.replicas_dropped.add(report.replicas_dropped);
            m.parity_groups.add(report.parity_groups);
        }

        TieredSet {
            set,
            assignments,
            parity,
            report,
            metrics,
        }
    }

    /// The underlying replica set (placements, live-copy counts).
    pub fn replica_set(&self) -> &ReplicaSet {
        &self.set
    }

    /// Mutable access to the replica set — the fault-injection surface
    /// (`corrupt_byte`, `lose_replica`, `inject_faults`) for drills.
    pub fn replica_set_mut(&mut self) -> &mut ReplicaSet {
        &mut self.set
    }

    /// Per-segment tier assignment, in catalog order.
    pub fn assignments(&self) -> &[Tier] {
        &self.assignments
    }

    /// The parity groups protecting the cold segments.
    pub fn parity_groups(&self) -> &[ParityGroup] {
        &self.parity
    }

    /// What the policy run decided.
    pub fn report(&self) -> &TierReport {
        &self.report
    }

    /// Rebuild one segment's canonical bytes from its parity group, if
    /// it has one and every other member still serves verifying bytes.
    fn rebuild_from_parity(&self, segment: u64) -> Option<Vec<u8>> {
        let group = self.parity.iter().find(|g| g.covers(segment))?;
        let survivors: Vec<(u64, &[u8])> = group
            .members()
            .iter()
            .filter(|&&m| m != segment)
            .map(|&m| {
                self.set
                    .segment_bytes(usize::try_from(m).unwrap_or(usize::MAX))
                    .map(|bytes| (m, bytes))
            })
            .collect::<Option<_>>()?;
        let rebuilt = group.reconstruct(segment, &survivors)?;
        if let Some(m) = &self.metrics {
            m.parity_rebuilds.inc();
        }
        Some(rebuilt)
    }

    /// A reader over the tiered set as it stands: replica failover first
    /// (any live verifying copy — hot segments have the most), parity
    /// reconstruction as the last resort for cold segments. A degraded
    /// set serves every query bit-identically to a healthy one while
    /// each segment keeps a live copy *or* a rebuildable parity group.
    pub fn degraded_reader(&self) -> Result<(ArchiveReader, FailoverReport), StoreError> {
        self.set
            .failover_reader_with(|segment| self.rebuild_from_parity(segment))
    }

    /// Heal in place: restore every segment with no live verifying copy
    /// from its parity group, then run the replica layer's scrub to
    /// repair remaining divergent copies byte-identically.
    pub fn heal(&mut self) -> HealReport {
        let mut report = HealReport::default();
        for s in 0..self.set.segment_count() {
            if self.set.segment_bytes(s).is_none() {
                if let Some(bytes) = self.rebuild_from_parity(s as u64) {
                    if self.set.restore_segment(s, &bytes) {
                        report.parity_rebuilds += 1;
                    }
                }
            }
        }
        report.scrub = self.set.scrub();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_ipsc::SimTime;
    use charisma_store::{write_archive, Archive, ArchiveMeta, Query, StoreMetrics};
    use charisma_trace::record::EventBody;
    use charisma_trace::OrderedEvent;

    fn stream(n: u64) -> Vec<OrderedEvent> {
        (0..n)
            .map(|i| OrderedEvent {
                time: SimTime::from_micros(i * 2),
                node: (i % 16) as u16,
                body: EventBody::Read {
                    session: (i % 8) as u32,
                    offset: i * 256,
                    bytes: 256,
                },
            })
            .collect()
    }

    /// A 5-segment archive plus a skewed ledger: segment 0 scanned by
    /// everyone repeatedly, segment 1 moderately, the tail never.
    fn tiered_fixture() -> (Archive, BTreeMap<u64, SegmentAccess>, Vec<u8>) {
        let bytes = write_archive(
            &stream(18_000),
            ArchiveMeta {
                seed: 7,
                scale: 1.0,
            },
        );
        let archive = Archive::from_bytes(bytes.clone()).expect("parses");
        assert_eq!(archive.reader().segment_count(), 5);
        let registry = charisma_obs::MetricsRegistry::new();
        let metrics = StoreMetrics::register(&registry);
        let window = |to: u64| Query::all().time_window(SimTime::ZERO, SimTime::from_micros(to));
        for _ in 0..6 {
            archive
                .query(window(3000))
                .attach_metrics(metrics.clone())
                .events()
                .expect("scans");
        }
        archive
            .query(window(9000).nodes(&[1, 2, 3]))
            .attach_metrics(metrics.clone())
            .events()
            .expect("scans");
        (archive, metrics.access.snapshot(), bytes)
    }

    #[test]
    fn policy_promotes_demotes_and_protects_deterministically() {
        let (archive, ledger, bytes) = tiered_fixture();
        let plan = TierPlan::default();
        let tiered = TieredSet::build(archive.reader(), &ledger, &plan);
        let report = tiered.report();
        assert_eq!(report.segments, 5);
        assert_eq!(report.assignments[0], Tier::Hot, "6x-scanned head");
        assert!(report.cold >= 2, "never-scanned tail is cold");
        assert_eq!(report.hot + report.warm + report.cold, 5);
        assert_eq!(report.promotions, report.hot);
        assert_eq!(report.demotions, report.cold);
        assert!(report.parity_groups >= 1);
        // Hot segments carry hot_factor copies, cold exactly one.
        for (s, tier) in tiered.assignments().iter().enumerate() {
            let want = match tier {
                Tier::Hot => plan.hot_factor as usize,
                Tier::Warm => plan.base_factor as usize,
                Tier::Cold => 1,
            };
            assert_eq!(tiered.replica_set().replica_factor(s), want, "segment {s}");
        }
        // Deterministic: a second run reports the same layout.
        let again = TieredSet::build(archive.reader(), &ledger, &plan);
        assert_eq!(again.report(), report);
        // Tiering is layout, not format.
        let (reader, failovers) = tiered.replica_set().failover_reader().expect("reads");
        assert_eq!(failovers, 0);
        assert_eq!(reader.to_bytes(), bytes);
    }

    #[test]
    fn single_cold_loss_reads_through_parity_and_heals() {
        let (archive, ledger, bytes) = tiered_fixture();
        let mut tiered = TieredSet::build(archive.reader(), &ledger, &TierPlan::default());
        let cold = tiered
            .assignments()
            .iter()
            .position(|&t| t == Tier::Cold)
            .expect("has a cold segment");
        // Lose the cold segment's only copy.
        assert!(tiered.replica_set_mut().lose_replica(cold, 0));
        assert_eq!(tiered.replica_set().live_replicas(cold), 0);
        let (reader, report) = tiered.degraded_reader().expect("parity serves");
        assert_eq!(report.reconstructed, 1);
        assert_eq!(reader.to_bytes(), bytes, "degraded ≡ clean");
        // Heal writes the rebuild back; the set reads cleanly again.
        let heal = tiered.heal();
        assert_eq!(heal.parity_rebuilds, 1);
        assert!(heal.healthy());
        let (reader, failovers) = tiered.replica_set().failover_reader().expect("healed");
        assert_eq!(failovers, 0);
        assert_eq!(reader.to_bytes(), bytes);
    }

    #[test]
    fn losing_two_members_of_one_group_is_beyond_parity() {
        let (archive, ledger, _) = tiered_fixture();
        let mut tiered = TieredSet::build(archive.reader(), &ledger, &TierPlan::default());
        let group = tiered.parity_groups().first().expect("has a group").clone();
        if group.members().len() < 2 {
            return; // singleton group: parity alone rebuilds it, nothing to test
        }
        for &m in &group.members()[..2] {
            assert!(tiered
                .replica_set_mut()
                .lose_replica(usize::try_from(m).expect("fits"), 0));
        }
        let err = tiered.degraded_reader().expect_err("double loss");
        assert!(matches!(err, StoreError::CorruptSegment { .. }));
        let heal = tiered.heal();
        assert!(!heal.healthy(), "scrub reports the unrecoverable members");
    }

    #[test]
    fn empty_ledger_demotes_everything_and_metrics_account() {
        let (archive, _, bytes) = tiered_fixture();
        let registry = charisma_obs::MetricsRegistry::new();
        let mut tiered = TieredSet::build_with_metrics(
            archive.reader(),
            &BTreeMap::new(),
            &TierPlan::default(),
            TierMetrics::register(&registry),
        );
        assert_eq!(tiered.report().cold, 5, "no access history: all cold");
        assert_eq!(tiered.report().parity_groups, 2, "5 cold / k=4");
        // Every cold segment, lost alone, still reads back exactly.
        for s in 0..5usize {
            let mut probe = tiered.clone();
            assert!(probe.replica_set_mut().lose_replica(s, 0));
            let (reader, report) = probe.degraded_reader().expect("parity serves");
            assert_eq!(report.reconstructed, 1);
            assert_eq!(reader.to_bytes(), bytes, "segment {s}");
        }
        tiered.replica_set_mut().lose_replica(0, 0);
        tiered.heal();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["tier.segments_classified"], 5);
        assert_eq!(snap.counters["tier.cold"], 5);
        assert_eq!(snap.counters["tier.replicas_dropped"], 5, "2 → 1 each");
        assert_eq!(snap.counters["tier.parity_groups"], 2);
        // Clones share counter handles: five probe reads + one heal.
        assert_eq!(snap.counters["tier.parity_rebuilds"], 6);
    }
}
