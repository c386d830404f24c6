//! Replicated segment placement, scrub/repair, and failover reads.
//!
//! A [`ReplicaSet`] spreads a sealed catalog across R simulated I/O
//! nodes, the way the paper's NAS striped files across its I/O servers:
//! each segment's *home* node is a pure placement hash of `(seed,
//! segment_id)` — the same [`FaultRng`] discipline the chaos layer uses,
//! so placement is a function of the plan, never of scheduling — and its
//! R copies land on consecutive nodes from the home. On top of that sit
//! the three durability verbs:
//!
//! * **Inject** ([`ReplicaSet::inject_faults`]): deterministic byte flips
//!   and replica losses keyed on `(seed, segment, replica)` at the
//!   caller's rates, under the fault layer's archive domains.
//! * **Scrub** ([`ReplicaSet::scrub`]): walk every copy of every segment,
//!   verify its trailing checksum, and repair corrupt/missing/drifted
//!   copies byte-identically from the lowest-index verifying replica.
//! * **Fail over** ([`ReplicaSet::failover_reader`]): build an
//!   [`ArchiveReader`] from the first live, verifying copy of each
//!   segment — a degraded set still serves every query bit-identically
//!   to a clean one while at least one good copy of each segment lives.
//!
//! Replicas share the reader's immutable segment [`Bytes`]; growth,
//! repair and failover share a verified copy's buffer. Only damage makes
//! a copy (copy-on-write), so siblings and the reader never see a flip.
//!
//! Everything here is deterministic: same seed, same catalog, same plan
//! rates ⇒ same placements, same injected damage, same scrub report, same
//! failover choices, on any machine.

use bytes::Bytes;
use charisma_ipsc::faults::domain;
use charisma_ipsc::FaultRng;

use crate::archive::ArchiveMeta;
use crate::integrity::verify_blob;
use crate::metrics::StoreMetrics;
use crate::sealed::{ArchiveReader, SealedSegment};
use crate::segment::ZoneMap;
use crate::StoreError;

/// Domain separator for the placement hash. Lives outside the chaos
/// domains (`0x01..=0x0d`): placement is topology, not a fault, and must
/// not shift when fault domains are added.
const PLACEMENT: u64 = 0x30;

/// Extra id element distinguishing the "which byte" draw from the
/// "does it corrupt" draw within [`domain::ARCHIVE_CORRUPT`].
const OFFSET_DRAW: u64 = 1;

/// How a [`ReplicaSet`] is shaped: the simulated I/O-node pool and the
/// replication factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Simulated I/O nodes available for placement.
    pub nodes: u32,
    /// Copies of each segment (capped at `nodes`).
    pub factor: u32,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        // Eight I/O nodes, triplicated segments: the smallest shape where
        // placement spreads, a node loss degrades rather than kills, and
        // scrub still has two independent sources for any single fault.
        ReplicaConfig {
            nodes: 8,
            factor: 3,
        }
    }
}

/// One segment's replicated state: the zone map it was sealed with, the
/// I/O node of each copy, and the copies themselves (`None` = lost with
/// its node). Copies share buffers; damage gives a slot its own.
#[derive(Clone, Debug)]
struct SegmentReplicas {
    zone: ZoneMap,
    nodes: Vec<u32>,
    copies: Vec<Option<Bytes>>,
}

impl SegmentReplicas {
    /// The lowest-index live verifying copy: the scrub, growth and read
    /// source.
    fn source(&self) -> Option<&Bytes> {
        self.copies
            .iter()
            .flatten()
            .find(|bytes| verify_blob(bytes))
    }
}

/// What [`ReplicaSet::inject_faults`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectReport {
    /// Replica copies that received a byte flip.
    pub corrupted: u64,
    /// Replica copies dropped entirely.
    pub lost: u64,
}

/// What a [`ReplicaSet::scrub`] pass found and fixed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Segments walked (every scrub walks the whole catalog).
    pub segments_checked: u64,
    /// Copies whose trailing checksum did not verify.
    pub corrupt_replicas: u64,
    /// Copies missing outright (lost I/O node).
    pub missing_replicas: u64,
    /// Copies rewritten byte-identically from a verifying replica.
    pub repaired: u64,
    /// Segments with no verifying copy left — data loss, listed by
    /// catalog index in ascending order.
    pub unrecoverable: Vec<u64>,
}

impl ScrubReport {
    /// True when the set is fully healthy after the pass: nothing was
    /// unrecoverable, so every segment again has `factor` good copies.
    pub fn healthy(&self) -> bool {
        self.unrecoverable.is_empty()
    }
}

/// What a [`ReplicaSet::failover_reader_with`] pass routed around.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailoverReport {
    /// Copies skipped as lost or corrupt before a segment was served.
    pub failovers: u64,
    /// Segments served from the recovery hook (no live copy verified) —
    /// for a tiered set, parity rebuilds.
    pub reconstructed: u64,
}

/// A sealed catalog spread over simulated I/O nodes.
///
/// Construction shares each segment's canonical bytes with the reader:
/// every replica is a reference-counted handle, not a copy. Replicas stay
/// independently damageable because damage is copy-on-write — only the
/// corrupted slot gets its own buffer. All mutation is through the
/// fault-injection and scrub verbs; query access goes through
/// [`ReplicaSet::failover_reader`].
#[derive(Clone, Debug)]
pub struct ReplicaSet {
    meta: ArchiveMeta,
    seed: u64,
    config: ReplicaConfig,
    segments: Vec<SegmentReplicas>,
    metrics: Option<StoreMetrics>,
}

impl ReplicaSet {
    /// Place every segment of `reader` on `config.factor` of
    /// `config.nodes` simulated I/O nodes. The home node of segment `s`
    /// is `hash(seed, s) % nodes`; copies go on consecutive nodes from
    /// the home, so a single node loss costs each affected segment one
    /// replica, never all of them (for `factor <= nodes`).
    pub fn place(reader: &ArchiveReader, config: ReplicaConfig, seed: u64) -> ReplicaSet {
        let nodes = config.nodes.max(1);
        let factor = config.factor.clamp(1, nodes);
        let config = ReplicaConfig { nodes, factor };
        let rng = FaultRng::new(seed);
        let segments = reader
            .segments()
            .iter()
            .enumerate()
            .map(|(s, seg)| {
                let home = rng.bounded(u64::from(nodes) - 1, PLACEMENT, &[s as u64]);
                // The modulo keeps the value below `nodes: u32`, so the
                // conversion cannot lose bits — try_from keeps that checked.
                let nodes_of =
                    |r: u32| u32::try_from((home + u64::from(r)) % u64::from(nodes)).unwrap_or(0);
                SegmentReplicas {
                    zone: *seg.zone(),
                    nodes: (0..factor).map(nodes_of).collect(),
                    copies: vec![Some(seg.bytes().clone()); factor as usize],
                }
            })
            .collect();
        ReplicaSet {
            meta: reader.meta(),
            seed,
            config,
            segments,
            metrics: None,
        }
    }

    /// Report scrub and failover activity through `metrics` from now on.
    pub fn attach_metrics(&mut self, metrics: StoreMetrics) {
        self.metrics = Some(metrics);
    }

    /// The shape this set was placed with (after clamping).
    pub fn config(&self) -> ReplicaConfig {
        self.config
    }

    /// Segments in the replicated catalog.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The I/O node hosting each replica of segment `segment`, in
    /// replica-slot order.
    pub fn replica_nodes(&self, segment: usize) -> &[u32] {
        self.segments
            .get(segment)
            .map(|s| s.nodes.as_slice())
            .unwrap_or(&[])
    }

    /// Live (not lost) copies of segment `segment`.
    pub fn live_replicas(&self, segment: usize) -> usize {
        self.segments
            .get(segment)
            .map(|s| s.copies.iter().filter(|c| c.is_some()).count())
            .unwrap_or(0)
    }

    /// Replica slots currently allocated to segment `segment` (its
    /// per-segment factor after any tiering adjustment; 0 = out of range).
    pub fn replica_factor(&self, segment: usize) -> usize {
        self.segments
            .get(segment)
            .map(|s| s.copies.len())
            .unwrap_or(0)
    }

    /// Re-shape one segment to `factor` copies (clamped to `1..=nodes`),
    /// keeping its placement a pure function of the original home node:
    /// copies always occupy the consecutive run of nodes starting at the
    /// segment's placement-hash home, so the layout after any sequence of
    /// factor changes is a function of seed + the final factor alone.
    ///
    /// Growing shares the lowest-index live verifying copy into the new
    /// slots (the scrub source rule); shrinking drops the highest slots.
    /// Returns `false` — and changes nothing — when `segment` is out of
    /// range or growth finds no verifying copy to clone from.
    pub fn set_replica_factor(&mut self, segment: usize, factor: u32) -> bool {
        let nodes = self.config.nodes;
        let factor = factor.clamp(1, nodes) as usize;
        let Some(seg) = self.segments.get_mut(segment) else {
            return false;
        };
        let current = seg.copies.len();
        if factor == current {
            return true;
        }
        if factor < current {
            seg.copies.truncate(factor);
            seg.nodes.truncate(factor);
            return true;
        }
        let Some(source) = seg.source().cloned() else {
            return false;
        };
        let home = u64::from(seg.nodes.first().copied().unwrap_or(0));
        // Same consecutive-from-home rule as `place`; the modulo keeps the
        // value below `nodes: u32`, so try_from keeps it checked.
        let node_of = |r: usize| u32::try_from((home + r as u64) % u64::from(nodes)).unwrap_or(0);
        seg.nodes.extend((current..factor).map(node_of));
        seg.copies.resize(factor, Some(source));
        true
    }

    /// The first live, verifying copy of segment `segment` — the same
    /// copy a failover read would serve — or `None` if no copy verifies.
    pub fn segment_bytes(&self, segment: usize) -> Option<&[u8]> {
        self.segments
            .get(segment)
            .and_then(SegmentReplicas::source)
            .map(Bytes::as_ref)
    }

    /// Overwrite every copy of segment `segment` with `bytes` — the heal
    /// path for an externally reconstructed segment (parity rebuild). The
    /// bytes are copied once and shared by every slot.
    /// Refuses (`false`, untouched) when the segment is out of range or
    /// `bytes` fails trailing-checksum verification: a bad rebuild must
    /// never become the canonical copy.
    pub fn restore_segment(&mut self, segment: usize, bytes: &[u8]) -> bool {
        if !verify_blob(bytes) {
            return false;
        }
        let Some(seg) = self.segments.get_mut(segment) else {
            return false;
        };
        let shared = Bytes::copy_from_slice(bytes);
        seg.copies.fill(Some(shared));
        true
    }

    /// XOR `mask` into byte `offset` of one replica's copy. Copy-on-write:
    /// the damaged slot gets a private buffer, so the reader and every
    /// sibling copy keep their bytes. Returns `false` (and does nothing)
    /// for a zero mask, a lost replica, or an out-of-range target — so
    /// proptests can aim anywhere safely.
    pub fn corrupt_byte(
        &mut self,
        segment: usize,
        replica: usize,
        offset: usize,
        mask: u8,
    ) -> bool {
        let Some(copy) = self
            .segments
            .get_mut(segment)
            .and_then(|s| s.copies.get_mut(replica))
            .and_then(Option::as_mut)
            .filter(|copy| mask != 0 && offset < copy.len())
        else {
            return false;
        };
        let mut damaged = copy.to_vec();
        damaged[offset] ^= mask;
        *copy = Bytes::from(damaged);
        true
    }

    /// Drop one replica's copy (its I/O node died). Returns `false` if it
    /// was already lost or out of range.
    pub fn lose_replica(&mut self, segment: usize, replica: usize) -> bool {
        let Some(slot) = self
            .segments
            .get_mut(segment)
            .and_then(|s| s.copies.get_mut(replica))
        else {
            return false;
        };
        slot.take().is_some()
    }

    /// Inject archive faults: for every `(segment,
    /// replica)` slot, decide loss first (`loss_ppm` under
    /// [`domain::REPLICA_LOSS`]), else a single byte flip
    /// (`corrupt_ppm` under [`domain::ARCHIVE_CORRUPT`], with the
    /// flipped offset a second draw in the same domain). Decisions are
    /// pure hashes of `(seed, segment, replica)`: re-running the same
    /// rates against the same catalog damages exactly the same bytes.
    pub fn inject_faults(&mut self, corrupt_ppm: u32, loss_ppm: u32) -> InjectReport {
        let rng = FaultRng::new(self.seed);
        let mut report = InjectReport::default();
        for seg in 0..self.segments.len() {
            for rep in 0..self.segments[seg].copies.len() {
                let ids = [seg as u64, rep as u64];
                if rng.chance(loss_ppm, domain::REPLICA_LOSS, &ids) {
                    if self.lose_replica(seg, rep) {
                        report.lost += 1;
                    }
                } else if rng.chance(corrupt_ppm, domain::ARCHIVE_CORRUPT, &ids) {
                    let len = self.segments[seg].copies[rep]
                        .as_ref()
                        .map_or(0, Bytes::len);
                    if len > 0 {
                        let offset = rng.bounded(
                            len as u64 - 1,
                            domain::ARCHIVE_CORRUPT,
                            &[seg as u64, rep as u64, OFFSET_DRAW],
                        );
                        // The draw is below `len`; an offset that did not
                        // fit a usize would be refused as out of range.
                        let offset = usize::try_from(offset).unwrap_or(usize::MAX);
                        if self.corrupt_byte(seg, rep, offset, 0xff) {
                            report.corrupted += 1;
                        }
                    }
                }
            }
        }
        report
    }

    /// Walk every copy of every segment, verify trailing checksums, and
    /// repair damage: the *source* for a segment is its lowest-index
    /// verifying copy, and every other copy that is missing, corrupt, or
    /// byte-divergent from the source is rewritten as an exact byte copy.
    /// Segments with no verifying copy are reported unrecoverable and
    /// left untouched. Deterministic: the report and the resulting bytes
    /// are a pure function of the set's state.
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for (seg_idx, seg) in self.segments.iter_mut().enumerate() {
            report.segments_checked += 1;
            let mut source = None;
            for (idx, copy) in seg.copies.iter().enumerate() {
                match copy {
                    None => report.missing_replicas += 1,
                    Some(bytes) if !verify_blob(bytes) => report.corrupt_replicas += 1,
                    Some(_) => {
                        source.get_or_insert(idx);
                    }
                }
            }
            let Some(source) = source else {
                report.unrecoverable.push(seg_idx as u64);
                continue;
            };
            // Compare against the source copy (which is `Some`): O(1) for
            // a copy sharing its buffer; repair shares the source's buffer.
            for idx in 0..seg.copies.len() {
                if idx != source && seg.copies[idx] != seg.copies[source] {
                    seg.copies[idx] = seg.copies[source].clone();
                    report.repaired += 1;
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.scrub_segments_checked.add(report.segments_checked);
            m.scrub_corrupt_replicas.add(report.corrupt_replicas);
            m.scrub_missing_replicas.add(report.missing_replicas);
            m.scrub_repaired.add(report.repaired);
        }
        report
    }

    /// A reader over the first live, verifying copy of each segment —
    /// degraded reads, not dead ones. Returns the reader plus the number
    /// of failovers (copies skipped as lost or corrupt before a good one
    /// was found). When some segment has no good copy at all, fails with
    /// the deterministic lowest-index [`StoreError::CorruptSegment`],
    /// naming the last replica slot inspected.
    pub fn failover_reader(&self) -> Result<(ArchiveReader, u64), StoreError> {
        self.failover_reader_with(|_| None)
            .map(|(reader, report)| (reader, report.failovers))
    }

    /// [`ReplicaSet::failover_reader`] with a last-resort recovery hook:
    /// when a segment has no live verifying copy, `recover(segment)` may
    /// supply reconstructed bytes (for a tiered set, a parity rebuild).
    /// Recovered bytes pass the same trailing-checksum verification as
    /// any replica read — a wrong rebuild is rejected, and the read then
    /// fails with the usual lowest-index [`StoreError::CorruptSegment`].
    pub fn failover_reader_with(
        &self,
        recover: impl Fn(u64) -> Option<Vec<u8>>,
    ) -> Result<(ArchiveReader, FailoverReport), StoreError> {
        let mut segments = Vec::with_capacity(self.segments.len());
        let mut report = FailoverReport::default();
        let mut failures = 0u64;
        let mut dead = None;
        for (seg_idx, seg) in self.segments.iter().enumerate() {
            let mut chosen = None;
            for copy in &seg.copies {
                match copy {
                    Some(bytes) if verify_blob(bytes) => {
                        chosen = Some(bytes.clone());
                        break;
                    }
                    Some(_) => {
                        failures += 1;
                        report.failovers += 1;
                    }
                    None => report.failovers += 1,
                }
            }
            if chosen.is_none() {
                chosen = recover(seg_idx as u64)
                    .filter(|bytes| verify_blob(bytes))
                    .map(Bytes::from);
                report.reconstructed += u64::from(chosen.is_some());
            }
            let Some(bytes) = chosen else {
                dead = Some(StoreError::CorruptSegment {
                    segment: seg_idx as u64,
                    replica: u32::try_from(seg.copies.len().saturating_sub(1)).unwrap_or(u32::MAX),
                });
                break;
            };
            segments.push(SealedSegment::from_parts(bytes, seg.zone));
        }
        if let Some(m) = &self.metrics {
            m.segments_verified.add(segments.len() as u64);
            m.checksum_failures.add(failures);
        }
        match dead {
            Some(err) => Err(err),
            None => Ok((ArchiveReader::new(self.meta, segments), report)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{write_archive, Archive};
    use charisma_ipsc::SimTime;
    use charisma_trace::record::EventBody;
    use charisma_trace::OrderedEvent;

    fn stream(n: u64) -> Vec<OrderedEvent> {
        (0..n)
            .map(|i| OrderedEvent {
                time: SimTime::from_micros(i * 3),
                node: (i % 32) as u16,
                body: EventBody::Write {
                    session: (i % 40) as u32,
                    offset: i * 128,
                    bytes: 128,
                },
            })
            .collect()
    }

    const META: ArchiveMeta = ArchiveMeta {
        seed: 4994,
        scale: 0.05,
    };

    fn replica_set(rows: u64, seed: u64) -> (ReplicaSet, Vec<u8>, Vec<OrderedEvent>) {
        let events = stream(rows);
        let bytes = write_archive(&events, META);
        let archive = Archive::from_bytes(bytes.clone()).expect("parses");
        let set = ReplicaSet::place(archive.reader(), ReplicaConfig::default(), seed);
        (set, bytes, events)
    }

    #[test]
    fn placement_is_deterministic_and_spreads_consecutively() {
        let (a, _, _) = replica_set(10_000, 77);
        let (b, _, _) = replica_set(10_000, 77);
        let (c, _, _) = replica_set(10_000, 78);
        assert_eq!(a.segment_count(), 3);
        let nodes = |s: &ReplicaSet| -> Vec<Vec<u32>> {
            (0..s.segment_count())
                .map(|i| s.replica_nodes(i).to_vec())
                .collect()
        };
        assert_eq!(nodes(&a), nodes(&b), "same seed, same placement");
        assert_ne!(nodes(&a), nodes(&c), "placement is keyed on the seed");
        for seg in 0..a.segment_count() {
            let reps = a.replica_nodes(seg);
            assert_eq!(reps.len(), 3);
            for w in reps.windows(2) {
                assert_eq!(w[1], (w[0] + 1) % a.config().nodes, "consecutive nodes");
            }
        }
    }

    #[test]
    fn clean_set_round_trips_and_scrub_is_a_no_op() {
        let (mut set, bytes, events) = replica_set(5000, 1);
        let (reader, failovers) = set.failover_reader().expect("reads");
        assert_eq!(failovers, 0);
        assert_eq!(reader.to_bytes(), bytes);
        assert_eq!(reader.events().expect("decodes"), events);
        let report = set.scrub();
        assert!(report.healthy());
        assert_eq!(report.segments_checked, 2);
        assert_eq!(report.corrupt_replicas, 0);
        assert_eq!(report.missing_replicas, 0);
        assert_eq!(report.repaired, 0);
    }

    #[test]
    fn failover_skips_damage_and_scrub_repairs_it_byte_identically() {
        let (mut set, bytes, _) = replica_set(10_000, 9);
        // Damage replica 0 of segment 0 (corrupt) and segment 1 (lost);
        // take replica 1 of segment 2 too — still one good copy each.
        assert!(set.corrupt_byte(0, 0, 17, 0x40));
        assert!(set.lose_replica(1, 0));
        assert!(set.corrupt_byte(2, 1, 0, 0x01));
        assert_eq!(set.live_replicas(1), 2);

        let (reader, failovers) = set.failover_reader().expect("degraded reads");
        assert_eq!(failovers, 2, "segments 0 and 1 each skipped one copy");
        assert_eq!(reader.to_bytes(), bytes, "degraded ≡ clean");

        let report = set.scrub();
        assert!(report.healthy());
        assert_eq!(report.segments_checked, 3);
        assert_eq!(report.corrupt_replicas, 2);
        assert_eq!(report.missing_replicas, 1);
        assert_eq!(report.repaired, 3);

        // Healed: no failovers, canonical bytes, and a second scrub finds
        // nothing left to do.
        let (reader, failovers) = set.failover_reader().expect("healed reads");
        assert_eq!(failovers, 0);
        assert_eq!(reader.to_bytes(), bytes);
        let report = set.scrub();
        assert_eq!(report.corrupt_replicas, 0);
        assert_eq!(report.missing_replicas, 0);
        assert_eq!(report.repaired, 0);
    }

    #[test]
    fn a_fully_dead_segment_is_unrecoverable_and_named() {
        let (mut set, _, _) = replica_set(10_000, 2);
        // Kill every copy of segment 1: one loss, two corruptions.
        assert!(set.lose_replica(1, 0));
        assert!(set.corrupt_byte(1, 1, 5, 0xff));
        assert!(set.corrupt_byte(1, 2, 6, 0xff));
        assert_eq!(
            set.scrub().unrecoverable,
            vec![1],
            "only segment 1 is beyond repair"
        );
        let err = set.failover_reader().expect_err("segment 1 has no copy");
        assert!(matches!(
            err,
            StoreError::CorruptSegment {
                segment: 1,
                replica: 2
            }
        ));
    }

    #[test]
    fn injection_is_deterministic_and_scrub_heals_it() {
        let (mut a, bytes, _) = replica_set(10_000, 0xC7A0_5C7A);
        let (mut b, _, _) = replica_set(10_000, 0xC7A0_5C7A);
        // Rates high enough to fire on a 3-segment × 3-replica grid.
        let ra = a.inject_faults(400_000, 200_000);
        let rb = b.inject_faults(400_000, 200_000);
        assert_eq!(ra, rb, "same seed, same damage");
        assert!(ra.corrupted + ra.lost > 0, "rates must fire on 9 slots");
        let sa = a.scrub();
        let sb = b.scrub();
        assert_eq!(sa, sb);
        assert_eq!(sa.corrupt_replicas, ra.corrupted);
        assert_eq!(sa.missing_replicas, ra.lost);
        if sa.healthy() {
            let (reader, _) = a.failover_reader().expect("healed");
            assert_eq!(reader.to_bytes(), bytes);
        }
    }

    #[test]
    fn factor_changes_reshape_one_segment_and_keep_placement_pure() {
        let (mut set, bytes, _) = replica_set(10_000, 77);
        let baseline: Vec<Vec<u32>> = (0..set.segment_count())
            .map(|s| set.replica_nodes(s).to_vec())
            .collect();
        // Promote segment 0 to 5 copies, demote segment 1 to a single one.
        assert!(set.set_replica_factor(0, 5));
        assert!(set.set_replica_factor(1, 1));
        assert_eq!(set.replica_factor(0), 5);
        assert_eq!(set.replica_factor(1), 1);
        assert_eq!(set.replica_factor(2), 3, "untouched segment keeps baseline");
        // Grown placement extends the same consecutive run from the home.
        let nodes = set.config().nodes;
        let grown = set.replica_nodes(0);
        assert_eq!(grown[..3], baseline[0][..]);
        for w in grown.windows(2) {
            assert_eq!(w[1], (w[0] + 1) % nodes);
        }
        assert_eq!(set.replica_nodes(1), &baseline[1][..1]);
        // Layout is a function of seed + final factor: growing back after
        // a demotion reproduces the original placement and bytes.
        assert!(set.set_replica_factor(1, 3));
        assert_eq!(set.replica_nodes(1), &baseline[1][..]);
        let (reader, failovers) = set.failover_reader().expect("reads");
        assert_eq!(failovers, 0);
        assert_eq!(reader.to_bytes(), bytes, "tiering is layout, not format");
        // Out of range refuses; clamping keeps at least one copy.
        assert!(!set.set_replica_factor(99, 2));
        assert!(set.set_replica_factor(2, 0));
        assert_eq!(set.replica_factor(2), 1);
    }

    #[test]
    fn growth_needs_a_verifying_source_copy() {
        let (mut set, _, _) = replica_set(5000, 3);
        assert!(set.set_replica_factor(0, 1));
        assert!(set.corrupt_byte(0, 0, 9, 0x01));
        assert!(
            !set.set_replica_factor(0, 3),
            "no verifying copy to clone from"
        );
        assert_eq!(set.replica_factor(0), 1, "failed growth changes nothing");
    }

    #[test]
    fn restore_heals_all_copies_but_rejects_bad_bytes() {
        let (mut set, _, _) = replica_set(5000, 6);
        let canonical = set.segment_bytes(0).expect("clean copy").to_vec();
        assert!(set.corrupt_byte(0, 0, 4, 0x10));
        assert!(set.lose_replica(0, 1));
        // segment_bytes skips the corrupt primary for the verifying copy.
        assert_eq!(set.segment_bytes(0).expect("survivor"), &canonical[..]);
        let mut garbage = canonical.clone();
        garbage[0] ^= 0xff;
        assert!(
            !set.restore_segment(0, &garbage),
            "unverified rebuild refused"
        );
        assert!(set.restore_segment(0, &canonical));
        assert_eq!(set.live_replicas(0), 3);
        let report = set.scrub();
        assert_eq!(report.repaired, 0, "restore already healed every copy");
        assert!(!set.restore_segment(99, &canonical));
    }

    #[test]
    fn failover_recovery_hook_serves_dead_segments_from_verified_bytes() {
        let (mut set, bytes, _) = replica_set(10_000, 12);
        let canonical = set.segment_bytes(1).expect("clean copy").to_vec();
        for rep in 0..3 {
            assert!(set.lose_replica(1, rep));
        }
        assert!(matches!(
            set.failover_reader(),
            Err(StoreError::CorruptSegment { segment: 1, .. })
        ));
        // A hook returning garbage is rejected, not served.
        let mut garbage = canonical.clone();
        garbage[3] ^= 0x80;
        let err = set
            .failover_reader_with(|_| Some(garbage.clone()))
            .expect_err("bad rebuild rejected");
        assert!(matches!(err, StoreError::CorruptSegment { segment: 1, .. }));
        // A verifying rebuild serves the canonical stream.
        let (reader, report) = set
            .failover_reader_with(|seg| (seg == 1).then(|| canonical.clone()))
            .expect("reconstructed read");
        assert_eq!(report.reconstructed, 1);
        assert_eq!(report.failovers, 3, "all three dead copies were skipped");
        assert_eq!(reader.to_bytes(), bytes, "reconstructed ≡ clean");
    }

    #[test]
    fn scrub_and_failover_report_through_store_metrics() {
        use charisma_obs::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let (mut set, _, _) = replica_set(5000, 4);
        set.attach_metrics(StoreMetrics::register(&registry));
        assert!(set.corrupt_byte(0, 0, 3, 0x02));
        assert!(set.lose_replica(1, 2));
        let (_, failovers) = set.failover_reader().expect("degraded reads");
        assert_eq!(failovers, 1, "segment 0 skipped its corrupt primary");
        set.scrub();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["store.segments_verified"], 2);
        assert_eq!(snap.counters["store.checksum_failures"], 1);
        assert_eq!(snap.counters["store.scrub.segments_checked"], 2);
        assert_eq!(snap.counters["store.scrub.corrupt_replicas"], 1);
        assert_eq!(snap.counters["store.scrub.missing_replicas"], 1);
        assert_eq!(snap.counters["store.scrub.repaired"], 2);
    }
}
