//! Predicates, zone-map pruning, and the parallel segment scan.
//!
//! A [`Query`] is a conjunction of optional predicates — time window,
//! job set, file set, node set, op class. Running one compiles the
//! predicates twice:
//!
//! 1. **Segment pruning** — [`Query::admits`] asks each zone map whether
//!    any row could match; segments that cannot are skipped without
//!    decoding a byte (`store.segments_pruned`).
//! 2. **Row filtering** — a surviving segment decodes the columns the
//!    predicates name and tests them row by row, then materializes only
//!    the rows that pass; the result equals filtering every record with
//!    [`Query::matches`].
//!
//! Pruning is conservative by construction: `admits` may keep a segment
//!    that holds no matching row, but it never rejects one that does (the
//!    property suite pins `pruned scan ≡ filtered full scan`).
//!
//! The scan parallelizes the way the generator does, through
//! [`charisma_ipsc::par::claim_each`]: `workers` threads under
//! [`std::thread::scope`] claim segment indices from an atomic cursor. One
//! worker runs the same loop inline on the calling thread, with no thread
//! spawned or joined. Matches come back in segment order, so the output —
//! and anything computed from it, the first error included — is
//! byte-identical for every worker count.
//! [`Scan::report`] streams the matches, segment by segment, into a
//! [`ReportBuilder`], yielding the paper's full characterization for any
//! archive subset without re-running the generator.

use charisma_core::report::{Report, ReportBuilder};
use charisma_ipsc::par::claim_each;
use charisma_ipsc::SimTime;
use charisma_trace::record::EventBody;
use charisma_trace::OrderedEvent;

use crate::access::reader_mask;
use crate::metrics::StoreMetrics;
use crate::sealed::ArchiveReader;
use crate::segment::ZoneMap;
use crate::StoreError;

/// The record-type classes a query can select.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Job starts.
    JobStart,
    /// Job ends.
    JobEnd,
    /// Opens.
    Open,
    /// Closes.
    Close,
    /// Read requests.
    Read,
    /// Write requests.
    Write,
    /// Deletions.
    Delete,
}

impl OpClass {
    fn bit(self) -> u8 {
        // Bit `tag - 1`, matching the zone map's op bitset.
        match self {
            OpClass::JobStart => 1 << 0,
            OpClass::JobEnd => 1 << 1,
            OpClass::Open => 1 << 2,
            OpClass::Close => 1 << 3,
            OpClass::Read => 1 << 4,
            OpClass::Write => 1 << 5,
            OpClass::Delete => 1 << 6,
        }
    }
}

/// A set of [`OpClass`]es, stored as the zone map's bitset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct OpSet(u8);

impl OpSet {
    /// The empty set (matches nothing; prefer no op predicate at all for
    /// "everything").
    pub fn empty() -> Self {
        OpSet(0)
    }

    /// This set plus `op`.
    #[must_use]
    pub fn with(self, op: OpClass) -> Self {
        OpSet(self.0 | op.bit())
    }

    /// The I/O request classes: reads and writes.
    pub fn requests() -> Self {
        OpSet::empty().with(OpClass::Read).with(OpClass::Write)
    }

    /// Whether `op` is in the set.
    pub fn contains(self, op: OpClass) -> bool {
        self.0 & op.bit() != 0
    }

    pub(crate) fn intersects_bits(self, bits: u8) -> bool {
        self.0 & bits != 0
    }
}

/// A conjunction of predicates over archived records.
///
/// Every predicate is optional; [`Query::all`] matches everything. The
/// identity predicates are *set-valued* — [`Query::jobs`],
/// [`Query::files`], [`Query::nodes`] each accept a slice and match any
/// member; [`Query::node`] is shorthand for a one-node set. Job and file
/// predicates select records that *name* that identity — job records,
/// opens, and deletes — which is also exactly what the zone maps index;
/// request records tie to jobs only through their session, a join the
/// analyzer (not the store) owns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Query {
    time: Option<(u64, u64)>,
    jobs: Option<Vec<u32>>,
    files: Option<Vec<u32>>,
    nodes: Option<Vec<u16>>,
    ops: Option<OpSet>,
}

impl Query {
    /// The match-everything query.
    pub fn all() -> Self {
        Query::default()
    }

    /// Restrict to records with `from <= time <= to` (inclusive).
    #[must_use]
    pub fn time_window(mut self, from: SimTime, to: SimTime) -> Self {
        self.time = Some((from.as_micros(), to.as_micros()));
        self
    }

    /// Restrict to records naming any job in `jobs`. Replaces any earlier
    /// job predicate; an empty slice matches nothing.
    #[must_use]
    pub fn jobs(mut self, jobs: &[u32]) -> Self {
        self.jobs = Some(jobs.to_vec());
        self
    }

    /// Restrict to records naming any file in `files`. Replaces any
    /// earlier file predicate; an empty slice matches nothing.
    #[must_use]
    pub fn files(mut self, files: &[u32]) -> Self {
        self.files = Some(files.to_vec());
        self
    }

    /// Restrict to records recorded on any node in `nodes`. Replaces any
    /// earlier node predicate; an empty slice matches nothing.
    #[must_use]
    pub fn nodes(mut self, nodes: &[u16]) -> Self {
        self.nodes = Some(nodes.to_vec());
        self
    }

    /// Restrict to records recorded on `node` (single-element [`Query::nodes`]).
    #[must_use]
    pub fn node(self, node: u16) -> Self {
        self.nodes(&[node])
    }

    /// Restrict to the record classes in `ops`.
    #[must_use]
    pub fn ops(mut self, ops: OpSet) -> Self {
        self.ops = Some(ops);
        self
    }

    /// Row-level predicate: does `e` satisfy every restriction?
    pub fn matches(&self, e: &OrderedEvent) -> bool {
        if let Some((from, to)) = self.time {
            let t = e.time.as_micros();
            if t < from || t > to {
                return false;
            }
        }
        if let Some(nodes) = &self.nodes {
            if !nodes.contains(&e.node) {
                return false;
            }
        }
        if let Some(ops) = self.ops {
            if !ops.intersects_bits(1 << (e.body.tag() - 1)) {
                return false;
            }
        }
        if let Some(jobs) = &self.jobs {
            let named = match e.body {
                EventBody::JobStart { job: j, .. }
                | EventBody::JobEnd { job: j }
                | EventBody::Open { job: j, .. }
                | EventBody::Delete { job: j, .. } => jobs.contains(&j),
                _ => false,
            };
            if !named {
                return false;
            }
        }
        if let Some(files) = &self.files {
            let named = match e.body {
                EventBody::Open { file: f, .. } | EventBody::Delete { file: f, .. } => {
                    files.contains(&f)
                }
                _ => false,
            };
            if !named {
                return false;
            }
        }
        true
    }

    /// The time-window predicate, if set (inclusive µs bounds). These
    /// accessors are the scan module's view of the conjunction: one per
    /// predicate, `None` meaning "unrestricted", so the predicate phase
    /// can decode exactly the columns the query references.
    pub(crate) fn time_pred(&self) -> Option<(u64, u64)> {
        self.time
    }

    /// The job-set predicate, if set.
    pub(crate) fn jobs_pred(&self) -> Option<&[u32]> {
        self.jobs.as_deref()
    }

    /// The file-set predicate, if set.
    pub(crate) fn files_pred(&self) -> Option<&[u32]> {
        self.files.as_deref()
    }

    /// The node-set predicate, if set.
    pub(crate) fn nodes_pred(&self) -> Option<&[u16]> {
        self.nodes.as_deref()
    }

    /// The op-class predicate, if set.
    pub(crate) fn ops_pred(&self) -> Option<OpSet> {
        self.ops
    }

    /// Segment-level predicate: could any row under `zone` match? Always
    /// conservative — `true` when unsure, so pruning on it never drops a
    /// matching row. Public so federating layers can account for pruning
    /// across catalogs the same way [`Scan`] does within one.
    pub fn admits(&self, zone: &ZoneMap) -> bool {
        if let Some((from, to)) = self.time {
            if zone.time.max < from || zone.time.min > to {
                return false;
            }
        }
        if let Some(nodes) = &self.nodes {
            if !nodes.iter().any(|&n| zone.node.contains(n)) {
                return false;
            }
        }
        if let Some(ops) = self.ops {
            if !ops.intersects_bits(zone.op_bits) {
                return false;
            }
        }
        if let Some(jobs) = &self.jobs {
            match zone.jobs {
                Some(bounds) if jobs.iter().any(|&j| bounds.contains(j)) => {}
                _ => return false,
            }
        }
        if let Some(files) = &self.files {
            match zone.files {
                Some(bounds) if files.iter().any(|&f| bounds.contains(f)) => {}
                _ => return false,
            }
        }
        true
    }
}

/// A prepared scan: a query bound to an [`ArchiveReader`]'s catalog, plus
/// execution knobs. Obtained from [`ArchiveReader::query`] (or the
/// [`Archive`](crate::Archive) wrapper's `query`).
#[derive(Debug)]
pub struct Scan<'a> {
    reader: &'a ArchiveReader,
    query: Query,
    workers: usize,
    metrics: Option<StoreMetrics>,
}

impl<'a> Scan<'a> {
    pub(crate) fn new(reader: &'a ArchiveReader, query: Query) -> Self {
        Scan {
            reader,
            query,
            workers: 1,
            metrics: None,
        }
    }

    /// Scan with `n` worker threads (default 1; capped at the segment
    /// count; 0 is treated as 1). The result is identical for every `n`.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Report pruning and scan throughput through `metrics`.
    #[must_use]
    pub fn attach_metrics(mut self, metrics: StoreMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The indices of the segments the zone maps admit, in catalog order.
    fn admitted(&self) -> Vec<usize> {
        let segments = self.reader.segments();
        (0..segments.len())
            .filter(|&i| self.query.admits(segments[i].zone()))
            .collect()
    }

    /// Scan the `admitted` segments and hand each one's matches to `sink`,
    /// in segment order.
    ///
    /// The parallel core: workers claim segments from an atomic cursor
    /// and run the predicate-first scan
    /// ([`SealedSegment::select_into`](crate::SealedSegment)) over them —
    /// predicate columns decode and select first, the rest materialize
    /// late for selected rows only. The segments go out in windows of
    /// [`SCAN_WINDOW`] per worker, so at most that many decoded segments
    /// wait for the sink at once; one worker scans and hands over one
    /// segment at a time. The sink may take the events out of the vector
    /// it is given. Once a segment has failed, the sink sees no more,
    /// but every admitted segment is still scanned and counted, and the
    /// lowest-index error is returned whichever worker met it.
    fn scan_segments(
        &self,
        admitted: &[usize],
        mut sink: impl FnMut(&mut Vec<OrderedEvent>),
    ) -> Result<(), StoreError> {
        let segments = self.reader.segments();
        if let Some(m) = &self.metrics {
            m.segments_pruned
                .add((segments.len() - admitted.len()) as u64);
            m.segments_scanned.add(admitted.len() as u64);
        }

        let mut first_error = None;
        let mut rows_scanned = 0u64;
        let mut cols_decoded = 0u64;
        let mut rows_skipped = 0u64;
        let mut failures = 0u64;
        let mut touched: Vec<(u64, u64)> = Vec::with_capacity(admitted.len());
        let window = if self.workers == 1 {
            1
        } else {
            self.workers * SCAN_WINDOW
        };
        for chunk in admitted.chunks(window) {
            let outcomes = claim_each(chunk, self.workers, |_, &seg| {
                let mut events = Vec::new();
                let scan = segments[seg].select_into(&self.query, &mut events);
                (scan, events)
            });
            for (&seg, (outcome, mut events)) in chunk.iter().zip(outcomes) {
                match outcome {
                    Ok(scan) => {
                        rows_scanned += u64::from(segments[seg].rows());
                        cols_decoded += scan.values_decoded;
                        rows_skipped += scan.rows_skipped;
                        touched.push((seg as u64, events.len() as u64));
                        if first_error.is_none() {
                            sink(&mut events);
                        }
                    }
                    Err(e) => {
                        // A checksum mismatch surfaced here knows which
                        // segment it was: name it (replica 0 — a plain
                        // reader holds the only copy).
                        let e = match e {
                            StoreError::ChecksumMismatch => {
                                failures += 1;
                                StoreError::CorruptSegment {
                                    segment: seg as u64,
                                    replica: 0,
                                }
                            }
                            other => other,
                        };
                        first_error.get_or_insert(e);
                    }
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.rows_scanned.add(rows_scanned);
            m.rows_matched
                .add(touched.iter().map(|&(_, matched)| matched).sum());
            m.cols_decoded.add(cols_decoded);
            m.rows_skipped_late.add(rows_skipped);
            m.segments_verified.add(touched.len() as u64);
            m.checksum_failures.add(failures);
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        if let Some(m) = &self.metrics {
            // Feed the access ledger once every segment is scanned: one
            // commutative record per committed scan, so ledger contents
            // never depend on worker count or claim order.
            m.access
                .record_scan(&touched, reader_mask(self.query.nodes_pred()));
            m.access_scans.inc();
            m.access_segments.add(touched.len() as u64);
        }
        Ok(())
    }

    /// Every matching record, in merged stream order, in one vector
    /// reserved up front for every row of the admitted segments that can
    /// still match — under a time window, the rows of the time pages it
    /// meets — then shrunk to what matched.
    pub fn events(&self) -> Result<Vec<OrderedEvent>, StoreError> {
        let admitted = self.admitted();
        let segments = self.reader.segments();
        let time = self.query.time_pred();
        let rows: usize = admitted
            .iter()
            .map(|&seg| segments[seg].candidate_rows(time))
            .sum();
        let mut out = Vec::with_capacity(rows);
        self.scan_segments(&admitted, |events| out.append(events))?;
        out.shrink_to_fit();
        Ok(out)
    }

    /// The paper's full §4 characterization of the matching subset,
    /// streamed segment by segment into the push-based analyzer — no
    /// event vector of the whole subset is ever built.
    pub fn report(&self) -> Result<Report, StoreError> {
        let mut report = ReportBuilder::default();
        self.scan_segments(&self.admitted(), |events| {
            for e in events.iter() {
                report.push(e);
            }
        })?;
        Ok(report.finish())
    }
}

/// Decoded segments a scan holds per worker before handing them on, in
/// segment order. At one worker a scan holds one.
const SCAN_WINDOW: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{write_archive, Archive, ArchiveMeta};
    use charisma_trace::record::AccessKind;

    fn mk(us: u64, node: u16, body: EventBody) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::from_micros(us),
            node,
            body,
        }
    }

    /// A multi-segment stream: 3 jobs' worth of opens/reads/writes spread
    /// over 10k records so segment pruning has something to prune.
    fn stream() -> Vec<OrderedEvent> {
        let mut events = Vec::new();
        for i in 0..10_000u64 {
            let job = (i / 4000) as u32;
            let session = (i / 100) as u32;
            match i % 4 {
                0 => events.push(mk(
                    i,
                    (i % 8) as u16,
                    EventBody::Open {
                        job,
                        file: session,
                        session,
                        mode: 0,
                        access: AccessKind::ReadWrite,
                        created: false,
                    },
                )),
                1 | 2 => events.push(mk(
                    i,
                    (i % 8) as u16,
                    EventBody::Read {
                        session,
                        offset: i * 512,
                        bytes: 512,
                    },
                )),
                _ => events.push(mk(
                    i,
                    (i % 8) as u16,
                    EventBody::Write {
                        session,
                        offset: i * 512,
                        bytes: 1024,
                    },
                )),
            }
        }
        events
    }

    fn archive() -> Archive {
        Archive::from_bytes(write_archive(
            &stream(),
            ArchiveMeta {
                seed: 1,
                scale: 1.0,
            },
        ))
        .expect("parses")
    }

    #[test]
    fn all_query_returns_everything_in_order() {
        let a = archive();
        let events = a.query(Query::all()).workers(4).events().expect("scans");
        assert_eq!(events, stream());
    }

    #[test]
    fn filters_agree_with_a_serial_filter() {
        let a = archive();
        let full = stream();
        let queries = [
            Query::all().time_window(SimTime::from_micros(2000), SimTime::from_micros(4500)),
            Query::all().jobs(&[1]),
            Query::all().files(&[17]),
            Query::all().node(3),
            Query::all().jobs(&[0, 2]),
            Query::all().files(&[17, 83, 999]),
            Query::all().nodes(&[1, 5, 7]),
            Query::all().ops(OpSet::requests()),
            Query::all()
                .time_window(SimTime::from_micros(100), SimTime::from_micros(9000))
                .node(2)
                .ops(OpSet::empty().with(OpClass::Write)),
        ];
        for q in queries {
            let got = a.query(q.clone()).workers(3).events().expect("scans");
            let want: Vec<OrderedEvent> = full.iter().filter(|e| q.matches(e)).copied().collect();
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn worker_count_is_an_execution_detail() {
        let a = archive();
        let q = Query::all().time_window(SimTime::from_micros(1000), SimTime::from_micros(8000));
        let serial = a.query(q.clone()).events().expect("scans");
        for n in [2, 4, 8, 64] {
            assert_eq!(
                a.query(q.clone()).workers(n).events().expect("scans"),
                serial
            );
        }
    }

    #[test]
    fn time_window_prunes_segments() {
        use charisma_obs::MetricsRegistry;
        let a = archive();
        let registry = MetricsRegistry::new();
        let q = Query::all().time_window(SimTime::from_micros(4200), SimTime::from_micros(4500));
        let events = a
            .query(q)
            .attach_metrics(StoreMetrics::register(&registry))
            .events()
            .expect("scans");
        assert_eq!(events.len(), 301);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["store.segments_pruned"], 2,
            "3 segments, 1 admitted"
        );
        assert_eq!(snap.counters["store.segments_scanned"], 1);
        assert_eq!(snap.counters["store.rows_scanned"], 4096);
        assert_eq!(snap.counters["store.rows_matched"], 301);
        // Predicate phase: the time column on the four 128-row time pages
        // holding local rows 104..=404 (512 cells). Late phase: nine
        // columns up to the last selected row (local index 404, so 405
        // cells each).
        assert_eq!(snap.counters["store.cols_decoded"], 4 * 128 + 9 * 405);
        assert_eq!(snap.counters["store.rows_skipped_late"], 4096 - 301);
        // Only the one scanned segment paid for checksum verification;
        // pruned segments are never touched, so never verified.
        assert_eq!(snap.counters["store.segments_verified"], 1);
        assert_eq!(snap.counters["store.checksum_failures"], 0);
    }

    #[test]
    fn scans_feed_the_access_ledger_worker_invariantly() {
        use charisma_obs::MetricsRegistry;
        let a = archive();
        let snapshot_for = |workers: usize| {
            let registry = MetricsRegistry::new();
            let metrics = StoreMetrics::register(&registry);
            // A skewed schedule: the first segment is hot, the tail cold.
            let queries = [
                Query::all().time_window(SimTime::ZERO, SimTime::from_micros(2000)),
                Query::all()
                    .time_window(SimTime::ZERO, SimTime::from_micros(1000))
                    .nodes(&[1, 2]),
                Query::all(),
            ];
            for q in queries {
                a.query(q)
                    .workers(workers)
                    .attach_metrics(metrics.clone())
                    .events()
                    .expect("scans");
            }
            (metrics.access.snapshot(), registry.snapshot())
        };
        let (ledger1, counters1) = snapshot_for(1);
        assert_eq!(counters1.counters["store.access.scans"], 3);
        // Segment 0 admitted by all three scans; later segments only by
        // the unrestricted one.
        assert_eq!(ledger1[&0].scans, 3);
        assert_eq!(ledger1[&1].scans, 1);
        assert_eq!(
            ledger1[&0].readers,
            u64::MAX,
            "an unrestricted scan ORs all bits"
        );
        // The inline one-worker scan and the threaded ones leave the same
        // ledger and the same value in every store counter.
        for workers in [2, 4] {
            let (ledger_n, counters_n) = snapshot_for(workers);
            assert_eq!(ledger_n, ledger1, "workers={workers}");
            assert_eq!(counters_n.counters, counters1.counters, "workers={workers}");
        }
    }

    #[test]
    fn a_corrupt_segment_is_named_by_index_with_the_lowest_winning() {
        use crate::sealed::{ArchiveReader, SealedSegment};
        use bytes::Bytes;
        use charisma_obs::MetricsRegistry;
        let a = archive();
        // Flip one byte inside segments 1 and 2 of the catalog.
        let mut segments = a.reader().segments().to_vec();
        for target in [1usize, 2] {
            let mut blob = segments[target].bytes().as_ref().to_vec();
            blob[10] ^= 0x08;
            let zone = *segments[target].zone();
            segments[target] = SealedSegment::from_parts(Bytes::from(blob), zone);
        }
        let reader = ArchiveReader::new(a.meta(), segments);
        // Inline (one worker) and threaded scans name the same segment,
        // count the same verifications and failures, and feed the access
        // ledger nothing: a failed scan is not a committed one.
        for workers in [1, 2, 4] {
            let registry = MetricsRegistry::new();
            let metrics = StoreMetrics::register(&registry);
            let err = reader
                .query(Query::all())
                .workers(workers)
                .attach_metrics(metrics.clone())
                .events()
                .expect_err("corruption detected");
            assert!(
                matches!(
                    err,
                    StoreError::CorruptSegment {
                        segment: 1,
                        replica: 0
                    }
                ),
                "workers={workers}: {err:?}"
            );
            let snap = registry.snapshot();
            assert_eq!(snap.counters["store.segments_verified"], 1);
            assert_eq!(snap.counters["store.checksum_failures"], 2);
            assert_eq!(snap.counters["store.access.scans"], 0);
            assert!(metrics.access.snapshot().is_empty());
        }
    }

    #[test]
    fn job_and_file_pruning_respects_presence() {
        let a = archive();
        // Job 2 only appears in the last 2000 records (one tail segment).
        let q = Query::all()
            .jobs(&[2])
            .ops(OpSet::empty().with(OpClass::Open));
        let got = a.query(q).events().expect("scans");
        assert!(!got.is_empty());
        assert!(got
            .iter()
            .all(|e| matches!(e.body, EventBody::Open { job: 2, .. })));
        // A job id no record names matches nothing.
        assert!(a
            .query(Query::all().jobs(&[999]))
            .events()
            .expect("scans")
            .is_empty());
    }

    #[test]
    fn set_predicates_subsume_single_element_wrappers() {
        let a = archive();
        // The single-node shorthand is exactly the one-member set.
        assert_eq!(
            a.query(Query::all().node(3)).events().expect("scans"),
            a.query(Query::all().nodes(&[3])).events().expect("scans"),
        );
        // A set union matches the union of its members' matches.
        let both = a.query(Query::all().jobs(&[0, 2])).events().expect("scans");
        let j0 = a.query(Query::all().jobs(&[0])).events().expect("scans");
        let j2 = a.query(Query::all().jobs(&[2])).events().expect("scans");
        assert_eq!(both.len(), j0.len() + j2.len());
        // Empty sets match nothing; later calls replace earlier predicates.
        assert!(a
            .query(Query::all().jobs(&[]))
            .events()
            .expect("scans")
            .is_empty());
        assert_eq!(
            a.query(Query::all().jobs(&[999]).jobs(&[1]))
                .events()
                .expect("scans"),
            a.query(Query::all().jobs(&[1])).events().expect("scans"),
        );
    }

    #[test]
    fn set_predicates_prune_by_any_member() {
        use charisma_obs::MetricsRegistry;
        let a = archive();
        // Job 0 lives only in the first segment; adding an absent id (5)
        // to the set must not block it, while segments whose bounds cover
        // neither member are still pruned.
        let registry = MetricsRegistry::new();
        let got = a
            .query(Query::all().jobs(&[0, 5]))
            .attach_metrics(StoreMetrics::register(&registry))
            .events()
            .expect("scans");
        assert!(!got.is_empty());
        let snap = registry.snapshot();
        assert_eq!(snap.counters["store.segments_pruned"], 2);
        assert_eq!(snap.counters["store.segments_scanned"], 1);
        // A set of absent ids prunes everything.
        let registry = MetricsRegistry::new();
        let got = a
            .query(Query::all().files(&[7777, 8888]))
            .attach_metrics(StoreMetrics::register(&registry))
            .events()
            .expect("scans");
        assert!(got.is_empty());
        assert_eq!(registry.snapshot().counters["store.segments_scanned"], 0);
    }

    #[test]
    fn segments_reach_the_sink_one_at_a_time_in_segment_order() {
        let a = archive();
        for workers in [1, 2, 4] {
            let scan = a.query(Query::all()).workers(workers);
            let mut seen = Vec::new();
            scan.scan_segments(&scan.admitted(), |events| seen.push(std::mem::take(events)))
                .expect("scans");
            assert_eq!(seen.len(), 3, "workers={workers}");
            assert_eq!(seen.concat(), stream(), "workers={workers}");
        }
    }

    #[test]
    fn report_matches_from_stream_on_the_same_subset() {
        let a = archive();
        let q = Query::all().time_window(SimTime::from_micros(0), SimTime::from_micros(5000));
        let got = a.query(q.clone()).workers(4).report().expect("scans");
        let want = Report::from_stream(stream().into_iter().filter(|e| q.matches(e)));
        assert_eq!(got.render(), want.render());
    }

    #[test]
    fn empty_archive_queries_cleanly() {
        let a = Archive::from_bytes(write_archive(
            &[],
            ArchiveMeta {
                seed: 1,
                scale: 1.0,
            },
        ))
        .expect("parses");
        assert!(a
            .query(Query::all())
            .workers(8)
            .events()
            .expect("scans")
            .is_empty());
        let report = a.query(Query::all()).report().expect("scans");
        assert_eq!(report.chars.jobs.len(), 0);
    }
}
