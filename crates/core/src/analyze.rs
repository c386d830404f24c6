//! The single-pass trace analyzer.
//!
//! Consumes a rectified event stream once and accumulates everything the
//! figure/table modules need: per-job facts, per-session facts, and
//! per-(session, node) access-pattern state.
//!
//! Every map keyed by an integer id or size in this crate is an
//! [`IntMap`]: one multiply and one xorshift per lookup instead of
//! SipHash, and the same iteration order in every run. No output depends
//! on that order, though: every consumer sorts its entries, or folds them
//! with integer sums, counts and sample pushes that commute.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use charisma_ipsc::SimTime;
use charisma_trace::record::{AccessKind, EventBody};
use charisma_trace::OrderedEvent;

/// A hash map keyed by integers, hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A deterministic hasher for integer keys: a multiply by an odd
/// constant, then a xorshift that folds the product's well-mixed high
/// half onto the low bits the table indexes by. Keys that share their
/// low bits, like request sizes that are multiples of 4096, still spread
/// over every bucket. The keys are ids and sizes from the trace under
/// analysis. Unlike SipHash under a random key, this hash gives no
/// protection against a trace crafted so that its ids collide: such a
/// trace costs analysis time, never a wrong result.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn mix(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(Self::K);
        self.0 = h ^ (h >> 32);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
}

/// Distinct-value tracker capped at a small bound: the tables only need
/// "0, 1, 2, 3, or 4+" distinct values, so we never store more than five.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SmallSet<T: Copy + PartialEq> {
    items: Vec<T>,
    overflowed: bool,
}

impl<T: Copy + PartialEq> SmallSet<T> {
    const CAP: usize = 5;

    /// Insert a value (deduplicated; capped).
    pub fn insert(&mut self, v: T) {
        if self.overflowed || self.items.contains(&v) {
            return;
        }
        if self.items.len() >= Self::CAP {
            self.overflowed = true;
        } else {
            self.items.push(v);
        }
    }

    /// Number of distinct values seen, saturating at 5 (i.e. "4+" is 5).
    pub fn distinct(&self) -> usize {
        if self.overflowed {
            Self::CAP + 1
        } else {
            self.items.len()
        }
    }

    /// The values, if they did not overflow.
    pub fn values(&self) -> &[T] {
        &self.items
    }
}

/// Per-(session, node) access-pattern accumulator.
#[derive(Clone, Debug)]
pub struct NodeAccess {
    /// The node.
    pub node: u16,
    /// Requests issued by this node in the session.
    pub requests: u32,
    /// Requests with a predecessor (everything after the node's first).
    pub counted: u32,
    /// Counted requests at a strictly higher offset than the previous
    /// request (the paper's *sequential*).
    pub sequential: u32,
    /// Counted requests starting exactly where the previous ended (the
    /// paper's *consecutive*).
    pub consecutive: u32,
    last_offset: u64,
    last_end: u64,
    /// Byte ranges touched, merged when contiguous in arrival order.
    pub segments: Vec<(u64, u64)>,
}

impl NodeAccess {
    fn new(node: u16) -> Self {
        NodeAccess {
            node,
            requests: 0,
            counted: 0,
            sequential: 0,
            consecutive: 0,
            last_offset: 0,
            last_end: 0,
            segments: Vec::new(),
        }
    }

    fn record(&mut self, offset: u64, bytes: u32) {
        if self.requests > 0 {
            self.counted += 1;
            if offset > self.last_offset {
                self.sequential += 1;
            }
            if offset == self.last_end {
                self.consecutive += 1;
            }
        }
        self.requests += 1;
        self.last_offset = offset;
        self.last_end = offset + u64::from(bytes);
        let end = offset + u64::from(bytes);
        match self.segments.last_mut() {
            Some((_, le)) if *le == offset => *le = end,
            _ => {
                if bytes > 0 {
                    self.segments.push((offset, end));
                }
            }
        }
    }

    /// This node's touched ranges as a disjoint, sorted union.
    pub fn merged_segments(&self) -> Vec<(u64, u64)> {
        let mut segs = self.segments.clone();
        segs.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(segs.len());
        for (s, e) in segs {
            match out.last_mut() {
                Some((_, le)) if *le >= s => *le = (*le).max(e),
                _ => out.push((s, e)),
            }
        }
        out
    }
}

/// Everything known about one open session.
#[derive(Clone, Debug)]
pub struct SessionStat {
    /// Owning job.
    pub job: u32,
    /// Path identity.
    pub file: u32,
    /// CFS I/O mode code (0-3).
    pub mode: u8,
    /// Open flags.
    pub access: AccessKind,
    /// Whether the open created the file.
    pub created: bool,
    /// Read requests / bytes.
    pub reads: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Write requests.
    pub writes: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// File size observed at (the last) close.
    pub size_at_close: u64,
    /// First open timestamp.
    pub open_time: SimTime,
    /// Last close timestamp.
    pub close_time: SimTime,
    /// Distinct inter-request gaps (signed: offset − previous end), pooled
    /// across nodes (Table 2).
    pub intervals: SmallSet<i64>,
    /// Distinct request sizes, pooled across nodes (Table 3).
    pub request_sizes: SmallSet<u32>,
    /// Per-node access state.
    pub nodes: Vec<NodeAccess>,
    /// Job that deleted the file, if it was deleted in the trace.
    pub deleted_by: Option<u32>,
}

impl SessionStat {
    fn new(job: u32, file: u32, mode: u8, access: AccessKind, created: bool, t: SimTime) -> Self {
        SessionStat {
            job,
            file,
            mode,
            access,
            created,
            reads: 0,
            bytes_read: 0,
            writes: 0,
            bytes_written: 0,
            size_at_close: 0,
            open_time: t,
            close_time: t,
            intervals: SmallSet::default(),
            request_sizes: SmallSet::default(),
            nodes: Vec::new(),
            deleted_by: None,
        }
    }

    fn node_mut(&mut self, node: u16) -> &mut NodeAccess {
        if let Some(i) = self.nodes.iter().position(|n| n.node == node) {
            &mut self.nodes[i]
        } else {
            self.nodes.push(NodeAccess::new(node));
            self.nodes.last_mut().expect("just pushed")
        }
    }

    fn record_request(&mut self, node: u16, offset: u64, bytes: u32, is_read: bool, t: SimTime) {
        self.request_sizes.insert(bytes);
        let na = self.node_mut(node);
        let gap = (na.requests > 0).then(|| offset as i64 - na.last_end as i64);
        na.record(offset, bytes);
        if let Some(gap) = gap {
            // `intervals` are the gaps between a node's successive
            // requests; consecutive access has gap 0.
            self.intervals.insert(gap);
        }
        if is_read {
            self.reads += 1;
            self.bytes_read += u64::from(bytes);
        } else {
            self.writes += 1;
            self.bytes_written += u64::from(bytes);
        }
        self.close_time = self.close_time.max(t);
    }

    /// Total requests across nodes.
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Number of distinct nodes that issued at least one request.
    pub fn accessing_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.requests > 0).count()
    }

    /// Whether the session was read-only / write-only / read-write /
    /// unaccessed, per §4.2's census classes.
    pub fn class(&self) -> SessionClass {
        match (self.reads > 0, self.writes > 0) {
            (true, false) => SessionClass::ReadOnly,
            (false, true) => SessionClass::WriteOnly,
            (true, true) => SessionClass::ReadWrite,
            (false, false) => SessionClass::Unaccessed,
        }
    }

    /// Whether this session's file was a temporary: created by this job
    /// and deleted by the same job.
    pub fn temporary(&self) -> bool {
        self.created && self.deleted_by == Some(self.job)
    }
}

/// §4.2's census classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SessionClass {
    /// Only read.
    ReadOnly,
    /// Only written.
    WriteOnly,
    /// Both read and written in the same open.
    ReadWrite,
    /// Opened but neither read nor written.
    Unaccessed,
}

/// Per-job facts.
#[derive(Clone, Debug)]
pub struct JobInfo {
    /// Compute nodes used.
    pub nodes: u16,
    /// Whether the job's file I/O was traced.
    pub traced: bool,
    /// Job start time.
    pub start: SimTime,
    /// Job end time.
    pub end: SimTime,
    /// Sessions the job opened.
    pub files_opened: u32,
}

/// The complete accumulated characterization.
#[derive(Clone, Debug, Default)]
pub struct Characterization {
    /// Jobs by id.
    pub jobs: IntMap<u32, JobInfo>,
    /// Sessions by session id.
    pub sessions: IntMap<u32, SessionStat>,
    /// End of the observed period (max event time).
    pub horizon: SimTime,
}

/// Run the one-pass analysis over a rectified event stream.
pub fn analyze<'a, I>(events: I) -> Characterization
where
    I: IntoIterator<Item = &'a OrderedEvent>,
{
    let mut a = Analyzer::new();
    for e in events {
        a.push(e);
    }
    a.finish()
}

/// The incremental form of [`analyze`]: feed events one at a time.
///
/// The sharded pipeline's k-way merge yields events as a streaming
/// iterator; this accumulator lets the analysis consume it in the same
/// pass that materializes the stream, instead of requiring a `Vec` first.
#[derive(Debug, Default)]
pub struct Analyzer {
    c: Characterization,
    /// file → sessions that opened it (for delete attribution).
    file_sessions: IntMap<u32, Vec<u32>>,
}

impl Analyzer {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the accumulator, yielding the finished characterization.
    pub fn finish(self) -> Characterization {
        self.c
    }

    /// Account one event. Events must arrive in rectified stream order.
    pub fn push(&mut self, e: &OrderedEvent) {
        let c = &mut self.c;
        let file_sessions = &mut self.file_sessions;
        c.horizon = c.horizon.max(e.time);
        match e.body {
            EventBody::JobStart { job, nodes, traced } => {
                c.jobs.insert(
                    job,
                    JobInfo {
                        nodes,
                        traced,
                        start: e.time,
                        end: e.time,
                        files_opened: 0,
                    },
                );
            }
            EventBody::JobEnd { job } => {
                if let Some(j) = c.jobs.get_mut(&job) {
                    j.end = e.time;
                }
            }
            EventBody::Open {
                job,
                file,
                session,
                mode,
                access,
                created,
            } => {
                let stat = c
                    .sessions
                    .entry(session)
                    .or_insert_with(|| SessionStat::new(job, file, mode, access, created, e.time));
                stat.open_time = stat.open_time.min(e.time);
                // Register the attaching node with zero requests.
                stat.node_mut(e.node);
                file_sessions.entry(file).or_default().push(session);
                if let Some(j) = c.jobs.get_mut(&job) {
                    // Count each session once (first node's open).
                    if stat.nodes.len() == 1 {
                        j.files_opened += 1;
                    }
                }
            }
            EventBody::Close { session, size } => {
                if let Some(s) = c.sessions.get_mut(&session) {
                    s.size_at_close = s.size_at_close.max(size);
                    s.close_time = s.close_time.max(e.time);
                }
            }
            EventBody::Read {
                session,
                offset,
                bytes,
            } => {
                if let Some(s) = c.sessions.get_mut(&session) {
                    s.record_request(e.node, offset, bytes, true, e.time);
                }
            }
            EventBody::Write {
                session,
                offset,
                bytes,
            } => {
                if let Some(s) = c.sessions.get_mut(&session) {
                    s.record_request(e.node, offset, bytes, false, e.time);
                }
            }
            EventBody::Delete { job, file } => {
                if let Some(sessions) = file_sessions.get(&file) {
                    for sid in sessions {
                        if let Some(s) = c.sessions.get_mut(sid) {
                            s.deleted_by = Some(job);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_us: u64, node: u16, body: EventBody) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::from_micros(time_us),
            node,
            body,
        }
    }

    fn open(job: u32, file: u32, session: u32, access: AccessKind) -> EventBody {
        EventBody::Open {
            job,
            file,
            session,
            mode: 0,
            access,
            created: access != AccessKind::Read,
        }
    }

    #[test]
    fn int_hasher_spreads_keys_that_share_their_low_bits() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IntHasher>::default();
        // Request sizes: multiples of 4096 share their low 12 bits. Their
        // hashes still fill most of a 64-bucket table's low bits, and of
        // the 7 top bits the table's probe tags use.
        let hashes: Vec<u64> = (1..=64u32).map(|k| build.hash_one(k * 4096)).collect();
        let low: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 63).collect();
        let top: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() >= 32, "{} low buckets", low.len());
        assert!(top.len() >= 32, "{} top tags", top.len());
        // Deterministic: the same key hashes alike in every map.
        assert_eq!(build.hash_one(4096u32), hashes[0]);
    }

    #[test]
    fn small_set_caps_at_five() {
        let mut s = SmallSet::default();
        for v in [1, 1, 2, 3, 2, 4, 5] {
            s.insert(v);
        }
        assert_eq!(s.distinct(), 5);
        s.insert(6);
        assert_eq!(s.distinct(), 6, "overflow = 4+ bucket");
        s.insert(7);
        assert_eq!(s.distinct(), 6);
    }

    #[test]
    fn classifies_sessions() {
        let events = vec![
            ev(
                0,
                u16::MAX,
                EventBody::JobStart {
                    job: 1,
                    nodes: 2,
                    traced: true,
                },
            ),
            ev(1, 0, open(1, 10, 100, AccessKind::Read)),
            ev(
                2,
                0,
                EventBody::Read {
                    session: 100,
                    offset: 0,
                    bytes: 100,
                },
            ),
            ev(
                3,
                0,
                EventBody::Close {
                    session: 100,
                    size: 500,
                },
            ),
            ev(4, 1, open(1, 11, 101, AccessKind::Write)),
            ev(
                5,
                1,
                EventBody::Write {
                    session: 101,
                    offset: 0,
                    bytes: 64,
                },
            ),
            ev(
                6,
                1,
                EventBody::Close {
                    session: 101,
                    size: 64,
                },
            ),
            ev(7, 0, open(1, 12, 102, AccessKind::ReadWrite)),
            ev(
                8,
                0,
                EventBody::Close {
                    session: 102,
                    size: 0,
                },
            ),
            ev(9, u16::MAX, EventBody::JobEnd { job: 1 }),
        ];
        let c = analyze(&events);
        assert_eq!(c.sessions[&100].class(), SessionClass::ReadOnly);
        assert_eq!(c.sessions[&101].class(), SessionClass::WriteOnly);
        assert_eq!(c.sessions[&102].class(), SessionClass::Unaccessed);
        assert_eq!(c.sessions[&100].size_at_close, 500);
        assert_eq!(c.jobs[&1].files_opened, 3);
        assert_eq!(c.horizon, SimTime::from_micros(9));
    }

    #[test]
    fn sequential_and_consecutive_counters() {
        let events = vec![
            ev(1, 0, open(1, 1, 1, AccessKind::Read)),
            // consecutive, consecutive, gap forward, backward.
            ev(
                2,
                0,
                EventBody::Read {
                    session: 1,
                    offset: 0,
                    bytes: 100,
                },
            ),
            ev(
                3,
                0,
                EventBody::Read {
                    session: 1,
                    offset: 100,
                    bytes: 100,
                },
            ),
            ev(
                4,
                0,
                EventBody::Read {
                    session: 1,
                    offset: 200,
                    bytes: 100,
                },
            ),
            ev(
                5,
                0,
                EventBody::Read {
                    session: 1,
                    offset: 500,
                    bytes: 100,
                },
            ),
            ev(
                6,
                0,
                EventBody::Read {
                    session: 1,
                    offset: 0,
                    bytes: 100,
                },
            ),
        ];
        let c = analyze(&events);
        let s = &c.sessions[&1];
        let n = &s.nodes[0];
        assert_eq!(n.requests, 5);
        assert_eq!(n.counted, 4);
        assert_eq!(n.sequential, 3, "backward jump is not sequential");
        assert_eq!(n.consecutive, 2);
        // Gaps: 0, 0, 200, -600 → distinct {0, 200, -600} = 3.
        assert_eq!(s.intervals.distinct(), 3);
        assert_eq!(s.request_sizes.distinct(), 1);
    }

    #[test]
    fn per_node_state_is_independent() {
        let events = vec![
            ev(1, 0, open(1, 1, 1, AccessKind::Read)),
            ev(1, 1, open(1, 1, 1, AccessKind::Read)),
            // Interleaved: node 0 at 0,1024; node 1 at 512,1536.
            ev(
                2,
                0,
                EventBody::Read {
                    session: 1,
                    offset: 0,
                    bytes: 512,
                },
            ),
            ev(
                3,
                1,
                EventBody::Read {
                    session: 1,
                    offset: 512,
                    bytes: 512,
                },
            ),
            ev(
                4,
                0,
                EventBody::Read {
                    session: 1,
                    offset: 1024,
                    bytes: 512,
                },
            ),
            ev(
                5,
                1,
                EventBody::Read {
                    session: 1,
                    offset: 1536,
                    bytes: 512,
                },
            ),
        ];
        let c = analyze(&events);
        let s = &c.sessions[&1];
        assert_eq!(s.accessing_nodes(), 2);
        for n in &s.nodes {
            assert_eq!(n.requests, 2);
            assert_eq!(n.sequential, 1);
            assert_eq!(n.consecutive, 0, "per-node view has gaps");
        }
        // Per-node gap is 512 for both nodes → one distinct interval.
        assert_eq!(s.intervals.distinct(), 1);
        assert_eq!(s.intervals.values(), &[512]);
    }

    #[test]
    fn segments_merge_and_union() {
        let mut na = NodeAccess::new(0);
        na.record(0, 100);
        na.record(100, 100); // contiguous: merges
        na.record(500, 100);
        na.record(0, 50); // overlap with first after re-seek
        let merged = na.merged_segments();
        assert_eq!(merged, vec![(0, 200), (500, 600)]);
    }

    #[test]
    fn temporary_detection() {
        let events = vec![
            ev(1, 0, open(1, 7, 1, AccessKind::ReadWrite)),
            ev(
                2,
                0,
                EventBody::Write {
                    session: 1,
                    offset: 0,
                    bytes: 10,
                },
            ),
            ev(
                3,
                0,
                EventBody::Close {
                    session: 1,
                    size: 10,
                },
            ),
            ev(4, 0, EventBody::Delete { job: 1, file: 7 }),
            ev(5, 0, open(2, 8, 2, AccessKind::ReadWrite)),
            ev(
                6,
                0,
                EventBody::Close {
                    session: 2,
                    size: 0,
                },
            ),
            ev(7, 0, EventBody::Delete { job: 9, file: 8 }),
        ];
        let c = analyze(&events);
        assert!(c.sessions[&1].temporary());
        assert!(
            !c.sessions[&2].temporary(),
            "deleted by a different job: not temporary"
        );
    }
}
