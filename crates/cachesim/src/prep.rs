//! Session indexing and the prepared request stream of the cache
//! simulations.
//!
//! The compute-node simulation needs to know, per session, whether the
//! file ended up read-only (the paper restricted compute-node caching to
//! read-only files) and which job issued it (hit rates are reported per
//! job). That classification is only known once the whole trace has been
//! seen, so the simulators make one indexing pass first — the same
//! two-pass structure a trace-driven simulator of the real data would use.
//!
//! The same pass prepares the I/O-node simulators' input: one `Request`
//! per read or write, with its blocks renumbered densely, so each of the
//! many Figure 9 cells replays a flat array and indexes plain per-block
//! arrays instead of walking events and hashing `(file, block)` keys.

use charisma_trace::record::EventBody;
use charisma_trace::OrderedEvent;

/// Cache block size, in bytes.
pub(crate) const BLOCK: u64 = 4096;

/// Facts about one session needed by the cache simulators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionFacts {
    /// Owning job.
    pub job: u32,
    /// Path identity (cache-block identity).
    pub file: u32,
    /// Whether the session saw reads and no writes.
    pub read_only: bool,
}

/// The blocks `first..=last` a request of `bytes` at `offset` touches and
/// the end of its byte range, `(first, last, end)`, or `None` if it
/// touches no byte. Bytes past the end of the 64-bit offset space are cut
/// off.
pub(crate) fn block_span(offset: u64, bytes: u32) -> Option<(u64, u64, u64)> {
    let end = offset.saturating_add(u64::from(bytes));
    (end > offset).then(|| (offset / BLOCK, (end - 1) / BLOCK, end))
}

/// One read or write of an indexed session that touches at least one
/// byte: the prepared request stream's entry, 24 bytes.
///
/// Blocks get dense ids: each distinct `(file, block)` the trace touches
/// has one id in `0..SessionIndex::block_ids()`, and a request's blocks
/// have consecutive ids, so block `first + k` is id `id + k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Request {
    /// The first block touched.
    pub(crate) first: u64,
    /// Dense id of the first block.
    pub(crate) id: u32,
    /// Blocks touched, at least one.
    pub(crate) blocks: u32,
    /// Offset of the first byte within its block, with [`Self::WRITE`] set
    /// for a write.
    head: u16,
    /// Bytes touched in the last block, `1..=BLOCK`.
    tail: u16,
}

// The stream's cost per request.
const _: () = assert!(std::mem::size_of::<Request>() == 24);

impl Request {
    /// The write flag in `head`, above any in-block offset.
    const WRITE: u16 = 1 << 15;

    /// Whether the request is a write.
    pub(crate) fn is_write(&self) -> bool {
        self.head & Self::WRITE != 0
    }

    /// Bytes the request touches in its `k`-th block.
    #[inline]
    pub(crate) fn touched(&self, k: u32) -> u32 {
        let end = if k + 1 == self.blocks {
            u32::from(self.tail)
        } else {
            BLOCK as u32
        };
        let start = if k == 0 {
            u32::from(self.head & !Self::WRITE)
        } else {
            0
        };
        end - start
    }

    /// Dense id of `block`, one of the request's blocks.
    pub(crate) fn id_of(&self, block: u64) -> u32 {
        self.id + (block - self.first) as u32
    }
}

/// Index of all sessions in a trace, plus the trace's prepared request
/// stream.
///
/// The sessions sit in an open-addressing table over the sessions
/// present, looked up in O(1). Session ids are shard-namespaced (the shard
/// sits in bits 24 and up) and may come from an untrusted archive, so the
/// table is sized by the count of distinct sessions, never by their id
/// range: it holds `2·next_pow2(sessions)` slots, a load of at most ½.
/// Slots are probed linearly from a fixed multiplicative hash of the id —
/// no per-process random state — and the table has no iteration API, so
/// nothing observable depends on slot order.
///
/// The stream holds one `Request` per `Read` or `Write` of an indexed
/// session that touches a byte, in event order. Block ids are assigned
/// per file over the merged extents of the touched blocks, so the id
/// space is exactly the number of distinct touched blocks however sparse
/// the offsets are. A simulator given an index must be given the events
/// it was built from; with the `invariants` feature the simulators check
/// the event count.
#[derive(Clone, Debug)]
pub struct SessionIndex {
    slots: Vec<Option<(u32, SessionFacts)>>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    stream: Vec<Request>,
    /// The number of distinct touched blocks, one more than the largest id.
    block_ids: u32,
    /// The number of events the index was built from.
    events: usize,
}

impl SessionIndex {
    /// Build the index (the first pass): collect each session's first
    /// `Open`, then mark which sessions read and which wrote while
    /// gathering the request stream, then number the stream's blocks.
    ///
    /// # Panics
    ///
    /// If the trace holds 2^32 or more requests, or touches `u32::MAX` or
    /// more distinct blocks (16 TiB of distinct data), whose per-block
    /// arrays no simulation could hold.
    pub fn build(events: &[OrderedEvent]) -> SessionIndex {
        let mut opened: Vec<(u32, SessionFacts)> = events
            .iter()
            .filter_map(|e| match e.body {
                EventBody::Open {
                    job, file, session, ..
                } => Some((
                    session,
                    SessionFacts {
                        job,
                        file,
                        read_only: false,
                    },
                )),
                _ => None,
            })
            .collect();
        // Stable, so the first `Open` of a session survives the dedup.
        opened.sort_by_key(|&(session, _)| session);
        opened.dedup_by_key(|&mut (session, _)| session);
        let slots = 2 * opened.len().next_power_of_two();
        let mut index = SessionIndex {
            slots: vec![None; slots],
            len: opened.len(),
            shift: 64 - slots.trailing_zeros(),
            stream: Vec::new(),
            block_ids: 0,
            events: events.len(),
        };
        for entry in opened {
            let (Ok(i) | Err(i)) = index.find(entry.0);
            index.slots[i] = Some(entry);
        }
        // Per slot: bit 1 once its session read, bit 2 once it wrote. Each
        // request's `id` holds its file until the blocks are numbered.
        let mut seen = vec![0u8; slots];
        // Sized once, for every read and write: doubling would hold up to
        // three times the stream while it grows.
        let requests = events
            .iter()
            .filter(|e| matches!(e.body, EventBody::Read { .. } | EventBody::Write { .. }))
            .count();
        index.stream.reserve_exact(requests);
        for e in events {
            let (session, offset, bytes, write) = match e.body {
                EventBody::Read {
                    session,
                    offset,
                    bytes,
                } => (session, offset, bytes, false),
                EventBody::Write {
                    session,
                    offset,
                    bytes,
                } => (session, offset, bytes, true),
                _ => continue,
            };
            let Ok(i) = index.find(session) else {
                continue;
            };
            seen[i] |= if write { 2 } else { 1 };
            let (Some((_, facts)), Some((first, last, end))) =
                (index.slots[i], block_span(offset, bytes))
            else {
                continue;
            };
            index.stream.push(Request {
                first,
                id: facts.file,
                blocks: (last - first + 1) as u32,
                head: (offset % BLOCK) as u16 | if write { Request::WRITE } else { 0 },
                tail: (end - last * BLOCK) as u16,
            });
        }
        for (slot, seen) in index.slots.iter_mut().zip(seen) {
            if let Some((_, facts)) = slot {
                facts.read_only = seen == 1;
            }
        }
        index.block_ids = number_blocks(&mut index.stream);
        index
    }

    fn home(&self, session: u32) -> usize {
        (u64::from(session).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// `Ok(slot)` holding `session`, or `Err(slot)`: the empty slot that
    /// ends its probe sequence. The load stays ≤ ½, so an empty slot exists.
    fn find(&self, session: u32) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(session);
        loop {
            match self.slots[i] {
                None => return Err(i),
                Some((s, _)) if s == session => return Ok(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Look up a session.
    pub fn get(&self, session: u32) -> Option<&SessionFacts> {
        let i = self.find(session).ok()?;
        self.slots[i].as_ref().map(|(_, facts)| facts)
    }

    /// Number of indexed sessions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The prepared request stream, in event order.
    pub(crate) fn stream(&self) -> &[Request] {
        &self.stream
    }

    /// The number of distinct blocks the stream touches: its ids are
    /// `0..block_ids()`.
    pub(crate) fn block_ids(&self) -> usize {
        self.block_ids as usize
    }

    /// Check, under the `invariants` feature, that `events` is the trace
    /// the index was built from, by its length.
    pub(crate) fn check_built_from(&self, events: &[OrderedEvent]) {
        charisma_ipsc::invariant!(
            self.events == events.len(),
            "session index built from {} events is given {}",
            self.events,
            events.len()
        );
    }
}

/// Replace each request's file (held in `id`) by its first block's dense
/// id, and return the number of ids. Requests are visited in `(file,
/// first)` order through a sort index, the build's only other temporary;
/// each run of overlapping or adjacent block ranges of one file is an
/// extent whose blocks get consecutive ids.
fn number_blocks(stream: &mut [Request]) -> u32 {
    let requests = u32::try_from(stream.len()).expect("fewer than 2^32 requests");
    let mut order: Vec<u32> = (0..requests).collect();
    order.sort_unstable_by_key(|&i| {
        let r = &stream[i as usize];
        (r.id, r.first)
    });
    let mut next = 0u64;
    // The current extent: its file, first block, end block and first id.
    let (mut file, mut start, mut end, mut base) = (None, 0u64, 0u64, 0u64);
    for i in order {
        let r = &mut stream[i as usize];
        let r_end = r.first + u64::from(r.blocks);
        if file != Some(r.id) || r.first > end {
            (file, start, end, base) = (Some(r.id), r.first, r_end, next);
            next += u64::from(r.blocks);
        } else if r_end > end {
            next += r_end - end;
            end = r_end;
        }
        r.id = (base + (r.first - start)) as u32;
    }
    assert!(
        next < u64::from(u32::MAX),
        "the trace touches {next} distinct blocks; dense block ids are 32-bit"
    );
    next as u32
}

impl Default for SessionIndex {
    /// The index of a trace with no sessions.
    fn default() -> Self {
        SessionIndex::build(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_ipsc::SimTime;
    use charisma_trace::record::AccessKind;

    fn ev(body: EventBody) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body,
        }
    }

    #[test]
    fn classifies_read_only_sessions() {
        let events = vec![
            ev(EventBody::Open {
                job: 1,
                file: 10,
                session: 1,
                mode: 0,
                access: AccessKind::Read,
                created: false,
            }),
            ev(EventBody::Read {
                session: 1,
                offset: 0,
                bytes: 100,
            }),
            ev(EventBody::Open {
                job: 2,
                file: 11,
                session: 2,
                mode: 0,
                access: AccessKind::ReadWrite,
                created: true,
            }),
            ev(EventBody::Read {
                session: 2,
                offset: 0,
                bytes: 100,
            }),
            ev(EventBody::Write {
                session: 2,
                offset: 0,
                bytes: 100,
            }),
            ev(EventBody::Open {
                job: 3,
                file: 12,
                session: 3,
                mode: 0,
                access: AccessKind::Read,
                created: false,
            }),
        ];
        let idx = SessionIndex::build(&events);
        assert_eq!(idx.len(), 3);
        assert!(idx.get(1).unwrap().read_only);
        assert!(!idx.get(2).unwrap().read_only, "read-write");
        assert!(!idx.get(3).unwrap().read_only, "unaccessed is not RO");
        assert_eq!(idx.get(1).unwrap().job, 1);
        assert_eq!(idx.get(2).unwrap().file, 11);
        assert!(idx.get(9).is_none());
    }

    #[test]
    fn sparse_ids_first_open_wins_and_order_does_not_matter() {
        let read = |session| {
            ev(EventBody::Read {
                session,
                offset: 0,
                bytes: 1,
            })
        };
        // Shard-namespaced ids, out of order; a read seen before its
        // session's open still counts, and a repeated open keeps the
        // first one's facts.
        let (a, b) = ((3 << 24) | 7, (1 << 24) | 9);
        let events = vec![read(a), open(1, a), open(2, b), open(3, a), read(b)];
        let idx = SessionIndex::build(&events);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(a).map(|f| (f.job, f.read_only)), Some((1, true)));
        assert_eq!(idx.get(b).map(|f| (f.job, f.read_only)), Some((2, true)));
        assert!(idx.get(7).is_none() && idx.get(u32::MAX).is_none());
    }

    fn open(job: u32, session: u32) -> OrderedEvent {
        ev(EventBody::Open {
            job,
            file: job + 100,
            session,
            mode: 0,
            access: AccessKind::Read,
            created: false,
        })
    }

    /// Ids whose home slot is `slot` in an index of `sessions` sessions.
    fn homed_at(sessions: u32, slot: usize, n: usize) -> Vec<u32> {
        let sizing = SessionIndex::build(&(0..sessions).map(|s| open(0, s)).collect::<Vec<_>>());
        (1..u32::MAX)
            .filter(|&id| sizing.home(id) == slot)
            .take(n)
            .collect()
    }

    #[test]
    fn extreme_namespaced_and_colliding_ids_all_resolve() {
        // Eight sessions: a 16-slot table. Three ids share the last slot
        // as home, so their probe run wraps to the front of the array,
        // where id 0 lives.
        let last = 15;
        let mut ids = homed_at(8, last, 4);
        let absent = ids.pop().expect("a fourth id homed at the last slot");
        ids.extend([0, u32::MAX, (3 << 24) | 7, (255 << 24) | 1, 1 << 24]);
        assert_eq!(ids.len(), 8);
        let mut events: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(job, &id)| open(job as u32, id))
            .collect();
        // Repeated opens, in reverse, must not displace the first ones.
        events.extend(ids.iter().rev().map(|&id| open(99, id)));
        events.extend(ids.iter().map(|&session| {
            ev(EventBody::Write {
                session,
                offset: 0,
                bytes: 1,
            })
        }));
        let idx = SessionIndex::build(&events);
        assert_eq!(idx.len(), ids.len());
        assert_eq!(idx.slots.len(), 16);
        assert_eq!(idx.home(ids[0]), last);
        for (job, &id) in ids.iter().enumerate() {
            let facts = idx.get(id).copied();
            assert_eq!(
                facts,
                Some(SessionFacts {
                    job: job as u32,
                    file: job as u32 + 100,
                    read_only: false,
                }),
                "session {id:#x}"
            );
        }
        // An absent id probes the wrapped run to its end and misses.
        assert_eq!(idx.get(absent), None);
        assert_eq!(idx.get(7), None);
    }

    #[test]
    fn table_holds_at_most_twice_the_sessions_rounded_up() {
        for sessions in [0u32, 1, 2, 3, 5, 64, 65, 1000] {
            // Ids spread over every shard: the table follows the count,
            // never the id range.
            let events: Vec<_> = (0..sessions)
                .map(|s| open(s, s.wrapping_mul(0x0101_0101) | (s << 24)))
                .collect();
            let idx = SessionIndex::build(&events);
            let n = idx.len();
            assert_eq!(n, sessions as usize);
            assert!(
                idx.slots.len() <= 2 * n.next_power_of_two(),
                "{} slots for {n} sessions",
                idx.slots.len()
            );
            assert!(2 * n <= idx.slots.len(), "load above one half");
        }
        assert!(SessionIndex::default().is_empty());
        assert_eq!(SessionIndex::default().get(0), None);
    }

    fn rw(session: u32, offset: u64, bytes: u32, write: bool) -> OrderedEvent {
        ev(if write {
            EventBody::Write {
                session,
                offset,
                bytes,
            }
        } else {
            EventBody::Read {
                session,
                offset,
                bytes,
            }
        })
    }

    /// Check the stream against a naive model: one entry per read or
    /// write of an indexed session touching a byte, in order, with the
    /// request's blocks and bytes; ids a bijection between the touched
    /// `(file, block)`s and `0..block_ids()`, consecutive within a
    /// request. Returns the stream's `(file, first block, blocks)`.
    fn check_stream(events: &[OrderedEvent]) -> Vec<(u32, u64, u32)> {
        use std::collections::BTreeMap;
        let idx = SessionIndex::build(events);
        let mut want = Vec::new();
        for e in events {
            let (EventBody::Read {
                session,
                offset,
                bytes,
            }
            | EventBody::Write {
                session,
                offset,
                bytes,
            }) = e.body
            else {
                continue;
            };
            let (Some(facts), true) = (idx.get(session), bytes > 0) else {
                continue;
            };
            let end = offset.saturating_add(u64::from(bytes));
            if end > offset {
                let write = matches!(e.body, EventBody::Write { .. });
                want.push((facts.file, offset, end, write));
            }
        }
        assert_eq!(idx.stream().len(), want.len(), "one entry per request");
        let mut ids: BTreeMap<(u32, u64), u32> = BTreeMap::new();
        let mut seen = Vec::new();
        for (r, &(file, offset, end, write)) in idx.stream().iter().zip(&want) {
            assert_eq!(r.first, offset / BLOCK);
            assert_eq!(r.first + u64::from(r.blocks) - 1, (end - 1) / BLOCK);
            assert_eq!(r.is_write(), write);
            let bytes: u64 = (0..r.blocks).map(|k| u64::from(r.touched(k))).sum();
            assert_eq!(bytes, end - offset, "touched bytes add up");
            for k in 0..r.blocks {
                let id = *ids
                    .entry((file, r.first + u64::from(k)))
                    .or_insert(r.id + k);
                assert_eq!(id, r.id + k, "one id per block, consecutive in a request");
                assert_eq!(r.id_of(r.first + u64::from(k)), id);
            }
            seen.push((file, r.first, r.blocks));
        }
        assert_eq!(idx.block_ids(), ids.len(), "ids = distinct touched blocks");
        let mut values: Vec<u32> = ids.into_values().collect();
        values.sort_unstable();
        assert!(
            values.iter().enumerate().all(|(i, &id)| id as usize == i),
            "ids are exactly 0..block_ids()"
        );
        seen
    }

    #[test]
    fn empty_trace_has_no_requests_and_no_ids() {
        assert!(check_stream(&[]).is_empty());
        let idx = SessionIndex::default();
        assert_eq!((idx.stream().len(), idx.block_ids()), (0, 0));
    }

    #[test]
    fn unknown_sessions_and_zero_byte_requests_have_no_entry() {
        let events = vec![
            rw(9, 0, 4096, false), // before any open, and never opened
            open(1, 5),
            rw(5, 100, 0, false),
            rw(5, 8192, 0, true),
            rw(7, 0, 10, true), // unknown
            rw(5, 4000, 200, false),
        ];
        assert_eq!(check_stream(&events), vec![(101, 0, 2)]);
        // A zero-byte write still makes the session read-write.
        assert!(!SessionIndex::build(&events).get(5).unwrap().read_only);
    }

    #[test]
    fn offsets_at_the_far_end_of_the_offset_space_cost_no_ids() {
        let far = u64::MAX / 4096;
        let events = vec![
            open(1, 1),
            open(2, 2),
            rw(1, far, 4096, false),
            rw(1, far * 4096, 4096, true),
            rw(1, u64::MAX - 5000, 3000, false),
            rw(1, u64::MAX - 4096, 4096, false),
            // Bytes past the end of the offset space are cut off.
            rw(2, u64::MAX - 10, 100, true),
            rw(2, 0, 1, false),
            rw(1, far, 1, false),
        ];
        let stream = check_stream(&events);
        assert_eq!(stream.len(), 7);
        assert_eq!(stream[4], (102, far, 1), "cut off at the last block");
        // File 101: the two blocks around offset `far` and the last two
        // blocks; file 102: the first and the last block.
        assert_eq!(SessionIndex::build(&events).block_ids(), 6);
    }

    #[test]
    fn a_u32_max_byte_request_gets_one_id_per_block() {
        let events = vec![
            open(1, 1),
            rw(1, 4095, u32::MAX, false),
            rw(1, 1 << 30, 3 * 4096, true),       // inside the big one
            rw(1, (1 << 32) + 4096, 4096, false), // past its end, a gap after
        ];
        let stream = check_stream(&events);
        assert_eq!(
            stream[0],
            (101, 0, (u64::from(u32::MAX) + 4095).div_ceil(4096) as u32)
        );
        assert_eq!(
            SessionIndex::build(&events).block_ids(),
            stream[0].2 as usize + 1
        );
    }

    proptest::proptest! {
        /// On arbitrary overlapping requests over a few files and
        /// sessions, the stream matches the naive model.
        #[test]
        fn stream_ids_number_exactly_the_touched_blocks(
            requests in proptest::collection::vec(
                (0u32..5, proptest::prop_oneof![0u64..100_000, 0u64..u64::MAX],
                 proptest::prop_oneof![0u32..20_000, 0u32..3], proptest::strategy::any::<bool>()),
                0..200),
        ) {
            let mut events: Vec<_> = (1..4).map(|s| open(s, s * 10)).collect();
            events.push(open(4, 10)); // two sessions of one file
            events.extend(
                requests.iter().map(|&(s, offset, bytes, write)| rw(s * 10, offset, bytes, write)),
            );
            check_stream(&events);
        }
    }
}
