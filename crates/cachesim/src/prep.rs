//! Session indexing for the cache simulations.
//!
//! The compute-node simulation needs to know, per session, whether the
//! file ended up read-only (the paper restricted compute-node caching to
//! read-only files) and which job issued it (hit rates are reported per
//! job). That classification is only known once the whole trace has been
//! seen, so the simulators make one indexing pass first — the same
//! two-pass structure a trace-driven simulator of the real data would use.

use charisma_trace::record::EventBody;
use charisma_trace::OrderedEvent;

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

/// Index of all sessions in a trace: an open-addressing table over the
/// sessions present, looked up in O(1).
///
/// Session ids are shard-namespaced (the shard sits in bits 24 and up) and
/// may come from an untrusted archive, so the table is sized by the count
/// of distinct sessions, never by their id range: it holds
/// `2·next_pow2(sessions)` slots, a load of at most ½. Slots are probed
/// linearly from a fixed multiplicative hash of the id — no per-process
/// random state — and the table has no iteration API, so nothing
/// observable depends on slot order.
#[derive(Clone, Debug)]
pub struct SessionIndex {
    slots: Vec<Option<(u32, SessionFacts)>>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
}

impl SessionIndex {
    /// Build the index (the first pass): collect each session's first
    /// `Open`, then mark which sessions read and which wrote.
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
        };
        for entry in opened {
            let (Ok(i) | Err(i)) = index.find(entry.0);
            index.slots[i] = Some(entry);
        }
        // Per slot: bit 1 once its session read, bit 2 once it wrote.
        let mut seen = vec![0u8; slots];
        for e in events {
            let (session, bit) = match e.body {
                EventBody::Read { session, .. } => (session, 1),
                EventBody::Write { session, .. } => (session, 2),
                _ => continue,
            };
            if let Ok(i) = index.find(session) {
                seen[i] |= bit;
            }
        }
        for (slot, seen) in index.slots.iter_mut().zip(seen) {
            if let Some((_, facts)) = slot {
                facts.read_only = seen == 1;
            }
        }
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
}
