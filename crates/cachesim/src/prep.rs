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

/// Index of all sessions in a trace: facts sorted by session id, looked up
/// by binary search. Session ids are shard-namespaced (the shard sits in
/// the high bits), so they are too sparse for a dense vector.
#[derive(Clone, Debug, Default)]
pub struct SessionIndex {
    sessions: Vec<(u32, SessionFacts)>,
}

impl SessionIndex {
    /// Build the index (the first pass): collect each session's first
    /// `Open`, then mark which sessions read and which wrote.
    pub fn build(events: &[OrderedEvent]) -> SessionIndex {
        let mut sessions: Vec<(u32, SessionFacts)> = events
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
        sessions.sort_by_key(|&(session, _)| session);
        sessions.dedup_by_key(|&mut (session, _)| session);
        let mut index = SessionIndex { sessions };
        // Per session: bit 1 once it read, bit 2 once it wrote.
        let mut seen = vec![0u8; index.sessions.len()];
        for e in events {
            let (session, bit) = match e.body {
                EventBody::Read { session, .. } => (session, 1),
                EventBody::Write { session, .. } => (session, 2),
                _ => continue,
            };
            if let Some(i) = index.position(session) {
                seen[i] |= bit;
            }
        }
        for ((_, facts), seen) in index.sessions.iter_mut().zip(seen) {
            facts.read_only = seen == 1;
        }
        index
    }

    fn position(&self, session: u32) -> Option<usize> {
        self.sessions
            .binary_search_by_key(&session, |&(s, _)| s)
            .ok()
    }

    /// Look up a session.
    pub fn get(&self, session: u32) -> Option<&SessionFacts> {
        self.position(session).map(|i| &self.sessions[i].1)
    }

    /// Number of indexed sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
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
        let open = |job, session| {
            ev(EventBody::Open {
                job,
                file: job + 100,
                session,
                mode: 0,
                access: AccessKind::Read,
                created: false,
            })
        };
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
}
