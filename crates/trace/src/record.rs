//! Event records.
//!
//! The CHARISMA record set was designed to suit both SIMD and MIMD systems
//! (paper §3.1 and its technical-report companion). We keep the subset the
//! iPSC study actually used: job starts/ends, opens, closes, reads, writes,
//! and deletions, plus a self-descriptive trace header.
//!
//! Identity model:
//! * a [`FileId`] names a *path* — stable across jobs, used for cross-job
//!   sharing detection and as cache-block identity;
//! * a [`SessionId`] names one parallel open of a file by one job — the
//!   paper's operational unit of "a file" in its per-file statistics (a
//!   path opened by two different jobs counts twice in the census);
//! * `(SessionId, node)` names one node's open instance — the unit of the
//!   per-node sequentiality analysis.

use charisma_ipsc::SimTime;

/// Identifies a job (one `NQS` submission / program run).
pub type JobId = u32;

/// Identifies a file path, stable for the whole trace.
pub type FileId = u32;

/// Identifies one job-level open session of a file.
pub type SessionId = u32;

/// Pseudo-node index used for records generated on the service node (job
/// starts and ends, which the paper recorded "through a separate mechanism").
pub const SERVICE_NODE: u16 = u16::MAX;

/// How an open intends to use the file. CFS, like Unix, took open flags;
/// the trace records them so analyses can distinguish an open-for-read from
/// an open-for-write even when no requests follow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Open for reading only.
    Read,
    /// Open for writing only.
    Write,
    /// Open for both.
    ReadWrite,
}

impl AccessKind {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::ReadWrite => 2,
        }
    }

    /// Decode a wire code.
    pub fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(AccessKind::Read),
            1 => Some(AccessKind::Write),
            2 => Some(AccessKind::ReadWrite),
            _ => None,
        }
    }
}

/// The payload of one event record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventBody {
    /// A job began, on `nodes` compute nodes. `traced` distinguishes jobs
    /// whose CFS library was instrumented from jobs (system programs, stale
    /// binaries) that only appear via the job-start/end mechanism.
    JobStart {
        /// Job identity.
        job: JobId,
        /// Number of compute nodes allocated (a power of two on the iPSC).
        nodes: u16,
        /// Whether the job's file I/O is present in the trace.
        traced: bool,
    },
    /// A job ended.
    JobEnd {
        /// Job identity.
        job: JobId,
    },
    /// One node opened a file. All nodes of a parallel open share the
    /// `session` id.
    Open {
        /// The job performing the open.
        job: JobId,
        /// Path identity.
        file: FileId,
        /// Job-level open-session identity.
        session: SessionId,
        /// CFS I/O mode (0-3).
        mode: u8,
        /// Open flags.
        access: AccessKind,
        /// True if this open created the file (used to identify temporary
        /// files: created and deleted by the same job).
        created: bool,
    },
    /// One node closed its open instance.
    Close {
        /// Session being closed.
        session: SessionId,
        /// File size, in bytes, observed at close (Figure 3's metric).
        size: u64,
    },
    /// One read request.
    Read {
        /// Session the request belongs to.
        session: SessionId,
        /// Starting file offset of the request.
        offset: u64,
        /// Request length in bytes.
        bytes: u32,
    },
    /// One write request.
    Write {
        /// Session the request belongs to.
        session: SessionId,
        /// Starting file offset of the request.
        offset: u64,
        /// Request length in bytes.
        bytes: u32,
    },
    /// A file was deleted.
    Delete {
        /// The job performing the deletion.
        job: JobId,
        /// Path identity.
        file: FileId,
    },
}

impl EventBody {
    /// Wire tag for the codec.
    pub fn tag(&self) -> u8 {
        match self {
            EventBody::JobStart { .. } => 1,
            EventBody::JobEnd { .. } => 2,
            EventBody::Open { .. } => 3,
            EventBody::Close { .. } => 4,
            EventBody::Read { .. } => 5,
            EventBody::Write { .. } => 6,
            EventBody::Delete { .. } => 7,
        }
    }

    /// The same event with its session and file identifiers rebased by
    /// `base`.
    ///
    /// Sharded generation runs each shard on an independent CFS whose
    /// session/file counters all start at zero; rebasing by a per-shard
    /// base (shard id in the high bits) keeps identities globally unique
    /// in the merged stream. Job identifiers come from the global mix and
    /// are already unique, so they are left untouched.
    #[must_use]
    pub fn with_id_base(self, base: u32) -> EventBody {
        match self {
            EventBody::Open {
                job,
                file,
                session,
                mode,
                access,
                created,
            } => EventBody::Open {
                job,
                file: file + base,
                session: session + base,
                mode,
                access,
                created,
            },
            EventBody::Close { session, size } => EventBody::Close {
                session: session + base,
                size,
            },
            EventBody::Read {
                session,
                offset,
                bytes,
            } => EventBody::Read {
                session: session + base,
                offset,
                bytes,
            },
            EventBody::Write {
                session,
                offset,
                bytes,
            } => EventBody::Write {
                session: session + base,
                offset,
                bytes,
            },
            EventBody::Delete { job, file } => EventBody::Delete {
                job,
                file: file + base,
            },
            job_event @ (EventBody::JobStart { .. } | EventBody::JobEnd { .. }) => job_event,
        }
    }
}

/// One record: when (on the recording node's own drifting clock) and what.
/// The recording node's identity is kept at the enclosing block level, as in
/// the real format (records from one node share a buffer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Node-local timestamp (the value of the node's drifting clock).
    pub local_time: SimTime,
    /// What happened.
    pub body: EventBody,
}

/// Self-descriptive trace-file header, "containing enough information to
/// make the file self-descriptive" (paper §3.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version.
    pub version: u32,
    /// Number of compute nodes on the traced machine.
    pub compute_nodes: u32,
    /// Number of I/O nodes on the traced machine.
    pub io_nodes: u32,
    /// File-system block size in bytes (4096 for CFS).
    pub block_bytes: u32,
    /// RNG seed used by the synthetic workload generator (provenance).
    pub seed: u64,
}

impl TraceHeader {
    /// Current format version.
    pub const VERSION: u32 = 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_codes_round_trip() {
        for k in [AccessKind::Read, AccessKind::Write, AccessKind::ReadWrite] {
            assert_eq!(AccessKind::from_code(k.code()), Some(k));
        }
        assert_eq!(AccessKind::from_code(9), None);
    }

    #[test]
    fn tags_are_distinct() {
        let bodies = [
            EventBody::JobStart {
                job: 0,
                nodes: 1,
                traced: true,
            },
            EventBody::JobEnd { job: 0 },
            EventBody::Open {
                job: 0,
                file: 0,
                session: 0,
                mode: 0,
                access: AccessKind::Read,
                created: false,
            },
            EventBody::Close {
                session: 0,
                size: 0,
            },
            EventBody::Read {
                session: 0,
                offset: 0,
                bytes: 0,
            },
            EventBody::Write {
                session: 0,
                offset: 0,
                bytes: 0,
            },
            EventBody::Delete { job: 0, file: 0 },
        ];
        let mut tags: Vec<u8> = bodies.iter().map(|b| b.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), bodies.len());
    }

    #[test]
    fn event_is_compact() {
        // Millions of events are held in memory; keep the struct small.
        assert!(std::mem::size_of::<Event>() <= 32);
    }
}
