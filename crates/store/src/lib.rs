//! charisma-store: an indexed columnar archive for CHARISMA trace
//! streams, with a parallel predicate-pushdown query engine.
//!
//! The generator replays the paper's workload and the analyzer
//! characterizes it — but until now the trace stream itself only existed
//! in memory, inside one run. This crate gives the merged event stream a
//! durable, *canonical* on-disk form and makes it cheap to ask questions
//! of it after the fact:
//!
//! * [`ArchiveWriter`] consumes [`OrderedEvent`]s in merged-stream order
//!   and emits a segmented columnar archive. Each segment holds up to
//!   [`SEGMENT_ROWS`] records, encoded column-by-column (delta varints
//!   for times/offsets/sizes, plain varints for identifiers, per-segment
//!   dictionaries for ops/modes/flags) and summarized by a [`ZoneMap`].
//! * [`Archive`] memory-loads an archive and answers [`Query`]s: the zone
//!   maps prune whole segments before any decoding, then worker threads
//!   claim and scan the survivors. A [`Scan`] can materialize matching
//!   [`events`](Scan::events), compute a full analyzer
//!   [`report`](Scan::report) for the subset, or rebuild the cache
//!   simulators' [`session_index`](Scan::session_index).
//!
//! # Build/serve split
//!
//! Since the serve layer landed, the crate's surface separates the two
//! halves the original `Archive` conflated: [`SegmentBuilder`] is the
//! append-only *build* side, sealing into immutable [`SealedSegment`]
//! handles (shared byte ownership — cloning is an `Arc` bump), and
//! [`ArchiveReader`] is the pure *serve* side, a view over a catalog of
//! sealed segments that answers queries and re-serializes canonically via
//! [`ArchiveReader::to_bytes`]. `Archive` remains as the file-shaped thin
//! wrapper over a reader; `charisma-serve` composes builders and readers
//! into a long-lived multi-tenant service.
//!
//! # Determinism contract
//!
//! The archive bytes are a pure function of the event stream and the
//! declared [`ArchiveMeta`]. The same seed and scale produce a
//! byte-identical archive regardless of how many generator shards or
//! scan workers ran — no timestamps, hostnames, worker counts, or map
//! iteration orders leak into the format. `charisma-verify gates archive`
//! holds the project to this with a checked-in archive hash fixture.
//!
//! [`OrderedEvent`]: charisma_trace::OrderedEvent

mod access;
mod archive;
mod codec;
mod integrity;
mod metrics;
mod parity;
mod query;
mod replica;
mod scan;
mod sealed;
mod segment;

pub use access::{reader_mask, AccessLedger, SegmentAccess};
pub use archive::{write_archive, Archive, ArchiveMeta, ArchiveWriter, Recovery};
pub use codec::{
    decode_delta_column, decode_delta_column_into, decode_dict_column, decode_varint_column,
    decode_varint_column_into, encode_delta_column, encode_dict_column, encode_varint_column,
    unzigzag, zigzag,
};
pub use metrics::StoreMetrics;
pub use parity::ParityGroup;
pub use query::{OpClass, OpSet, Query, Scan};
pub use replica::{FailoverReport, InjectReport, ReplicaConfig, ReplicaSet, ScrubReport};
pub use sealed::{ArchiveReader, SealedSegment};
pub use segment::{SegmentBuilder, ZoneMap, SEGMENT_ROWS};

/// Everything that can go wrong opening or scanning an archive.
///
/// Decoders are total: malformed input always surfaces here, never as a
/// panic — the store crate is held to the same no-panic lint (CH003) as
/// the simulators.
#[derive(Debug)]
pub enum StoreError {
    /// The file does not start (or end) with the archive magic.
    BadMagic,
    /// The archive declares a format version this build cannot read.
    BadVersion(u32),
    /// A row carries an op tag outside the known record types.
    BadOp(u8),
    /// Structural corruption: truncation, out-of-range directory entries,
    /// inconsistent row counts. The message names the failing check.
    Corrupt(&'static str),
    /// A segment blob's trailing integrity checksum does not match its
    /// bytes. Raised where the segment's identity is unknown; layers that
    /// know which segment (and which replica) was being read convert it
    /// into [`StoreError::CorruptSegment`].
    ChecksumMismatch,
    /// A named segment failed verification on a named replica — and, for
    /// a replicated read, no surviving replica could serve it either.
    /// `replica` is the replica slot the failure was observed on
    /// (`0` = the primary / only copy). Reporting follows the
    /// deterministic lowest-segment rule: parallel scans always surface
    /// the corrupt segment with the smallest index.
    CorruptSegment {
        /// Catalog index of the failing segment.
        segment: u64,
        /// Replica slot the failure was observed on.
        replica: u32,
    },
    /// The container's tail was destroyed — a crash mid-`seal()` left a
    /// truncated file. `recovered_segments` whole, checksum-verified
    /// segments survive as the sealed prefix;
    /// [`Archive::recover_from_bytes`] rebuilds exactly that prefix.
    TornTail {
        /// Whole segments recoverable from the sealed prefix.
        recovered_segments: u64,
    },
    /// The underlying file could not be read or written.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a charisma-store archive (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported archive version {v}"),
            StoreError::BadOp(op) => write!(f, "unknown op tag {op} in archive row"),
            StoreError::Corrupt(what) => write!(f, "corrupt archive: {what}"),
            StoreError::ChecksumMismatch => {
                write!(f, "segment integrity checksum mismatch")
            }
            StoreError::CorruptSegment { segment, replica } => write!(
                f,
                "segment {segment} failed checksum verification (replica {replica})"
            ),
            StoreError::TornTail { recovered_segments } => write!(
                f,
                "archive tail torn (crash mid-seal); {recovered_segments} sealed \
                 segment(s) recoverable"
            ),
            StoreError::Io(e) => write!(f, "archive i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
