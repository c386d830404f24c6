//! Sealed segments and the archive reader: the build/serve split.
//!
//! The original store conflated two roles in `Archive`/`ArchiveWriter`:
//! *building* an archive (accumulate rows, encode segments, lay out a
//! file) and *serving* one (prune, decode, scan). A long-lived service
//! needs them apart — ingest keeps appending while readers keep scanning —
//! so the public surface is now three layers:
//!
//! 1. [`SegmentBuilder`](crate::SegmentBuilder) — append-only row
//!    accumulator. [`SegmentBuilder::seal`] encodes the rows and returns a
//!    [`SealedSegment`].
//! 2. [`SealedSegment`] — an **immutable** encoded segment plus its zone
//!    map. The bytes live in a shared [`Bytes`] allocation, so cloning a
//!    handle is an `Arc` bump: any number of concurrent readers can hold
//!    the same segment with no copies and no locks.
//! 3. [`ArchiveReader`] — a pure view over a catalog (ordered list) of
//!    sealed segments. It owns no file and no builder state; queries
//!    ([`ArchiveReader::query`]) prune on the catalog's zone maps and
//!    decode only surviving segments. Cloning a reader clones segment
//!    *handles*, not segment bytes.
//!
//! The file-shaped [`Archive`](crate::Archive) is now a thin wrapper: it
//! parses the container, slices one shared allocation into per-segment
//! [`SealedSegment`]s, and delegates everything else to an embedded
//! [`ArchiveReader`]. [`ArchiveReader::to_bytes`] goes the other way,
//! re-serializing a catalog into the canonical container format —
//! `Archive::from_bytes(reader.to_bytes())` is an identity on the
//! segments, which is what lets a service publish byte-identical catalogs
//! no matter how its ingest was scheduled.

use bytes::Bytes;
use charisma_ipsc::SimTime;
use charisma_trace::OrderedEvent;

use crate::archive::ArchiveMeta;
use crate::query::{Query, Scan};
use crate::scan::{decode_segment, scan_segment, SegmentScan};
use crate::segment::ZoneMap;
use crate::StoreError;

/// One immutable, encoded segment: shared bytes plus the zone map that
/// summarizes them.
///
/// Handles are cheap to clone (shared ownership via [`Bytes`]); the
/// underlying allocation is dropped when the last handle goes away. A
/// sealed segment is self-contained: its zone map's `offset` is `0` and
/// its `len` is the blob length, regardless of where the blob later lands
/// inside a serialized archive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedSegment {
    bytes: Bytes,
    zone: ZoneMap,
}

impl SealedSegment {
    /// Wrap an encoded blob and its zone map. `zone.offset`/`zone.len`
    /// are normalized to the standalone form (`0`/blob length).
    pub(crate) fn from_parts(bytes: Bytes, mut zone: ZoneMap) -> Self {
        zone.offset = 0;
        zone.len = bytes.len() as u64;
        SealedSegment { bytes, zone }
    }

    /// Rows encoded in this segment.
    pub fn rows(&self) -> u32 {
        self.zone.rows
    }

    /// The segment's zone map (standalone form: `offset == 0`).
    pub fn zone(&self) -> &ZoneMap {
        &self.zone
    }

    /// Encoded size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The encoded blob, shared with every other handle to this segment.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Check the blob's trailing integrity checksum without decoding any
    /// column values. `false` means the bytes were damaged after sealing.
    pub fn verify_checksum(&self) -> bool {
        crate::integrity::verify_blob(&self.bytes)
    }

    /// This segment's zone map positioned at `offset` within a serialized
    /// archive body — what the container footer records.
    pub(crate) fn zone_at(&self, offset: u64) -> ZoneMap {
        let mut zone = self.zone;
        zone.offset = offset;
        zone
    }

    /// Decode every record of the segment, in row order.
    pub fn events(&self) -> Result<Vec<OrderedEvent>, StoreError> {
        decode_segment(&self.bytes, self.zone.rows)
    }

    /// Scan the segment under `query`: predicate-column-first decode into
    /// a row selection, then late materialization of the surviving rows —
    /// the per-segment core every [`Scan`] runs.
    pub(crate) fn select_events(&self, query: &Query) -> Result<SegmentScan, StoreError> {
        scan_segment(&self.bytes, self.zone.rows, query)
    }
}

/// A pure read view over an ordered catalog of sealed segments.
///
/// A reader holds no builder state and no file handle — it is exactly the
/// serve half of the build/serve split. Construction is infallible
/// bookkeeping; all decoding is deferred to queries, which prune on the
/// zone maps first. Cloning a reader is cheap (segment handles share
/// their bytes).
#[derive(Clone, Debug)]
pub struct ArchiveReader {
    meta: ArchiveMeta,
    segments: Vec<SealedSegment>,
    rows: u64,
}

impl ArchiveReader {
    /// A reader over `segments`, in catalog order, with provenance `meta`.
    pub fn new(meta: ArchiveMeta, segments: Vec<SealedSegment>) -> Self {
        let rows = segments.iter().map(|s| u64::from(s.rows())).sum();
        ArchiveReader {
            meta,
            segments,
            rows,
        }
    }

    /// Provenance carried by the catalog.
    pub fn meta(&self) -> ArchiveMeta {
        self.meta
    }

    /// Total records across the catalog.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of segments in the catalog.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The catalog itself, in order.
    pub fn segments(&self) -> &[SealedSegment] {
        &self.segments
    }

    /// The cataloged time span `(first, last)` from zone maps alone, or
    /// `None` for an empty catalog.
    pub fn time_span(&self) -> Option<(SimTime, SimTime)> {
        let min = self.segments.iter().map(|s| s.zone().time.min).min()?;
        let max = self.segments.iter().map(|s| s.zone().time.max).max()?;
        Some((SimTime::from_micros(min), SimTime::from_micros(max)))
    }

    /// Begin a query over the catalog. The returned [`Scan`] is a builder:
    /// set `.workers(n)` / `.attach_metrics(..)`, then consume it with
    /// `.events()` or `.report()`.
    pub fn query(&self, query: Query) -> Scan<'_> {
        Scan::new(self, query)
    }

    /// Decode every record (the identity query, serially) — delegates to
    /// the one scan path; there is no separate full-decode code.
    pub fn events(&self) -> Result<Vec<OrderedEvent>, StoreError> {
        self.query(Query::all()).events()
    }

    /// Verify every segment's integrity checksum, in catalog order,
    /// without decoding any values. Returns the number of segments
    /// verified, or the deterministic lowest-index failure as
    /// [`StoreError::CorruptSegment`] (`replica: 0` — a plain reader has
    /// no replicas).
    pub fn verify(&self) -> Result<u64, StoreError> {
        for (seg, s) in self.segments.iter().enumerate() {
            if !s.verify_checksum() {
                return Err(StoreError::CorruptSegment {
                    segment: seg as u64,
                    replica: 0,
                });
            }
        }
        Ok(self.segments.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{write_archive, Archive};
    use crate::SegmentBuilder;
    use charisma_trace::record::EventBody;

    fn stream(n: u64) -> Vec<OrderedEvent> {
        (0..n)
            .map(|i| OrderedEvent {
                time: SimTime::from_micros(i * 7),
                node: (i % 16) as u16,
                body: EventBody::Read {
                    session: (i % 9) as u32,
                    offset: i * 256,
                    bytes: 256,
                },
            })
            .collect()
    }

    const META: ArchiveMeta = ArchiveMeta {
        seed: 1,
        scale: 0.5,
    };

    #[test]
    fn seal_round_trips_and_handles_share_bytes() {
        let events = stream(100);
        let mut b = SegmentBuilder::default();
        for e in &events {
            b.push(e);
        }
        let sealed = b.seal();
        assert_eq!(sealed.rows(), 100);
        assert_eq!(sealed.zone().offset, 0);
        assert_eq!(sealed.zone().len as usize, sealed.size_bytes());
        assert_eq!(sealed.events().expect("decodes"), events);

        let other = sealed.clone();
        assert!(std::ptr::eq(
            sealed.bytes().as_ref().as_ptr(),
            other.bytes().as_ref().as_ptr()
        ));
    }

    #[test]
    fn reader_is_a_pure_view_over_a_catalog() {
        let events = stream(300);
        let mut segments = Vec::new();
        for chunk in events.chunks(128) {
            let mut b = SegmentBuilder::default();
            for e in chunk {
                b.push(e);
            }
            segments.push(b.seal());
        }
        let reader = ArchiveReader::new(META, segments);
        assert_eq!(reader.rows(), 300);
        assert_eq!(reader.segment_count(), 3);
        assert_eq!(reader.events().expect("decodes"), events);
        assert_eq!(
            reader.time_span(),
            Some((SimTime::ZERO, SimTime::from_micros(299 * 7)))
        );
        // A clone serves the same catalog through shared handles.
        let cloned = reader.clone();
        assert_eq!(cloned.events().expect("decodes"), events);
    }

    #[test]
    fn reader_to_bytes_is_the_canonical_container() {
        // A catalog re-serialized through the reader must be bit-identical
        // to what the streaming writer produces from the same records —
        // the build path and the serve path meet at one format.
        let events = stream(5000);
        let written = write_archive(&events, META);
        let archive = Archive::from_bytes(written.clone()).expect("parses");
        assert_eq!(archive.reader().to_bytes(), written);

        // And the round trip through from_bytes is an identity on segments.
        let reopened = Archive::from_bytes(archive.reader().to_bytes()).expect("parses");
        assert_eq!(reopened.reader().segments(), archive.reader().segments());
    }

    #[test]
    fn verify_walks_the_catalog_and_names_the_lowest_corrupt_segment() {
        let events = stream(300);
        let mut segments = Vec::new();
        for chunk in events.chunks(128) {
            let mut b = SegmentBuilder::default();
            for e in chunk {
                b.push(e);
            }
            segments.push(b.seal());
        }
        let reader = ArchiveReader::new(META, segments.clone());
        assert_eq!(reader.verify().expect("clean"), 3);
        assert!(segments.iter().all(SealedSegment::verify_checksum));

        // Corrupt segments 1 and 2: verify reports the lowest index.
        for target in [1usize, 2] {
            let mut blob = segments[target].bytes().as_ref().to_vec();
            blob[3] ^= 0x20;
            let zone = *segments[target].zone();
            segments[target] = SealedSegment::from_parts(Bytes::from(blob), zone);
            assert!(!segments[target].verify_checksum());
        }
        let reader = ArchiveReader::new(META, segments);
        assert!(matches!(
            reader.verify(),
            Err(StoreError::CorruptSegment {
                segment: 1,
                replica: 0
            })
        ));
    }

    #[test]
    fn empty_reader_serves_cleanly() {
        let reader = ArchiveReader::new(META, Vec::new());
        assert_eq!(reader.rows(), 0);
        assert_eq!(reader.time_span(), None);
        assert!(reader.events().expect("scans").is_empty());
        let archive = Archive::from_bytes(reader.to_bytes()).expect("parses");
        assert_eq!(archive.rows(), 0);
    }
}
