//! The on-disk archive: header, segment blobs, indexed footer.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────┐
//! │ magic "CHSTOR01"  version (2)  seed  scale-bits          │  header
//! ├──────────────────────────────────────────────────────────┤
//! │ segment 0 (columnar blob + 8-byte word checksum)         │
//! │ segment 1                                                │
//! │ ...                                                      │
//! ├──────────────────────────────────────────────────────────┤
//! │ zone-map directory (one fixed-width entry per segment)   │  footer
//! │ total row count                                          │
//! │ file checksum (word checksum over every byte before it)  │
//! ├──────────────────────────────────────────────────────────┤
//! │ footer length (u64)   magic "CHSTOR01"                   │  tail
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! The tail carries the footer length so a reader can locate the
//! directory without scanning segments, and repeats the magic so
//! truncation is detected before any parsing.
//!
//! **Integrity.** Every segment blob ends with a word-at-a-time
//! checksum over its frames (see [`crate::integrity`]), and the footer
//! ends with a file checksum over every byte before it — header,
//! segments, and directory alike. Corruption therefore classifies
//! deterministically: a valid header with a destroyed *tail* is a torn
//! write (crash mid-seal), surfaced as [`StoreError::TornTail`] with the
//! count of whole, checksum-verified segments still recoverable from the
//! sealed prefix; a valid tail with inconsistent *interior* bytes is
//! [`StoreError::Corrupt`]. [`Archive::recover_from_bytes`] turns a torn
//! file back into an archive holding exactly that sealed prefix.
//!
//! **Canonical bytes.** The writer consumes the deterministic merged
//! stream serially, every encoding is a pure function of the record
//! sequence, and the header carries only provenance (seed, scale) — no
//! timestamps, hostnames, or worker counts. Same seed and scale therefore
//! produce a byte-identical archive on any machine and any `shards(n)`,
//! which is what lets `charisma-verify gates archive` pin the whole file to one
//! fixture hash.

use bytes::{Buf, BufMut, Bytes};
use charisma_ipsc::SimTime;
use charisma_trace::OrderedEvent;

use crate::integrity::{checksum, verify_blob, CHECKSUM_LEN};
use crate::metrics::StoreMetrics;
use crate::query::{Query, Scan};
use crate::scan::decode_segment;
use crate::sealed::{ArchiveReader, SealedSegment};
use crate::segment::{SegmentBuilder, ZoneMap, COLUMN_COUNT, SEGMENT_ROWS};
use crate::StoreError;

/// Archive file magic, doubling as the version-0 marker of the container
/// (the header's own `version` field versions the column schema).
pub const MAGIC: &[u8; 8] = b"CHSTOR01";

/// Current format version. Version 2 replaced version 1's byte-serial
/// FNV-1a checksums with the word-at-a-time [`crate::integrity`] checksum,
/// so a version-1 file is refused as [`StoreError::BadVersion`] rather
/// than misreported as a checksum mismatch or a torn tail.
pub const VERSION: u32 = 2;

const HEADER_LEN: usize = 8 + 4 + 8 + 8;
const TAIL_LEN: usize = 8 + 8;

/// Provenance recorded in the archive header.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArchiveMeta {
    /// Generator seed the archived stream came from.
    pub seed: u64,
    /// Workload scale of the run.
    pub scale: f64,
}

/// Streaming archive writer: push the merged stream, then [`finish`].
///
/// [`finish`]: ArchiveWriter::finish
#[derive(Debug)]
pub struct ArchiveWriter {
    buf: Vec<u8>,
    seg: SegmentBuilder,
    zones: Vec<ZoneMap>,
    rows: u64,
    metrics: Option<StoreMetrics>,
}

impl ArchiveWriter {
    /// A writer for a stream with the given provenance.
    pub fn new(meta: ArchiveMeta) -> Self {
        let mut buf = Vec::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(meta.seed);
        buf.put_u64_le(meta.scale.to_bits());
        ArchiveWriter {
            buf,
            seg: SegmentBuilder::default(),
            zones: Vec::new(),
            rows: 0,
            metrics: None,
        }
    }

    /// Report writer throughput through `metrics` from now on.
    pub fn attach_metrics(&mut self, metrics: StoreMetrics) {
        self.metrics = Some(metrics);
    }

    /// Append one record. Records must arrive in merged stream order for
    /// the canonical-bytes guarantee (the writer does not re-sort).
    pub fn push(&mut self, e: &OrderedEvent) {
        self.seg.push(e);
        self.rows += 1;
        if self.seg.len() >= SEGMENT_ROWS {
            self.seal_segment();
        }
    }

    fn seal_segment(&mut self) {
        let seg = std::mem::take(&mut self.seg);
        let rows = seg.len() as u64;
        let zone = seg.finish(&mut self.buf);
        self.zones.push(zone);
        if let Some(m) = &self.metrics {
            m.segments_written.inc();
            m.rows_written.add(rows);
        }
    }

    /// Seal the final segment, append the footer, and return the complete
    /// canonical archive bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if !self.seg.is_empty() {
            self.seal_segment();
        }
        let footer_start = self.buf.len();
        self.buf.put_varint_u64(self.zones.len() as u64);
        for zone in &self.zones {
            zone.encode(&mut self.buf);
        }
        self.buf.put_u64_le(self.rows);
        let sum = checksum(&self.buf);
        self.buf.put_u64_le(sum);
        let footer_len = (self.buf.len() - footer_start) as u64;
        self.buf.put_u64_le(footer_len);
        self.buf.put_slice(MAGIC);
        if let Some(m) = &self.metrics {
            m.bytes_written.add(self.buf.len() as u64);
        }
        self.buf
    }
}

/// Archive every record of `events`, returning the canonical bytes.
pub fn write_archive<'a, I>(events: I, meta: ArchiveMeta) -> Vec<u8>
where
    I: IntoIterator<Item = &'a OrderedEvent>,
{
    let mut w = ArchiveWriter::new(meta);
    for e in events {
        w.push(e);
    }
    w.finish()
}

/// An opened archive file: a thin wrapper over an [`ArchiveReader`].
///
/// Since the build/serve split, all read behavior lives in
/// [`ArchiveReader`]; `Archive` only adds the container parsing
/// (`from_bytes`/`open`) and remembers the file size. Opening parses the
/// header and footer, then slices one shared [`Bytes`] allocation into
/// per-segment [`SealedSegment`] handles — no segment bytes are copied,
/// and decoding stays lazy, per query, only for segments the zone maps
/// cannot rule out.
#[derive(Clone, Debug)]
pub struct Archive {
    reader: ArchiveReader,
    size_bytes: usize,
}

/// Parsed container structure, before any segment bytes are sliced.
struct Layout {
    meta: ArchiveMeta,
    zones: Vec<ZoneMap>,
}

/// Parse the header's provenance. Errors here mean the file was never a
/// readable archive of this version — torn-tail classification does not
/// apply.
fn parse_header(bytes: &[u8]) -> Result<ArchiveMeta, StoreError> {
    let mut head = bytes;
    let mut magic = [0u8; 8];
    head.try_copy_to_slice(&mut magic)
        .ok_or(StoreError::Corrupt("unreadable header"))?;
    if &magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = head
        .try_get_u32_le()
        .ok_or(StoreError::Corrupt("unreadable version"))?;
    if version != VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let seed = head
        .try_get_u64_le()
        .ok_or(StoreError::Corrupt("unreadable seed"))?;
    let scale_bits = head
        .try_get_u64_le()
        .ok_or(StoreError::Corrupt("unreadable scale"))?;
    Ok(ArchiveMeta {
        seed,
        scale: f64::from_bits(scale_bits),
    })
}

/// Probe `buf` for one well-formed segment blob at its start: varint row
/// count, [`COLUMN_COUNT`] length-prefixed frames, then a verifying
/// trailing checksum. Returns `(blob_len, rows)` — without decoding a
/// single column value — or `None` if the bytes cannot be a sealed
/// segment.
fn probe_segment(buf: &[u8]) -> Option<(usize, u32)> {
    let mut b = buf;
    let n = b.try_get_varint_u64()?;
    if n == 0 {
        return None;
    }
    if n > SEGMENT_ROWS as u64 {
        return None;
    }
    let rows = u32::try_from(n).ok()?;
    for _ in 0..COLUMN_COUNT {
        let len = usize::try_from(b.try_get_varint_u64()?).ok()?;
        if b.remaining() < len {
            return None;
        }
        b.advance(len);
    }
    if b.remaining() < CHECKSUM_LEN {
        return None;
    }
    let blob_len = buf.len() - b.remaining() + CHECKSUM_LEN;
    if !verify_blob(&buf[..blob_len]) {
        return None;
    }
    Some((blob_len, rows))
}

/// Walk the segment region from the header forward, collecting every
/// whole, checksum-verified blob: `(offset, len, rows)` triples. Stops at
/// the first byte run that fails to probe — for a torn file that is the
/// truncated final segment (or the partial footer), so the result is
/// exactly the sealed prefix a crash mid-`seal()` left behind.
fn sealed_prefix(bytes: &[u8]) -> Vec<(usize, usize, u32)> {
    let mut out = Vec::new();
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        match probe_segment(&bytes[at..]) {
            Some((len, rows)) => {
                out.push((at, len, rows));
                at += len;
            }
            None => break,
        }
    }
    out
}

/// Parse the container structure without taking ownership of the bytes.
///
/// Classification is deterministic: an unreadable or wrong-magic header
/// is [`StoreError::BadMagic`]/[`StoreError::Corrupt`]; a readable header
/// with a missing or mangled *tail* is [`StoreError::TornTail`] (the file
/// stopped before the footer landed — crash mid-seal); a readable tail
/// with any interior inconsistency (footer bounds, zone ranges, row
/// counts, file checksum) stays [`StoreError::Corrupt`].
fn parse_layout(bytes: &[u8]) -> Result<Layout, StoreError> {
    let meta = parse_header(bytes)?;
    let torn = || StoreError::TornTail {
        recovered_segments: sealed_prefix(bytes).len() as u64,
    };
    if bytes.len() < HEADER_LEN + TAIL_LEN {
        return Err(torn());
    }
    let mut tail = &bytes[bytes.len() - TAIL_LEN..];
    let footer_len = tail
        .try_get_u64_le()
        .ok_or(StoreError::Corrupt("unreadable tail"))?;
    let mut tail_magic = [0u8; 8];
    tail.try_copy_to_slice(&mut tail_magic)
        .ok_or(StoreError::Corrupt("unreadable tail magic"))?;
    if &tail_magic != MAGIC {
        return Err(torn());
    }
    let footer_len =
        usize::try_from(footer_len).map_err(|_| StoreError::Corrupt("footer length overflow"))?;
    let footer_end = bytes.len() - TAIL_LEN;
    let footer_start = footer_end
        .checked_sub(footer_len)
        .filter(|&s| s >= HEADER_LEN)
        .ok_or(StoreError::Corrupt("footer length exceeds archive"))?;

    let mut footer = &bytes[footer_start..footer_end];
    let seg_count = footer
        .try_get_varint_u64()
        .ok_or(StoreError::Corrupt("truncated segment count"))?;
    let seg_count =
        usize::try_from(seg_count).map_err(|_| StoreError::Corrupt("segment count overflow"))?;
    if footer.remaining() < seg_count.saturating_mul(ZoneMap::ENCODED_LEN) {
        return Err(StoreError::Corrupt("zone-map directory truncated"));
    }
    let mut zones = Vec::with_capacity(seg_count);
    for _ in 0..seg_count {
        let zone = ZoneMap::decode(&mut footer)?;
        let end = zone
            .offset
            .checked_add(zone.len)
            .ok_or(StoreError::Corrupt("segment range overflow"))?;
        if (zone.offset as usize) < HEADER_LEN || end as usize > footer_start {
            return Err(StoreError::Corrupt("segment range outside archive body"));
        }
        zones.push(zone);
    }
    let rows = footer
        .try_get_u64_le()
        .ok_or(StoreError::Corrupt("truncated row count"))?;
    let file_sum = footer
        .try_get_u64_le()
        .ok_or(StoreError::Corrupt("truncated file checksum"))?;
    if !footer.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes in footer"));
    }
    if rows != zones.iter().map(|z| u64::from(z.rows)).sum::<u64>() {
        return Err(StoreError::Corrupt("row count disagrees with directory"));
    }
    // The file checksum covers every byte before its own encoding: the
    // header, all segment blobs, and the footer up to the checksum field.
    if checksum(&bytes[..footer_end - CHECKSUM_LEN]) != file_sum {
        return Err(StoreError::Corrupt("file checksum mismatch"));
    }
    Ok(Layout { meta, zones })
}

/// The result of [`Archive::recover_from_bytes`]: the usable archive plus
/// an account of what recovery had to do.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// The recovered (or simply opened) archive.
    pub archive: Archive,
    /// Segments in the recovered archive.
    pub recovered_segments: u64,
    /// Bytes of the input that did not survive recovery (torn tail,
    /// partial final segment, lost footer). `0` for a clean open.
    pub dropped_bytes: u64,
    /// Whether torn-tail recovery actually ran (`false` = clean open).
    pub was_torn: bool,
}

impl Archive {
    /// Parse an archive from its bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Archive, StoreError> {
        let layout = parse_layout(&bytes)?;
        // One shared allocation; each segment handle is a zero-copy slice
        // of it, so cloning the archive or its reader never copies bytes.
        let size_bytes = bytes.len();
        let shared = Bytes::from(bytes);
        let segments = layout
            .zones
            .into_iter()
            .map(|zone| {
                let start = zone.offset as usize;
                let end = (zone.offset + zone.len) as usize;
                SealedSegment::from_parts(shared.slice(start..end), zone)
            })
            .collect();
        Ok(Archive {
            reader: ArchiveReader::new(layout.meta, segments),
            size_bytes,
        })
    }

    /// Read and parse an archive file.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Archive, StoreError> {
        let bytes = std::fs::read(path).map_err(StoreError::Io)?;
        Archive::from_bytes(bytes)
    }

    /// Parse an archive, recovering from a torn tail if necessary.
    ///
    /// A clean file opens exactly like [`Archive::from_bytes`]. A file
    /// whose tail was destroyed by a crash mid-`seal()` is rebuilt from
    /// its sealed prefix: each whole, checksum-verified segment blob is
    /// decoded, re-sealed, and required to re-encode byte-identically
    /// (the canonical-bytes rule doubles as recovery validation — any
    /// blob that decodes but would not re-encode to itself is dropped
    /// along with everything after it). The recovered archive then
    /// re-serializes through the canonical writer path, so
    /// `recovery.archive.reader().to_bytes()` is a well-formed container.
    /// Any other corruption (bad magic, bad version, interior damage
    /// under a valid tail) is returned unchanged.
    pub fn recover_from_bytes(bytes: Vec<u8>) -> Result<Recovery, StoreError> {
        let meta = match parse_layout(&bytes) {
            Ok(_) => {
                let archive = Archive::from_bytes(bytes)?;
                return Ok(Recovery {
                    recovered_segments: archive.segments() as u64,
                    dropped_bytes: 0,
                    was_torn: false,
                    archive,
                });
            }
            Err(StoreError::TornTail { .. }) => parse_header(&bytes)?,
            Err(e) => return Err(e),
        };
        let mut segments = Vec::new();
        let mut kept_end = HEADER_LEN.min(bytes.len());
        for (off, len, rows) in sealed_prefix(&bytes) {
            let blob = &bytes[off..off + len];
            let Ok(events) = decode_segment(blob, rows) else {
                break;
            };
            let mut builder = SegmentBuilder::default();
            for e in &events {
                builder.push(e);
            }
            let sealed = builder.seal();
            if sealed.bytes().as_ref() != blob {
                break;
            }
            segments.push(sealed);
            kept_end = off + len;
        }
        let recovered_segments = segments.len() as u64;
        let dropped_bytes = (bytes.len() - kept_end) as u64;
        // Round-trip through the canonical serializer so the recovered
        // archive is indistinguishable from a freshly written one (same
        // shared-allocation layout, valid footer and checksums).
        let canonical = ArchiveReader::new(meta, segments).to_bytes();
        let archive = Archive::from_bytes(canonical)?;
        Ok(Recovery {
            archive,
            recovered_segments,
            dropped_bytes,
            was_torn: true,
        })
    }

    /// Read an archive file, recovering from a torn tail if necessary.
    pub fn open_recovering(path: impl AsRef<std::path::Path>) -> Result<Recovery, StoreError> {
        let bytes = std::fs::read(path).map_err(StoreError::Io)?;
        Archive::recover_from_bytes(bytes)
    }

    /// The read view this archive wraps. Use it to hand segments to a
    /// service, clone cheap read handles, or re-serialize via
    /// [`ArchiveReader::to_bytes`].
    pub fn reader(&self) -> &ArchiveReader {
        &self.reader
    }

    /// Unwrap into the underlying [`ArchiveReader`].
    pub fn into_reader(self) -> ArchiveReader {
        self.reader
    }

    /// Provenance recorded at write time.
    pub fn meta(&self) -> ArchiveMeta {
        self.reader.meta()
    }

    /// Total records archived.
    pub fn rows(&self) -> u64 {
        self.reader.rows()
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.reader.segment_count()
    }

    /// Total archive size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// The archived time span `(first, last)` from the zone maps alone,
    /// or `None` for an empty archive.
    pub fn time_span(&self) -> Option<(SimTime, SimTime)> {
        self.reader.time_span()
    }

    /// Begin a query over the archive. The returned [`Scan`] is a builder:
    /// set `.workers(n)` / `.attach_metrics(..)`, then consume it with
    /// `.events()`, `.report()`, or `.session_index()`.
    pub fn query(&self, query: Query) -> Scan<'_> {
        self.reader.query(query)
    }

    /// Decode every record (the identity query, serially) — delegates to
    /// [`ArchiveReader::events`], which itself runs the one scan path.
    pub fn events(&self) -> Result<Vec<OrderedEvent>, StoreError> {
        self.reader.events()
    }
}

impl ArchiveReader {
    /// Serialize the catalog into the canonical container format — the
    /// exact bytes [`ArchiveWriter`] would produce from the same records.
    /// This is the publication path of the serve layer: because sealed
    /// segments are immutable and the layout below is a pure function of
    /// the catalog, two readers over equal catalogs serialize to
    /// bit-identical bytes. The footer directory is encoded first, so the
    /// output is allocated once at its exact length.
    pub fn to_bytes(&self) -> Vec<u8> {
        let meta = self.meta();
        let mut directory = Vec::new();
        directory.put_varint_u64(self.segment_count() as u64);
        let mut body_end = HEADER_LEN;
        for seg in self.segments() {
            seg.zone_at(body_end as u64).encode(&mut directory);
            body_end += seg.size_bytes();
        }
        directory.put_u64_le(self.rows());
        // The footer is the directory plus the 8-byte file checksum.
        let footer_len = directory.len() + 8;
        let mut buf = Vec::with_capacity(body_end + footer_len + TAIL_LEN);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(meta.seed);
        buf.put_u64_le(meta.scale.to_bits());
        for seg in self.segments() {
            buf.put_slice(seg.bytes());
        }
        buf.put_slice(&directory);
        let sum = checksum(&buf);
        buf.put_u64_le(sum);
        buf.put_u64_le(footer_len as u64);
        buf.put_slice(MAGIC);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_trace::record::EventBody;

    fn stream(n: u64) -> Vec<OrderedEvent> {
        (0..n)
            .map(|i| OrderedEvent {
                time: SimTime::from_micros(i * 10),
                node: (i % 64) as u16,
                body: EventBody::Read {
                    session: (i % 100) as u32,
                    offset: i * 512,
                    bytes: 512,
                },
            })
            .collect()
    }

    const META: ArchiveMeta = ArchiveMeta {
        seed: 4994,
        scale: 0.05,
    };

    #[test]
    fn archive_round_trips_across_segment_boundaries() {
        for n in [0u64, 1, 4095, 4096, 4097, 10_000] {
            let events = stream(n);
            let bytes = write_archive(&events, META);
            let archive = Archive::from_bytes(bytes.clone()).expect("parses");
            let serialized = archive.reader().to_bytes();
            assert_eq!(serialized, bytes, "n = {n}");
            assert_eq!(serialized.capacity(), serialized.len(), "exact length");
            assert_eq!(archive.rows(), n);
            assert_eq!(
                archive.segments(),
                events.len().div_ceil(SEGMENT_ROWS),
                "n = {n}"
            );
            assert_eq!(archive.events().expect("decodes"), events);
            assert_eq!(archive.meta().seed, 4994);
            assert!((archive.meta().scale - 0.05).abs() < 1e-12);
        }
    }

    #[test]
    fn archive_bytes_are_canonical() {
        let events = stream(5000);
        assert_eq!(write_archive(&events, META), write_archive(&events, META));
    }

    #[test]
    fn writer_metrics_count_the_write() {
        use charisma_obs::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let events = stream(5000);
        let mut w = ArchiveWriter::new(META);
        w.attach_metrics(StoreMetrics::register(&registry));
        for e in &events {
            w.push(e);
        }
        let bytes = w.finish();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["store.segments_written"], 2);
        assert_eq!(snap.counters["store.rows_written"], 5000);
        assert_eq!(snap.counters["store.bytes_written"], bytes.len() as u64);
    }

    #[test]
    fn time_span_comes_from_zone_maps() {
        let events = stream(100);
        let archive = Archive::from_bytes(write_archive(&events, META)).expect("parses");
        assert_eq!(
            archive.time_span(),
            Some((SimTime::ZERO, SimTime::from_micros(990)))
        );
        let empty = Archive::from_bytes(write_archive(&[], META)).expect("parses");
        assert_eq!(empty.time_span(), None);
    }

    #[test]
    fn corruption_is_detected_not_panicked_on() {
        let events = stream(100);
        let good = write_archive(&events, META);
        // Every truncation parses to an error or decodes to an error.
        for cut in 0..good.len() {
            let outcome = Archive::from_bytes(good[..cut].to_vec()).and_then(|a| a.events());
            assert!(outcome.is_err(), "truncation at {cut} went unnoticed");
        }
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Archive::from_bytes(bad),
            Err(StoreError::BadMagic)
        ));
        // Future version.
        let mut bad = good.clone();
        bad[8] = 0xee;
        assert!(matches!(
            Archive::from_bytes(bad),
            Err(StoreError::BadVersion(_))
        ));
    }

    #[test]
    fn torn_tails_are_classified_and_other_damage_stays_corrupt() {
        let events = stream(10_000); // three segments: 4096 + 4096 + 1808
        let good = write_archive(&events, META);

        // Any cut that leaves a readable header but destroys the tail is
        // a torn write, and the reported recoverable count is the number
        // of whole segments still intact before the cut.
        // Segment end offsets within the file (sealed zones are
        // normalized to offset 0, so accumulate lengths from the header).
        let archive = Archive::from_bytes(good.clone()).expect("parses");
        let mut at = HEADER_LEN;
        let boundaries: Vec<usize> = archive
            .reader()
            .segments()
            .iter()
            .map(|s| {
                at += s.zone().len as usize;
                at
            })
            .collect();
        for (cut, want) in [
            (good.len() - 1, 3),    // tail magic clipped; all segments whole
            (good.len() - 20, 3),   // footer clipped
            (boundaries[2], 3),     // exactly after the last segment
            (boundaries[2] - 1, 2), // last segment torn
            (boundaries[1] + 7, 2), // partial final segment
            (boundaries[0], 1),
            (boundaries[0] - 100, 0),
            (HEADER_LEN, 0),
        ] {
            match Archive::from_bytes(good[..cut].to_vec()) {
                Err(StoreError::TornTail { recovered_segments }) => {
                    assert_eq!(recovered_segments, want, "cut at {cut}");
                }
                other => panic!("cut at {cut}: expected TornTail, got {other:?}"),
            }
        }

        // Interior damage under a valid tail is Corrupt, never TornTail:
        // the file checksum pins every byte before the footer's end.
        for at in [HEADER_LEN + 3, good.len() / 2, good.len() - TAIL_LEN - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(
                matches!(Archive::from_bytes(bad), Err(StoreError::Corrupt(_))),
                "flip at {at} not Corrupt"
            );
        }
    }

    #[test]
    fn oversized_row_counts_are_refused_before_decode() {
        // One read row: its dictionary columns have one-entry
        // dictionaries, so a decoder trusting the row count would allocate
        // that many values before finding the columns short.
        let mut builder = SegmentBuilder::default();
        builder.push(&stream(1)[0]);
        let sealed = builder.seal();
        let payload = &sealed.bytes()[..sealed.bytes().len() - CHECKSUM_LEN];
        assert_eq!(payload[0], 1, "a one-byte varint row count");
        for rows in [SEGMENT_ROWS as u32 + 1, 4_000_000_000] {
            // Patch the segment's count and the zone map's, and re-seal
            // both the segment and the file checksum around them.
            let mut blob = Vec::new();
            blob.put_varint_u64(u64::from(rows));
            blob.put_slice(&payload[1..]);
            let sum = checksum(&blob);
            blob.put_u64_le(sum);
            let zone = ZoneMap {
                rows,
                ..*sealed.zone()
            };
            let segment = SealedSegment::from_parts(Bytes::from(blob.clone()), zone);
            let bytes = ArchiveReader::new(META, vec![segment]).to_bytes();
            assert!(
                matches!(
                    Archive::from_bytes(bytes.clone()),
                    Err(StoreError::Corrupt(
                        "segment row count exceeds SEGMENT_ROWS"
                    ))
                ),
                "{rows} rows"
            );
            // Torn after the segment, the file recovers no segment from it.
            let torn = bytes[..HEADER_LEN + blob.len()].to_vec();
            let recovery = Archive::recover_from_bytes(torn).expect("torn tail recovers");
            assert_eq!((recovery.was_torn, recovery.recovered_segments), (true, 0));
        }
    }

    #[test]
    fn recovery_restores_exactly_the_sealed_prefix() {
        let events = stream(10_000);
        let good = write_archive(&events, META);
        let archive = Archive::from_bytes(good.clone()).expect("parses");
        let b1 = HEADER_LEN
            + archive.reader().segments()[..2]
                .iter()
                .map(|s| s.zone().len as usize)
                .sum::<usize>();

        // Torn inside the final segment: the first two segments (8192
        // rows) survive, and the recovered archive re-serializes to the
        // canonical bytes of exactly that prefix.
        let rec = Archive::recover_from_bytes(good[..b1 + 11].to_vec()).expect("recovers");
        assert!(rec.was_torn);
        assert_eq!(rec.recovered_segments, 2);
        assert_eq!(rec.dropped_bytes, 11);
        assert_eq!(rec.archive.rows(), 8192);
        assert_eq!(rec.archive.events().expect("decodes"), events[..8192]);
        assert_eq!(
            rec.archive.reader().to_bytes(),
            write_archive(&events[..8192], META)
        );

        // Torn before any segment sealed: recovery yields a valid empty
        // archive with the original provenance.
        let rec = Archive::recover_from_bytes(good[..HEADER_LEN].to_vec()).expect("recovers");
        assert!(rec.was_torn);
        assert_eq!(rec.recovered_segments, 0);
        assert_eq!(rec.archive.rows(), 0);
        assert_eq!(rec.archive.meta().seed, 4994);

        // A clean file passes through untouched.
        let rec = Archive::recover_from_bytes(good.clone()).expect("opens");
        assert!(!rec.was_torn);
        assert_eq!(rec.recovered_segments, 3);
        assert_eq!(rec.dropped_bytes, 0);
        assert_eq!(rec.archive.reader().to_bytes(), good);

        // Non-torn damage is not recovered from — it propagates.
        let mut bad = good;
        bad[0] ^= 0xff;
        assert!(matches!(
            Archive::recover_from_bytes(bad),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn file_checksum_pins_the_footer() {
        let events = stream(100);
        let good = write_archive(&events, META);
        // Flip one bit of the stored file checksum (the last footer
        // field, just before the 16-byte tail): structure still parses,
        // checksum disagrees.
        let mut bad = good.clone();
        let at = bad.len() - TAIL_LEN - 1;
        bad[at] ^= 0x01;
        assert!(matches!(
            Archive::from_bytes(bad),
            Err(StoreError::Corrupt("file checksum mismatch"))
        ));
        // Flip a row-count byte: caught before the checksum comparison by
        // the directory cross-check, still Corrupt.
        let mut bad = good;
        let at = bad.len() - TAIL_LEN - CHECKSUM_LEN - 1;
        bad[at] ^= 0x01;
        assert!(matches!(
            Archive::from_bytes(bad),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn open_reads_files() {
        let events = stream(100);
        let bytes = write_archive(&events, META);
        let dir = std::env::temp_dir().join("charisma-store-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("roundtrip.chst");
        std::fs::write(&path, &bytes).expect("write");
        let archive = Archive::open(&path).expect("opens");
        assert_eq!(archive.events().expect("decodes"), events);
        assert!(matches!(
            Archive::open(dir.join("missing.chst")),
            Err(StoreError::Io(_))
        ));
    }

    #[test]
    fn version_1_archives_are_refused_by_version() {
        // Version 1 carried byte-serial FNV-1a checksums. Its files must
        // fail on the header's version field, before any checksum or
        // torn-tail classification could misreport them as damage; a
        // torn version-1 file is refused the same way.
        let mut v1 = write_archive(&stream(5000), META);
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            Archive::from_bytes(v1.clone()),
            Err(StoreError::BadVersion(1))
        ));
        let dir = std::env::temp_dir().join("charisma-store-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        for (name, bytes) in [("v1.chst", &v1[..]), ("v1-torn.chst", &v1[..v1.len() / 2])] {
            let path = dir.join(name);
            std::fs::write(&path, bytes).expect("write");
            assert!(
                matches!(
                    Archive::open_recovering(&path),
                    Err(StoreError::BadVersion(1))
                ),
                "{name}"
            );
        }
    }
}
