//! Segments: the archive's unit of encoding, pruning, and parallel scan.
//!
//! A segment holds up to [`SEGMENT_ROWS`] consecutive records of the
//! merged stream, transposed into columns. Every record maps onto one row
//! of a fixed ten-column schema (absent fields encode as zero), so the
//! row ↔ event mapping is a bijection on the rows the writer produces:
//!
//! | column  | content                                   | encoding      |
//! |---------|-------------------------------------------|---------------|
//! | time    | rectified timestamp (µs)                  | delta varint  |
//! | node    | recording node                            | varint        |
//! | op      | record tag (1–7)                          | dictionary    |
//! | job     | job id (`JobStart`/`JobEnd`/`Open`/`Delete`) | varint     |
//! | file    | file id (`Open`/`Delete`)                 | varint        |
//! | session | session id (`Open`/`Close`/`Read`/`Write`)| varint        |
//! | mode    | CFS I/O mode (`Open`)                     | dictionary    |
//! | flags   | access kind, created, traced bits         | dictionary    |
//! | offset  | request offset (`Read`/`Write`)           | delta varint  |
//! | size    | bytes / size-at-close / node count        | delta varint  |
//!
//! Alongside the column bytes each segment carries a [`ZoneMap`] — min/max
//! time, node, job and file plus an op bitset — kept in the archive footer
//! so a query can reject the whole segment without touching its bytes.

use bytes::{Buf, BufMut};
use charisma_ipsc::SimTime;
use charisma_trace::record::{AccessKind, EventBody};
use charisma_trace::OrderedEvent;

use crate::codec::{encode_delta_column, encode_dict_column, encode_varint_column};
use crate::StoreError;

/// Rows per segment. Small enough that a pruned segment saves real work at
/// study scales (a 0.05-scale trace spans ~95 segments), large enough that
/// per-segment dictionary and zone-map overhead stays negligible.
pub const SEGMENT_ROWS: usize = 4096;

/// `flags` column bit layout.
const FLAG_ACCESS_MASK: u8 = 0b11;
const FLAG_CREATED: u8 = 1 << 2;
const FLAG_TRACED: u8 = 1 << 3;

/// Columns per segment row (the fixed schema above).
pub(crate) const COLUMN_COUNT: usize = 10;

/// Min/max tracker over the values a column actually carried (absent
/// values do not pollute the bounds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bounds<T: Copy + Ord> {
    /// Smallest value carried.
    pub min: T,
    /// Largest value carried.
    pub max: T,
}

impl<T: Copy + Ord> Bounds<T> {
    fn observe(slot: &mut Option<Bounds<T>>, v: T) {
        match slot {
            Some(b) => {
                b.min = b.min.min(v);
                b.max = b.max.max(v);
            }
            None => *slot = Some(Bounds { min: v, max: v }),
        }
    }

    /// Whether `v` falls inside these bounds.
    pub fn contains(&self, v: T) -> bool {
        self.min <= v && v <= self.max
    }
}

/// Per-segment index entry: enough to decide "can any row here match?"
/// without decoding the segment, plus the segment's byte range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneMap {
    /// Byte offset of the segment blob within the archive.
    pub offset: u64,
    /// Byte length of the segment blob.
    pub len: u64,
    /// Rows in the segment.
    pub rows: u32,
    /// Timestamp bounds (µs), inclusive.
    pub time: Bounds<u64>,
    /// Recording-node bounds, inclusive.
    pub node: Bounds<u16>,
    /// Bit `tag - 1` set when the segment holds a record with that tag.
    pub op_bits: u8,
    /// Job-id bounds over rows that name a job, if any do.
    pub jobs: Option<Bounds<u32>>,
    /// File-id bounds over rows that name a file, if any do.
    pub files: Option<Bounds<u32>>,
}

impl ZoneMap {
    /// Encoded footer-entry size in bytes (fixed width).
    pub(crate) const ENCODED_LEN: usize = 8 + 8 + 4 + 8 + 8 + 2 + 2 + 1 + 1 + 4 + 4 + 4 + 4;

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.put_u64_le(self.offset);
        out.put_u64_le(self.len);
        out.put_u32_le(self.rows);
        out.put_u64_le(self.time.min);
        out.put_u64_le(self.time.max);
        out.put_u16_le(self.node.min);
        out.put_u16_le(self.node.max);
        out.put_u8(self.op_bits);
        let presence = u8::from(self.jobs.is_some()) | (u8::from(self.files.is_some()) << 1);
        out.put_u8(presence);
        let jobs = self.jobs.unwrap_or(Bounds { min: 0, max: 0 });
        out.put_u32_le(jobs.min);
        out.put_u32_le(jobs.max);
        let files = self.files.unwrap_or(Bounds { min: 0, max: 0 });
        out.put_u32_le(files.min);
        out.put_u32_le(files.max);
    }

    pub(crate) fn decode(buf: &mut &[u8]) -> Result<ZoneMap, StoreError> {
        let truncated = || StoreError::Corrupt("truncated zone map");
        let offset = buf.try_get_u64_le().ok_or_else(truncated)?;
        let len = buf.try_get_u64_le().ok_or_else(truncated)?;
        let rows = buf.try_get_u32_le().ok_or_else(truncated)?;
        // Decoders size their output by the row count: refuse one no
        // writer produces before anything allocates for it.
        if u64::from(rows) > SEGMENT_ROWS as u64 {
            return Err(StoreError::Corrupt(
                "segment row count exceeds SEGMENT_ROWS",
            ));
        }
        let time_min = buf.try_get_u64_le().ok_or_else(truncated)?;
        let time_max = buf.try_get_u64_le().ok_or_else(truncated)?;
        let node_min = buf.try_get_u16_le().ok_or_else(truncated)?;
        let node_max = buf.try_get_u16_le().ok_or_else(truncated)?;
        let op_bits = buf.try_get_u8().ok_or_else(truncated)?;
        let presence = buf.try_get_u8().ok_or_else(truncated)?;
        let job_min = buf.try_get_u32_le().ok_or_else(truncated)?;
        let job_max = buf.try_get_u32_le().ok_or_else(truncated)?;
        let file_min = buf.try_get_u32_le().ok_or_else(truncated)?;
        let file_max = buf.try_get_u32_le().ok_or_else(truncated)?;
        Ok(ZoneMap {
            offset,
            len,
            rows,
            time: Bounds {
                min: time_min,
                max: time_max,
            },
            node: Bounds {
                min: node_min,
                max: node_max,
            },
            op_bits,
            jobs: (presence & 1 != 0).then_some(Bounds {
                min: job_min,
                max: job_max,
            }),
            files: (presence & 2 != 0).then_some(Bounds {
                min: file_min,
                max: file_max,
            }),
        })
    }
}

/// One record transposed onto the fixed column schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) time: u64,
    pub(crate) node: u16,
    pub(crate) op: u8,
    pub(crate) job: u32,
    pub(crate) file: u32,
    pub(crate) session: u32,
    pub(crate) mode: u8,
    pub(crate) flags: u8,
    pub(crate) offset: u64,
    pub(crate) size: u64,
}

/// Which identity columns a tag carries (for zone-map bounds).
fn row_from_event(e: &OrderedEvent) -> Row {
    let mut row = Row {
        time: e.time.as_micros(),
        node: e.node,
        op: e.body.tag(),
        job: 0,
        file: 0,
        session: 0,
        mode: 0,
        flags: 0,
        offset: 0,
        size: 0,
    };
    match e.body {
        EventBody::JobStart { job, nodes, traced } => {
            row.job = job;
            row.size = u64::from(nodes);
            row.flags = if traced { FLAG_TRACED } else { 0 };
        }
        EventBody::JobEnd { job } => row.job = job,
        EventBody::Open {
            job,
            file,
            session,
            mode,
            access,
            created,
        } => {
            row.job = job;
            row.file = file;
            row.session = session;
            row.mode = mode;
            row.flags = access.code() | if created { FLAG_CREATED } else { 0 };
        }
        EventBody::Close { session, size } => {
            row.session = session;
            row.size = size;
        }
        EventBody::Read {
            session,
            offset,
            bytes,
        }
        | EventBody::Write {
            session,
            offset,
            bytes,
        } => {
            row.session = session;
            row.offset = offset;
            row.size = u64::from(bytes);
        }
        EventBody::Delete { job, file } => {
            row.job = job;
            row.file = file;
        }
    }
    row
}

pub(crate) fn event_from_row(row: &Row) -> Result<OrderedEvent, StoreError> {
    let body = match row.op {
        1 => EventBody::JobStart {
            job: row.job,
            nodes: u16::try_from(row.size)
                .map_err(|_| StoreError::Corrupt("job-start node count exceeds u16"))?,
            traced: row.flags & FLAG_TRACED != 0,
        },
        2 => EventBody::JobEnd { job: row.job },
        3 => EventBody::Open {
            job: row.job,
            file: row.file,
            session: row.session,
            mode: row.mode,
            access: AccessKind::from_code(row.flags & FLAG_ACCESS_MASK)
                .ok_or(StoreError::Corrupt("bad access-kind code"))?,
            created: row.flags & FLAG_CREATED != 0,
        },
        4 => EventBody::Close {
            session: row.session,
            size: row.size,
        },
        5 => EventBody::Read {
            session: row.session,
            offset: row.offset,
            bytes: u32::try_from(row.size)
                .map_err(|_| StoreError::Corrupt("request length exceeds u32"))?,
        },
        6 => EventBody::Write {
            session: row.session,
            offset: row.offset,
            bytes: u32::try_from(row.size)
                .map_err(|_| StoreError::Corrupt("request length exceeds u32"))?,
        },
        7 => EventBody::Delete {
            job: row.job,
            file: row.file,
        },
        t => return Err(StoreError::BadOp(t)),
    };
    Ok(OrderedEvent {
        time: SimTime::from_micros(row.time),
        node: row.node,
        body,
    })
}

/// Append-only row accumulator: the *build* half of the build/serve split.
///
/// Push records in stream order, then [`seal`](SegmentBuilder::seal) the
/// builder into an immutable [`SealedSegment`](crate::SealedSegment)
/// handle. Builders are deliberately single-use and cheap — a service
/// keeps one open builder per tenant and seals whenever it reaches
/// [`SEGMENT_ROWS`].
#[derive(Debug, Default)]
pub struct SegmentBuilder {
    rows: Vec<Row>,
    time: Option<Bounds<u64>>,
    node: Option<Bounds<u16>>,
    op_bits: u8,
    jobs: Option<Bounds<u32>>,
    files: Option<Bounds<u32>>,
}

impl SegmentBuilder {
    /// Append one record. Records must arrive in stream order for the
    /// canonical-bytes guarantee (the builder does not re-sort).
    pub fn push(&mut self, e: &OrderedEvent) {
        let row = row_from_event(e);
        Bounds::observe(&mut self.time, row.time);
        Bounds::observe(&mut self.node, row.node);
        self.op_bits |= 1 << (row.op - 1);
        match e.body {
            EventBody::JobStart { job, .. } | EventBody::JobEnd { job } => {
                Bounds::observe(&mut self.jobs, job);
            }
            EventBody::Open { job, file, .. } | EventBody::Delete { job, file } => {
                Bounds::observe(&mut self.jobs, job);
                Bounds::observe(&mut self.files, file);
            }
            _ => {}
        }
        self.rows.push(row);
    }

    /// Rows accumulated so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Encode the accumulated rows and return an immutable
    /// [`SealedSegment`](crate::SealedSegment) handle. Sealing is a pure
    /// function of the pushed record sequence, so the same records always
    /// seal to the same bytes regardless of when or where sealing happens.
    pub fn seal(self) -> crate::SealedSegment {
        let mut out = Vec::new();
        let zone = self.finish(&mut out);
        crate::SealedSegment::from_parts(bytes::Bytes::from(out), zone)
    }

    /// Encode the accumulated rows as one segment blob appended to `out`,
    /// returning its zone map (`offset`/`len` relative to `out`'s state on
    /// entry, i.e. as absolute positions within the growing archive).
    ///
    /// The blob ends with an integrity checksum over the row count and all
    /// ten column frames, so `zone.len` covers the checksum and any byte
    /// flip inside the blob is detectable without decoding a value.
    pub(crate) fn finish(self, out: &mut Vec<u8>) -> ZoneMap {
        let start = out.len();
        let n = self.rows.len();
        out.put_varint_u64(n as u64);
        encode_column(out, |col| {
            encode_delta_column(&collect(&self.rows, |r| r.time), col)
        });
        encode_column(out, |col| {
            encode_varint_column(&collect(&self.rows, |r| u64::from(r.node)), col)
        });
        encode_column(out, |col| {
            encode_dict_column(&collect8(&self.rows, |r| r.op), col)
        });
        encode_column(out, |col| {
            encode_varint_column(&collect(&self.rows, |r| u64::from(r.job)), col)
        });
        encode_column(out, |col| {
            encode_varint_column(&collect(&self.rows, |r| u64::from(r.file)), col)
        });
        encode_column(out, |col| {
            encode_varint_column(&collect(&self.rows, |r| u64::from(r.session)), col)
        });
        encode_column(out, |col| {
            encode_dict_column(&collect8(&self.rows, |r| r.mode), col)
        });
        encode_column(out, |col| {
            encode_dict_column(&collect8(&self.rows, |r| r.flags), col)
        });
        encode_column(out, |col| {
            encode_delta_column(&collect(&self.rows, |r| r.offset), col)
        });
        encode_column(out, |col| {
            encode_delta_column(&collect(&self.rows, |r| r.size), col)
        });
        let sum = crate::integrity::checksum(&out[start..]);
        out.put_u64_le(sum);
        ZoneMap {
            offset: start as u64,
            len: (out.len() - start) as u64,
            // n <= SEGMENT_ROWS by construction; saturate rather than wrap
            // if that invariant ever breaks, so the zone map stays sane.
            rows: u32::try_from(n).unwrap_or(u32::MAX),
            time: self.time.unwrap_or(Bounds { min: 0, max: 0 }),
            node: self.node.unwrap_or(Bounds { min: 0, max: 0 }),
            op_bits: self.op_bits,
            jobs: self.jobs,
            files: self.files,
        }
    }
}

fn collect(rows: &[Row], f: impl Fn(&Row) -> u64) -> Vec<u64> {
    rows.iter().map(f).collect()
}

fn collect8(rows: &[Row], f: impl Fn(&Row) -> u8) -> Vec<u8> {
    rows.iter().map(f).collect()
}

/// Write one length-prefixed column: the byte length as a varint, then the
/// column bytes. The prefix is what lets a reader skip columns it does not
/// need.
fn encode_column(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let mut col = Vec::new();
    encode(&mut col);
    out.put_varint_u64(col.len() as u64);
    out.put_slice(&col);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::decode_segment;

    fn sample_events() -> Vec<OrderedEvent> {
        let mk = |us, node, body| OrderedEvent {
            time: SimTime::from_micros(us),
            node,
            body,
        };
        vec![
            mk(
                10,
                u16::MAX,
                EventBody::JobStart {
                    job: 40,
                    nodes: 16,
                    traced: true,
                },
            ),
            mk(
                11,
                3,
                EventBody::Open {
                    job: 40,
                    file: 7,
                    session: 9,
                    mode: 2,
                    access: AccessKind::ReadWrite,
                    created: true,
                },
            ),
            mk(
                12,
                3,
                EventBody::Read {
                    session: 9,
                    offset: 4096,
                    bytes: 512,
                },
            ),
            mk(
                13,
                4,
                EventBody::Write {
                    session: 9,
                    offset: 0,
                    bytes: 4096,
                },
            ),
            mk(
                14,
                3,
                EventBody::Close {
                    session: 9,
                    size: 4608,
                },
            ),
            mk(15, 3, EventBody::Delete { job: 40, file: 7 }),
            mk(16, u16::MAX, EventBody::JobEnd { job: 40 }),
        ]
    }

    #[test]
    fn segment_round_trips_every_tag() {
        let events = sample_events();
        let mut builder = SegmentBuilder::default();
        for e in &events {
            builder.push(e);
        }
        let mut out = Vec::new();
        let zone = builder.finish(&mut out);
        assert_eq!(zone.rows, events.len() as u32);
        assert_eq!(zone.offset, 0);
        assert_eq!(zone.len, out.len() as u64);
        let decoded = decode_segment(&out, zone.rows).expect("decodes");
        assert_eq!(decoded, events);
    }

    #[test]
    fn zone_map_tracks_bounds_and_presence() {
        let events = sample_events();
        let mut builder = SegmentBuilder::default();
        for e in &events {
            builder.push(e);
        }
        let mut out = Vec::new();
        let zone = builder.finish(&mut out);
        assert_eq!(zone.time, Bounds { min: 10, max: 16 });
        assert_eq!(
            zone.node,
            Bounds {
                min: 3,
                max: u16::MAX
            }
        );
        assert_eq!(zone.op_bits, 0b111_1111, "all seven tags present");
        assert_eq!(zone.jobs, Some(Bounds { min: 40, max: 40 }));
        assert_eq!(zone.files, Some(Bounds { min: 7, max: 7 }));

        // A reads-only segment names no jobs or files.
        let mut builder = SegmentBuilder::default();
        builder.push(&OrderedEvent {
            time: SimTime::from_micros(1),
            node: 0,
            body: EventBody::Read {
                session: 1,
                offset: 0,
                bytes: 8,
            },
        });
        let zone = builder.finish(&mut Vec::new());
        assert_eq!(zone.jobs, None);
        assert_eq!(zone.files, None);
        assert_eq!(zone.op_bits, 1 << 4);
    }

    #[test]
    fn zone_map_codec_round_trips() {
        let events = sample_events();
        let mut builder = SegmentBuilder::default();
        for e in &events {
            builder.push(e);
        }
        let zone = builder.finish(&mut Vec::new());
        let mut out = Vec::new();
        zone.encode(&mut out);
        assert_eq!(out.len(), ZoneMap::ENCODED_LEN);
        let mut buf = out.as_slice();
        assert_eq!(ZoneMap::decode(&mut buf).expect("decodes"), zone);
        assert!(buf.is_empty());
    }

    #[test]
    fn corrupt_segments_error_cleanly() {
        let events = sample_events();
        let mut builder = SegmentBuilder::default();
        for e in &events {
            builder.push(e);
        }
        let mut out = Vec::new();
        let zone = builder.finish(&mut out);
        // Row-count disagreement with the index.
        assert!(decode_segment(&out, zone.rows + 1).is_err());
        // Truncation at every prefix length must error, never panic.
        for cut in 0..out.len() {
            assert!(decode_segment(&out[..cut], zone.rows).is_err());
        }
    }
}
