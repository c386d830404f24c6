//! Binary encoding of records and headers.
//!
//! Little-endian, fixed-width fields behind a one-byte tag. The encoding is
//! deliberately boring: the point of the real format was that the file be
//! self-descriptive and portable across the CHARISMA sites, not clever.

use bytes::{Buf, BufMut};
use charisma_ipsc::SimTime;

use crate::record::{AccessKind, Event, EventBody, TraceHeader};

/// Magic bytes opening every trace file.
pub const MAGIC: &[u8; 8] = b"CHARISMA";

/// Errors raised while decoding a trace.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended mid-record.
    Truncated,
    /// An unknown record tag was encountered.
    BadTag(u8),
    /// An unknown access-kind code was encountered.
    BadAccess(u8),
    /// The file does not start with the CHARISMA magic.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "trace truncated mid-record"),
            DecodeError::BadTag(t) => write!(f, "unknown record tag {t}"),
            DecodeError::BadAccess(a) => write!(f, "unknown access kind {a}"),
            DecodeError::BadMagic => write!(f, "missing CHARISMA magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encode the trace header.
pub fn encode_header(h: &TraceHeader, out: &mut Vec<u8>) {
    out.put_slice(MAGIC);
    out.put_u32_le(h.version);
    out.put_u32_le(h.compute_nodes);
    out.put_u32_le(h.io_nodes);
    out.put_u32_le(h.block_bytes);
    out.put_u64_le(h.seed);
}

/// Decode the trace header, advancing `buf`.
pub fn decode_header(buf: &mut &[u8]) -> Result<TraceHeader, DecodeError> {
    if buf.remaining() < MAGIC.len() + 24 {
        return Err(DecodeError::Truncated);
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != TraceHeader::VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    Ok(TraceHeader {
        version,
        compute_nodes: buf.get_u32_le(),
        io_nodes: buf.get_u32_le(),
        block_bytes: buf.get_u32_le(),
        seed: buf.get_u64_le(),
    })
}

/// Encode one event record.
pub fn encode_event(e: &Event, out: &mut Vec<u8>) {
    out.put_u8(e.body.tag());
    out.put_u64_le(e.local_time.as_micros());
    match e.body {
        EventBody::JobStart { job, nodes, traced } => {
            out.put_u32_le(job);
            out.put_u16_le(nodes);
            out.put_u8(u8::from(traced));
        }
        EventBody::JobEnd { job } => out.put_u32_le(job),
        EventBody::Open {
            job,
            file,
            session,
            mode,
            access,
            created,
        } => {
            out.put_u32_le(job);
            out.put_u32_le(file);
            out.put_u32_le(session);
            out.put_u8(mode);
            out.put_u8(access.code());
            out.put_u8(u8::from(created));
        }
        EventBody::Close { session, size } => {
            out.put_u32_le(session);
            out.put_u64_le(size);
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
            out.put_u32_le(session);
            out.put_u64_le(offset);
            out.put_u32_le(bytes);
        }
        EventBody::Delete { job, file } => {
            out.put_u32_le(job);
            out.put_u32_le(file);
        }
    }
}

/// Decode one event record, advancing `buf`.
pub fn decode_event(buf: &mut &[u8]) -> Result<Event, DecodeError> {
    if buf.remaining() < 9 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    let local_time = SimTime::from_micros(buf.get_u64_le());
    let need = |buf: &&[u8], n: usize| {
        if buf.remaining() < n {
            Err(DecodeError::Truncated)
        } else {
            Ok(())
        }
    };
    let body = match tag {
        1 => {
            need(buf, 7)?;
            EventBody::JobStart {
                job: buf.get_u32_le(),
                nodes: buf.get_u16_le(),
                traced: buf.get_u8() != 0,
            }
        }
        2 => {
            need(buf, 4)?;
            EventBody::JobEnd {
                job: buf.get_u32_le(),
            }
        }
        3 => {
            need(buf, 15)?;
            EventBody::Open {
                job: buf.get_u32_le(),
                file: buf.get_u32_le(),
                session: buf.get_u32_le(),
                mode: buf.get_u8(),
                access: {
                    let code = buf.get_u8();
                    AccessKind::from_code(code).ok_or(DecodeError::BadAccess(code))?
                },
                created: buf.get_u8() != 0,
            }
        }
        4 => {
            need(buf, 12)?;
            EventBody::Close {
                session: buf.get_u32_le(),
                size: buf.get_u64_le(),
            }
        }
        5 | 6 => {
            need(buf, 16)?;
            let session = buf.get_u32_le();
            let offset = buf.get_u64_le();
            let bytes = buf.get_u32_le();
            if tag == 5 {
                EventBody::Read {
                    session,
                    offset,
                    bytes,
                }
            } else {
                EventBody::Write {
                    session,
                    offset,
                    bytes,
                }
            }
        }
        7 => {
            need(buf, 8)?;
            EventBody::Delete {
                job: buf.get_u32_le(),
                file: buf.get_u32_le(),
            }
        }
        t => return Err(DecodeError::BadTag(t)),
    };
    Ok(Event { local_time, body })
}

/// Encoded size of one event, in bytes (used to model the 4 KB node buffer).
pub fn encoded_len(e: &Event) -> usize {
    9 + e.body.payload_len()
}

/// Bytes of the shortest record on the wire: the 9-byte (tag +
/// timestamp) prefix plus the smallest [`payload_len`] (`JobEnd`'s 4).
pub(crate) const MIN_RECORD_BYTES: usize = 9 + 4;

/// Bytes of payload following the 9-byte (tag + timestamp) prefix, per
/// record tag; `None` for unknown tags. Used by the streaming reader to
/// size its reads.
pub fn payload_len(tag: u8) -> Option<usize> {
    match tag {
        1 => Some(7),      // JobStart: job u32 + nodes u16 + traced u8
        2 => Some(4),      // JobEnd: job u32
        3 => Some(15),     // Open: job + file + session + mode + access + created
        4 => Some(12),     // Close: session u32 + size u64
        5 | 6 => Some(16), // Read/Write: session u32 + offset u64 + bytes u32
        7 => Some(8),      // Delete: job u32 + file u32
        _ => None,
    }
}

/// Outcome counters of a tolerant decode pass ([`decode_events_tolerant`]
/// and `file::read_trace_tolerant`): what was recovered, what was lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Records successfully decoded.
    pub records_decoded: u64,
    /// Corrupt regions skipped (each region may hide one or more records).
    pub records_skipped: u64,
    /// Total bytes discarded while resynchronizing.
    pub bytes_skipped: u64,
    /// The input ended mid-record (or mid-structure) and the tail was
    /// unrecoverable.
    pub truncated: bool,
}

impl DecodeStats {
    /// Fold another pass's counters into this one.
    pub fn merge(&mut self, other: &DecodeStats) {
        self.records_decoded += other.records_decoded;
        self.records_skipped += other.records_skipped;
        self.bytes_skipped += other.bytes_skipped;
        self.truncated |= other.truncated;
    }
}

/// Records a resync candidate must chain-decode before we accept it. One
/// lucky byte can masquerade as a tag; three consecutive well-formed
/// records starting from a wrong offset is vanishingly unlikely.
const RESYNC_CHAIN: usize = 3;

pub(crate) fn chain_validates(mut buf: &[u8]) -> bool {
    for _ in 0..RESYNC_CHAIN {
        if buf.is_empty() {
            return true;
        }
        if decode_event(&mut buf).is_err() {
            return false;
        }
    }
    true
}

/// Decode a flat record stream, resynchronizing past corrupt bytes
/// instead of aborting.
///
/// On a record error the decoder scans forward one byte at a time until
/// it finds an offset where `RESYNC_CHAIN` consecutive records (or the
/// clean end of the buffer) parse, then resumes there. Every uncorrupted
/// record downstream of a corrupt region is therefore recovered; the
/// region itself is reported in [`DecodeStats`], never silently dropped.
pub fn decode_events_tolerant(mut buf: &[u8]) -> (Vec<Event>, DecodeStats) {
    let mut events = Vec::new();
    let mut stats = DecodeStats::default();
    while !buf.is_empty() {
        let before = buf;
        match decode_event(&mut buf) {
            Ok(e) => {
                events.push(e);
                stats.records_decoded += 1;
            }
            Err(err) => {
                let mut resumed = false;
                for skip in 1..before.len() {
                    if chain_validates(&before[skip..]) {
                        stats.records_skipped += 1;
                        stats.bytes_skipped += skip as u64;
                        buf = &before[skip..];
                        resumed = true;
                        break;
                    }
                }
                if !resumed {
                    // Nothing decodable remains; charge the tail.
                    stats.bytes_skipped += before.len() as u64;
                    if matches!(err, DecodeError::Truncated) {
                        stats.truncated = true;
                    } else {
                        stats.records_skipped += 1;
                    }
                    buf = &[];
                }
            }
        }
    }
    (events, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let t = SimTime::from_micros;
        vec![
            Event {
                local_time: t(0),
                body: EventBody::JobStart {
                    job: 7,
                    nodes: 64,
                    traced: true,
                },
            },
            Event {
                local_time: t(10),
                body: EventBody::Open {
                    job: 7,
                    file: 3,
                    session: 12,
                    mode: 0,
                    access: AccessKind::ReadWrite,
                    created: true,
                },
            },
            Event {
                local_time: t(20),
                body: EventBody::Read {
                    session: 12,
                    offset: u64::MAX - 5,
                    bytes: u32::MAX,
                },
            },
            Event {
                local_time: t(30),
                body: EventBody::Write {
                    session: 12,
                    offset: 4096,
                    bytes: 512,
                },
            },
            Event {
                local_time: t(40),
                body: EventBody::Close {
                    session: 12,
                    size: 1 << 40,
                },
            },
            Event {
                local_time: t(50),
                body: EventBody::Delete { job: 7, file: 3 },
            },
            Event {
                local_time: t(60),
                body: EventBody::JobEnd { job: 7 },
            },
        ]
    }

    #[test]
    fn events_round_trip() {
        for e in sample_events() {
            let mut buf = Vec::new();
            encode_event(&e, &mut buf);
            let mut slice = buf.as_slice();
            let back = decode_event(&mut slice).unwrap();
            assert_eq!(back, e);
            assert!(slice.is_empty(), "no trailing bytes");
        }
    }

    #[test]
    fn stream_of_events_round_trips() {
        let events = sample_events();
        let mut buf = Vec::new();
        for e in &events {
            encode_event(e, &mut buf);
        }
        let mut slice = buf.as_slice();
        let mut back = Vec::new();
        while !slice.is_empty() {
            back.push(decode_event(&mut slice).unwrap());
        }
        assert_eq!(back, events);
    }

    #[test]
    fn header_round_trips() {
        let h = TraceHeader {
            version: TraceHeader::VERSION,
            compute_nodes: 128,
            io_nodes: 10,
            block_bytes: 4096,
            seed: 4994,
        };
        let mut buf = Vec::new();
        encode_header(&h, &mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(decode_header(&mut slice).unwrap(), h);
        assert!(slice.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = vec![b'X'; 40];
        let mut slice = buf.as_mut_slice() as &[u8];
        assert_eq!(decode_header(&mut slice), Err(DecodeError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let e = sample_events()[2];
        let mut buf = Vec::new();
        encode_event(&e, &mut buf);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert_eq!(decode_event(&mut slice), Err(DecodeError::Truncated));
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = vec![99u8];
        buf.extend_from_slice(&[0u8; 8]);
        let mut slice = buf.as_slice();
        assert_eq!(decode_event(&mut slice), Err(DecodeError::BadTag(99)));
    }

    #[test]
    fn tolerant_decode_of_clean_stream_is_lossless() {
        let events = sample_events();
        let mut buf = Vec::new();
        for e in &events {
            encode_event(e, &mut buf);
        }
        let (decoded, stats) = decode_events_tolerant(&buf);
        assert_eq!(decoded, events);
        assert_eq!(
            stats,
            DecodeStats {
                records_decoded: events.len() as u64,
                ..DecodeStats::default()
            }
        );
    }

    #[test]
    fn tolerant_decode_resyncs_past_a_clobbered_record() {
        let events = sample_events();
        let mut buf = Vec::new();
        let mut offsets = vec![0usize];
        for e in &events {
            encode_event(e, &mut buf);
            offsets.push(buf.len());
        }
        // Clobber the middle record entirely (0xFF is never a valid tag).
        let victim = events.len() / 2;
        for b in &mut buf[offsets[victim]..offsets[victim + 1]] {
            *b = 0xFF;
        }
        let (decoded, stats) = decode_events_tolerant(&buf);
        let survivors: Vec<Event> = events
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != victim)
            .map(|(_, e)| *e)
            .collect();
        assert_eq!(decoded, survivors, "all uncorrupted records recovered");
        assert_eq!(stats.records_skipped, 1);
        assert_eq!(
            stats.bytes_skipped,
            (offsets[victim + 1] - offsets[victim]) as u64
        );
        assert!(!stats.truncated);
    }

    #[test]
    fn tolerant_decode_reports_truncation() {
        let events = sample_events();
        let mut buf = Vec::new();
        for e in &events {
            encode_event(e, &mut buf);
        }
        buf.truncate(buf.len() - 3);
        let (decoded, stats) = decode_events_tolerant(&buf);
        assert_eq!(decoded.len(), events.len() - 1);
        assert!(stats.truncated);
    }

    #[test]
    fn tolerant_decode_never_panics_on_garbage() {
        let garbage: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let (_, stats) = decode_events_tolerant(&garbage);
        assert!(stats.records_decoded + stats.records_skipped > 0 || stats.bytes_skipped > 0);
    }

    #[test]
    fn payload_len_matches_actual_encoding() {
        for e in sample_events() {
            let mut v = Vec::new();
            encode_event(&e, &mut v);
            assert_eq!(v.len(), encoded_len(&e), "{e:?}");
            assert_eq!(
                v.len() - 9,
                payload_len(e.body.tag()).expect("valid tag"),
                "{e:?}"
            );
        }
        assert_eq!(payload_len(0), None);
        assert_eq!(payload_len(99), None);
        let shortest = (0..=u8::MAX).filter_map(payload_len).min();
        assert_eq!(shortest.map(|p| 9 + p), Some(MIN_RECORD_BYTES));
    }

    #[test]
    fn records_are_compact_on_the_wire() {
        // The paper buffered ~170 records per 4 KB block; our encoding must
        // be in the same regime for the buffering model to be faithful.
        for e in sample_events() {
            assert!(encoded_len(&e) <= 32, "record too large: {e:?}");
        }
    }
}
