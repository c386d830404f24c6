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
    if buf.remaining() < payload_len(tag).ok_or(DecodeError::BadTag(tag))? {
        return Err(DecodeError::Truncated);
    }
    let body = match tag {
        1 => EventBody::JobStart {
            job: buf.get_u32_le(),
            nodes: buf.get_u16_le(),
            traced: buf.get_u8() != 0,
        },
        2 => EventBody::JobEnd {
            job: buf.get_u32_le(),
        },
        3 => EventBody::Open {
            job: buf.get_u32_le(),
            file: buf.get_u32_le(),
            session: buf.get_u32_le(),
            mode: buf.get_u8(),
            access: {
                let code = buf.get_u8();
                AccessKind::from_code(code).ok_or(DecodeError::BadAccess(code))?
            },
            created: buf.get_u8() != 0,
        },
        4 => EventBody::Close {
            session: buf.get_u32_le(),
            size: buf.get_u64_le(),
        },
        5 | 6 => {
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
        7 => EventBody::Delete {
            job: buf.get_u32_le(),
            file: buf.get_u32_le(),
        },
        t => return Err(DecodeError::BadTag(t)),
    };
    Ok(Event { local_time, body })
}

/// Encoded size of one event, in bytes (used to model the 4 KB node buffer).
pub fn encoded_len(e: &Event) -> usize {
    9 + payload_len(e.body.tag()).unwrap_or_default()
}

/// Bytes of the shortest record on the wire: the 9-byte (tag +
/// timestamp) prefix plus the smallest [`payload_len`] (`JobEnd`'s 4).
pub(crate) const MIN_RECORD_BYTES: usize = 9 + 4;

/// Bytes of the longest record on the wire: the 9-byte prefix plus the
/// largest [`payload_len`] (`Read`'s and `Write`'s 16).
pub(crate) const MAX_RECORD_BYTES: usize = 9 + 16;

/// Bytes of payload following the 9-byte (tag + timestamp) prefix, per
/// record tag; `None` for unknown tags. The one record-length table:
/// the decoder checks against it, [`encoded_len`] sums it, and the
/// streaming reader sizes its reads from it.
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
        let longest = (0..=u8::MAX).filter_map(payload_len).max();
        assert_eq!(longest.map(|p| 9 + p), Some(MAX_RECORD_BYTES));
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
