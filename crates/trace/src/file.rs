//! Trace-file serialization.
//!
//! Layout: header, then blocks. Each block: node (u16), send/recv
//! timestamps (u64 µs each), record count (u32), records. The whole file
//! round-trips through [`write_trace`] / [`read_trace`]; the format is the
//! on-disk twin of the in-memory [`Trace`].

use std::io::{self, Read, Write};

use bytes::{Buf, BufMut};
use charisma_ipsc::SimTime;

use crate::builder::{Block, Trace, NODE_BUFFER_BYTES};
use crate::codec::{self, DecodeError, MAX_RECORD_BYTES, MIN_RECORD_BYTES};
use crate::record::TraceHeader;

/// Bytes of a block header on the wire: node (u16), send and receive
/// timestamps (u64 each), record count (u32).
const BLOCK_HEADER_BYTES: usize = 2 + 8 + 8 + 4;

/// A capacity hint for `declared` items of at least `item_bytes` each,
/// capped at what the `remaining` input bytes can encode. The counts in
/// a file are untrusted: a hint taken from them unchecked lets a few
/// bytes ask for gigabytes.
fn capacity_hint(declared: usize, remaining: usize, item_bytes: usize) -> usize {
    declared.min(remaining / item_bytes)
}

/// Errors raised while reading a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed trace contents.
    Decode(DecodeError),
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

impl From<DecodeError> for TraceFileError {
    fn from(e: DecodeError) -> Self {
        TraceFileError::Decode(e)
    }
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O error: {e}"),
            TraceFileError::Decode(e) => write!(f, "trace file corrupt: {e}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

/// Serialize a trace to a writer.
pub fn write_trace<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    let mut buf = Vec::with_capacity(1 << 16);
    codec::encode_header(&trace.header, &mut buf);
    buf.put_u64_le(trace.blocks.len() as u64);
    w.write_all(&buf)?;
    for block in &trace.blocks {
        buf.clear();
        buf.put_u16_le(block.node);
        buf.put_u64_le(block.send_local.as_micros());
        buf.put_u64_le(block.recv_service.as_micros());
        buf.put_u32_le(block.events.len() as u32);
        for e in &block.events {
            codec::encode_event(e, &mut buf);
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Deserialize a trace from a reader: read it whole, then run a
/// [`TraceStream`] over the bytes to the last block.
pub fn read_trace<R: Read>(mut r: R) -> Result<Trace, TraceFileError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let mut stream = TraceStream::open(raw.as_slice())?;
    let declared = usize::try_from(stream.blocks_left).unwrap_or(usize::MAX);
    let mut blocks = Vec::with_capacity(capacity_hint(
        declared,
        stream.reader.len(),
        BLOCK_HEADER_BYTES,
    ));
    while let Some(block) = stream.next_block()? {
        blocks.push(block);
    }
    Ok(Trace {
        header: stream.header,
        blocks,
    })
}

/// Streaming trace reader: yields one block at a time from any `Read`
/// without materializing the whole trace — the way a real analysis tool
/// walks a multi-hundred-megabyte trace file. It is the format's one
/// parser of block headers and record framing; [`read_trace`] runs it
/// over a whole file's bytes.
pub struct TraceStream<R: Read> {
    reader: R,
    /// The trace's self-descriptive header.
    pub header: TraceHeader,
    blocks_left: u64,
}

impl<R: Read> TraceStream<R> {
    /// Open a stream, parsing the header eagerly.
    pub fn open(mut reader: R) -> Result<Self, TraceFileError> {
        // Header (8-byte magic + 4x u32 + u64 seed = 32 bytes), then the
        // block count (8 bytes).
        let mut head = [0u8; 32];
        read_exact(&mut reader, &mut head)?;
        let header = codec::decode_header(&mut &head[..])?;
        let mut count = [0u8; 8];
        read_exact(&mut reader, &mut count)?;
        Ok(TraceStream {
            reader,
            header,
            blocks_left: u64::from_le_bytes(count),
        })
    }

    /// Number of blocks not yet read.
    pub fn blocks_remaining(&self) -> u64 {
        self.blocks_left
    }

    /// Read the next block, or `None` at end of trace.
    pub fn next_block(&mut self) -> Result<Option<Block>, TraceFileError> {
        if self.blocks_left == 0 {
            return Ok(None);
        }
        self.blocks_left -= 1;
        let mut head = [0u8; BLOCK_HEADER_BYTES];
        read_exact(&mut self.reader, &mut head)?;
        let mut slice = &head[..];
        let node = slice.get_u16_le();
        let send_local = SimTime::from_micros(slice.get_u64_le());
        let recv_service = SimTime::from_micros(slice.get_u64_le());
        let count = slice.get_u32_le() as usize;
        // The stream cannot see how many bytes remain, so the hint is what
        // one 4 KB node buffer can hold.
        let mut events =
            Vec::with_capacity(capacity_hint(count, NODE_BUFFER_BYTES, MIN_RECORD_BYTES));
        // Each record is its tag and timestamp, then the payload whose
        // length the tag fixes.
        let mut record = [0u8; MAX_RECORD_BYTES];
        for _ in 0..count {
            read_exact(&mut self.reader, &mut record[..9])?;
            let tag = record[0];
            let len = 9 + codec::payload_len(tag).ok_or(DecodeError::BadTag(tag))?;
            read_exact(&mut self.reader, &mut record[9..len])?;
            events.push(codec::decode_event(&mut &record[..len])?);
        }
        Ok(Some(Block {
            node,
            send_local,
            recv_service,
            events,
        }))
    }
}

/// [`Read::read_exact`], reporting input that ends early as a truncated
/// trace.
fn read_exact(reader: &mut impl Read, buf: &mut [u8]) -> Result<(), TraceFileError> {
    reader.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => DecodeError::Truncated.into(),
        _ => e.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::record::EventBody;
    use charisma_ipsc::{DriftClock, Duration};

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new(
            TraceHeader {
                version: TraceHeader::VERSION,
                compute_nodes: 2,
                io_nodes: 1,
                block_bytes: 4096,
                seed: 77,
            },
            vec![DriftClock::new(20.0, 100.0), DriftClock::new(-20.0, -100.0)],
            DriftClock::PERFECT,
            vec![Duration::from_micros(200); 2],
        );
        b.log_service(
            SimTime::from_micros(1),
            EventBody::JobStart {
                job: 1,
                nodes: 2,
                traced: true,
            },
        );
        for i in 0..500u64 {
            b.log(
                (i % 2) as usize,
                SimTime::from_micros(10 + i * 7),
                EventBody::Write {
                    session: 5,
                    offset: i * 100,
                    bytes: 100,
                },
            );
        }
        b.log_service(SimTime::from_micros(10_000), EventBody::JobEnd { job: 1 });
        b.finish(SimTime::from_secs(1))
    }

    #[test]
    fn round_trips_exactly() {
        let t = sample_trace();
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();
        let back = read_trace(bytes.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn truncated_file_is_an_error() {
        let t = sample_trace();
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();
        for cut in [10, bytes.len() / 2, bytes.len() - 1] {
            assert!(read_trace(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace {
            header: TraceHeader {
                version: TraceHeader::VERSION,
                compute_nodes: 0,
                io_nodes: 0,
                block_bytes: 4096,
                seed: 0,
            },
            blocks: Vec::new(),
        };
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();
        assert_eq!(read_trace(bytes.as_slice()).unwrap(), t);
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert!(read_trace(&b"not a trace at all"[..]).is_err());
        assert!(read_trace(&[][..]).is_err());
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::record::EventBody;
    use charisma_ipsc::{DriftClock, Duration};

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(
            TraceHeader {
                version: TraceHeader::VERSION,
                compute_nodes: 3,
                io_nodes: 2,
                block_bytes: 4096,
                seed: 42,
            },
            vec![DriftClock::PERFECT; 3],
            DriftClock::PERFECT,
            vec![Duration::from_micros(100); 3],
        );
        for i in 0..700u64 {
            b.log(
                (i % 3) as usize,
                SimTime::from_micros(i * 5),
                EventBody::Write {
                    session: i as u32,
                    offset: i * 64,
                    bytes: 64,
                },
            );
        }
        b.finish(SimTime::from_secs(1))
    }

    #[test]
    fn stream_yields_identical_blocks() {
        let t = sample();
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();
        let mut stream = TraceStream::open(bytes.as_slice()).unwrap();
        assert_eq!(stream.header, t.header);
        assert_eq!(stream.blocks_remaining(), t.blocks.len() as u64);
        let mut got = Vec::new();
        while let Some(block) = stream.next_block().unwrap() {
            got.push(block);
        }
        assert_eq!(got, t.blocks);
        assert_eq!(stream.blocks_remaining(), 0);
    }

    #[test]
    fn stream_rejects_truncation_mid_block() {
        let t = sample();
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();
        bytes.truncate(bytes.len() * 2 / 3);
        let mut stream = TraceStream::open(bytes.as_slice()).unwrap();
        let mut result = Ok(());
        while let Some(r) = stream.next_block().transpose() {
            if let Err(e) = r {
                result = Err(e);
                break;
            }
        }
        assert!(result.is_err(), "mid-block truncation must surface");
    }

    /// Reads `bytes` to the end through a stream.
    fn stream_all(bytes: &[u8]) -> Result<Vec<Block>, TraceFileError> {
        let mut stream = TraceStream::open(bytes)?;
        let mut blocks = Vec::new();
        while let Some(block) = stream.next_block()? {
            blocks.push(block);
        }
        Ok(blocks)
    }

    /// Every prefix of a written trace reads alike through [`read_trace`]
    /// and through a stream run to the end: the whole file as the same
    /// blocks, and each shorter prefix as a truncated trace.
    #[test]
    fn every_prefix_reads_the_same_whole_and_streamed() {
        use crate::record::AccessKind;
        let mut b = TraceBuilder::new(
            TraceHeader {
                version: TraceHeader::VERSION,
                compute_nodes: 2,
                io_nodes: 1,
                block_bytes: 4096,
                seed: 9,
            },
            vec![DriftClock::PERFECT; 2],
            DriftClock::PERFECT,
            vec![Duration::from_micros(100); 2],
        );
        // One record of every tag, on both nodes and the service node.
        let (job, session) = (4, 8);
        let bodies = [
            EventBody::Open {
                job,
                file: 2,
                session,
                mode: 1,
                access: AccessKind::ReadWrite,
                created: true,
            },
            EventBody::Read {
                session,
                offset: 0,
                bytes: 512,
            },
            EventBody::Write {
                session,
                offset: 512,
                bytes: 64,
            },
            EventBody::Close { session, size: 576 },
            EventBody::Delete { job, file: 2 },
        ];
        b.log_service(
            SimTime::from_micros(1),
            EventBody::JobStart {
                job,
                nodes: 2,
                traced: true,
            },
        );
        for (i, body) in bodies.into_iter().enumerate() {
            b.log(i % 2, SimTime::from_micros(10 * i as u64 + 10), body);
        }
        b.log_service(SimTime::from_micros(100), EventBody::JobEnd { job });
        let t = b.finish(SimTime::from_secs(1));
        let mut bytes = Vec::new();
        write_trace(&t, &mut bytes).unwrap();
        for cut in 0..=bytes.len() {
            let whole = read_trace(&bytes[..cut]).map(|t| t.blocks);
            let streamed = stream_all(&bytes[..cut]);
            match (whole, streamed) {
                (Ok(whole), Ok(streamed)) => assert_eq!(whole, streamed, "cut {cut}"),
                (whole, streamed) => assert!(
                    matches!(
                        (&whole, &streamed),
                        (
                            Err(TraceFileError::Decode(DecodeError::Truncated)),
                            Err(TraceFileError::Decode(DecodeError::Truncated))
                        )
                    ),
                    "cut {cut}: {whole:?} vs {streamed:?}"
                ),
            }
        }
        assert_eq!(read_trace(bytes.as_slice()).unwrap(), t);
    }

    #[test]
    fn stream_rejects_bad_header() {
        assert!(
            TraceStream::open(&b"definitely not a trace file...................."[..]).is_err()
        );
    }
}
