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
use crate::codec::{self, DecodeError, MIN_RECORD_BYTES};

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

/// Deserialize a trace from a reader.
pub fn read_trace<R: Read>(mut r: R) -> Result<Trace, TraceFileError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let mut buf = raw.as_slice();
    let header = codec::decode_header(&mut buf)?;
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated.into());
    }
    let nblocks = buf.get_u64_le() as usize;
    let mut blocks =
        Vec::with_capacity(capacity_hint(nblocks, buf.remaining(), BLOCK_HEADER_BYTES));
    for _ in 0..nblocks {
        if buf.remaining() < BLOCK_HEADER_BYTES {
            return Err(DecodeError::Truncated.into());
        }
        let node = buf.get_u16_le();
        let send_local = SimTime::from_micros(buf.get_u64_le());
        let recv_service = SimTime::from_micros(buf.get_u64_le());
        let count = buf.get_u32_le() as usize;
        let mut events =
            Vec::with_capacity(capacity_hint(count, buf.remaining(), MIN_RECORD_BYTES));
        for _ in 0..count {
            events.push(codec::decode_event(&mut buf)?);
        }
        blocks.push(Block {
            node,
            send_local,
            recv_service,
            events,
        });
    }
    Ok(Trace { header, blocks })
}

/// A trace salvaged by [`read_trace_tolerant`], with the damage report.
#[derive(Debug)]
pub struct TolerantTrace {
    /// Everything that could be recovered.
    pub trace: Trace,
    /// What was lost along the way.
    pub stats: codec::DecodeStats,
}

/// Deserialize a trace, salvaging past corrupt records instead of
/// aborting.
///
/// The header must be intact (there is nothing to salvage without one);
/// after that, a corrupt record resynchronizes via the codec's
/// chain-validated scan, a corrupt region is charged to
/// [`codec::DecodeStats`], and a file that ends mid-structure returns
/// every block recovered so far with `stats.truncated` set.
pub fn read_trace_tolerant<R: Read>(mut r: R) -> Result<TolerantTrace, TraceFileError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let mut buf = raw.as_slice();
    let header = codec::decode_header(&mut buf)?;
    let mut stats = codec::DecodeStats::default();
    let mut blocks = Vec::new();
    if buf.remaining() < 8 {
        stats.truncated = true;
        return Ok(TolerantTrace {
            trace: Trace { header, blocks },
            stats,
        });
    }
    let nblocks = buf.get_u64_le() as usize;
    'blocks: for _ in 0..nblocks {
        if buf.remaining() < BLOCK_HEADER_BYTES {
            stats.truncated = true;
            break;
        }
        let node = buf.get_u16_le();
        let send_local = SimTime::from_micros(buf.get_u64_le());
        let recv_service = SimTime::from_micros(buf.get_u64_le());
        let count = buf.get_u32_le() as usize;
        let mut events =
            Vec::with_capacity(capacity_hint(count, buf.remaining(), MIN_RECORD_BYTES));
        // A corrupt region inside a block is assumed to hide one record
        // (in-place corruption); `consumed` tracks decoded + skipped so
        // the block still ends where its record count says it does.
        let mut consumed = 0usize;
        while consumed < count {
            let before = buf;
            match codec::decode_event(&mut buf) {
                Ok(e) => {
                    events.push(e);
                    stats.records_decoded += 1;
                    consumed += 1;
                }
                Err(err) => {
                    let mut resumed = false;
                    for skip in 1..before.len() {
                        if codec::chain_validates(&before[skip..]) {
                            stats.records_skipped += 1;
                            stats.bytes_skipped += skip as u64;
                            buf = &before[skip..];
                            consumed += 1;
                            resumed = true;
                            break;
                        }
                    }
                    if !resumed {
                        stats.bytes_skipped += before.len() as u64;
                        if matches!(err, DecodeError::Truncated) {
                            stats.truncated = true;
                        } else {
                            stats.records_skipped += 1;
                        }
                        blocks.push(Block {
                            node,
                            send_local,
                            recv_service,
                            events,
                        });
                        break 'blocks;
                    }
                }
            }
        }
        blocks.push(Block {
            node,
            send_local,
            recv_service,
            events,
        });
    }
    Ok(TolerantTrace {
        trace: Trace { header, blocks },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::record::{EventBody, TraceHeader};
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

/// Streaming trace reader: yields one block at a time from any `Read`
/// without materializing the whole trace — the way a real analysis tool
/// walks a multi-hundred-megabyte trace file.
pub struct TraceStream<R: Read> {
    reader: R,
    /// The trace's self-descriptive header.
    pub header: crate::record::TraceHeader,
    blocks_left: u64,
}

impl<R: Read> TraceStream<R> {
    /// Open a stream, parsing the header eagerly.
    pub fn open(mut reader: R) -> Result<Self, TraceFileError> {
        // Header (8-byte magic + 4x u32 + u64 seed = 32 bytes), then the
        // block count (8 bytes).
        let mut head = [0u8; 32];
        reader.read_exact(&mut head).map_err(TraceFileError::Io)?;
        let mut slice = &head[..];
        let header = codec::decode_header(&mut slice)?;
        let mut count = [0u8; 8];
        reader.read_exact(&mut count).map_err(TraceFileError::Io)?;
        let blocks_left = u64::from_le_bytes(count);
        Ok(TraceStream {
            reader,
            header,
            blocks_left,
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
        self.reader
            .read_exact(&mut head)
            .map_err(TraceFileError::Io)?;
        let mut slice = &head[..];
        let node = slice.get_u16_le();
        let send_local = SimTime::from_micros(slice.get_u64_le());
        let recv_service = SimTime::from_micros(slice.get_u64_le());
        let count = slice.get_u32_le() as usize;
        // Events are variable-length; read them one at a time through a
        // small buffer (records are <= 32 bytes on the wire). The stream
        // cannot see how many bytes remain, so the hint is what one 4 KB
        // node buffer can hold.
        let mut events =
            Vec::with_capacity(capacity_hint(count, NODE_BUFFER_BYTES, MIN_RECORD_BYTES));
        let mut buf = Vec::new();
        for _ in 0..count {
            // Tag + timestamp first, then the tag-dependent payload.
            let mut fixed = [0u8; 9];
            self.reader
                .read_exact(&mut fixed)
                .map_err(TraceFileError::Io)?;
            let payload_len = codec::payload_len(fixed[0]).ok_or(DecodeError::BadTag(fixed[0]))?;
            buf.clear();
            buf.extend_from_slice(&fixed);
            let start = buf.len();
            buf.resize(start + payload_len, 0);
            self.reader
                .read_exact(&mut buf[start..])
                .map_err(TraceFileError::Io)?;
            let mut slice = buf.as_slice();
            events.push(codec::decode_event(&mut slice)?);
        }
        Ok(Some(Block {
            node,
            send_local,
            recv_service,
            events,
        }))
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::record::{EventBody, TraceHeader};
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

    #[test]
    fn stream_rejects_bad_header() {
        assert!(
            TraceStream::open(&b"definitely not a trace file...................."[..]).is_err()
        );
    }
}
