//! Strided requests — the paper's primary interface recommendation.
//!
//! "The current interface forces the programmer to break down large
//! parallel I/O activities into small, non-contiguous requests. … it would
//! be better to support strided I/O requests from the programmer's
//! interface to the compute node, and from the compute node to the I/O
//! node. A strided request can express a regular request and interval size
//! (which were common in our workload), effectively increasing the request
//! size, lowering overhead, and perhaps eliminating the need for
//! compute-node buffers." (paper §5)
//!
//! [`Cfs::read_strided`] expresses the whole `(start, record, stride,
//! count)` pattern in *one* request: each engaged I/O node receives a
//! single request message describing its share, instead of one message per
//! record. The equivalent loop of small seek+read calls is provided for the
//! ablation benchmark.

use charisma_ipsc::{Machine, SimTime};

use crate::error::CfsError;
use crate::fs::{block_overlap, Cfs, IoOutcome};
use crate::mode::IoMode;

/// A regular strided access pattern: `count` records of `record_bytes`
/// bytes, the k-th record starting at `start + k * stride`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StridedSpec {
    /// Offset of the first record.
    pub start: u64,
    /// Bytes per record (the paper's "request size").
    pub record_bytes: u32,
    /// Distance between successive record starts; `stride ==
    /// record_bytes` is consecutive access, larger strides leave the
    /// paper's "interval" between records.
    pub stride: u64,
    /// Number of records.
    pub count: u32,
}

impl StridedSpec {
    /// The paper's *interval size*: bytes skipped between records.
    pub fn interval(&self) -> u64 {
        self.stride.saturating_sub(u64::from(self.record_bytes))
    }

    /// The byte segments (offset, length) the pattern covers.
    pub fn segments(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        (0..u64::from(self.count)).map(move |k| (self.start + k * self.stride, self.record_bytes))
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> u64 {
        u64::from(self.count) * u64::from(self.record_bytes)
    }

    /// Offset one past the final record.
    pub fn end(&self) -> u64 {
        if self.count == 0 {
            self.start
        } else {
            self.start + (u64::from(self.count) - 1) * self.stride + u64::from(self.record_bytes)
        }
    }
}

impl Cfs {
    /// Service an entire strided read as one request.
    ///
    /// Only meaningful in mode 0 (each node describes its own pattern).
    /// The node's file pointer ends just past the last record.
    pub fn read_strided(
        &mut self,
        machine: &Machine,
        session: u32,
        node: u16,
        spec: StridedSpec,
        now: SimTime,
    ) -> Result<IoOutcome, CfsError> {
        self.strided_request(machine, session, node, spec, now, false)
    }

    /// Service an entire strided write as one request.
    pub fn write_strided(
        &mut self,
        machine: &Machine,
        session: u32,
        node: u16,
        spec: StridedSpec,
        now: SimTime,
    ) -> Result<IoOutcome, CfsError> {
        self.strided_request(machine, session, node, spec, now, true)
    }

    /// The baseline the paper complains about: the same pattern issued as
    /// `count` individual seek+read (or seek+write) requests. Returns the
    /// aggregate outcome with the completion of the final request.
    pub fn strided_as_loop(
        &mut self,
        machine: &Machine,
        session: u32,
        node: u16,
        spec: StridedSpec,
        now: SimTime,
        is_write: bool,
    ) -> Result<IoOutcome, CfsError> {
        let mut agg = IoOutcome {
            offset: spec.start,
            bytes: 0,
            completion: now,
            messages: 0,
            blocks: 0,
            cache_hits: 0,
        };
        let mut clock = now;
        for (offset, len) in spec.segments() {
            self.seek(session, node, offset)?;
            let out = if is_write {
                self.write(machine, session, node, len, clock)?
            } else {
                self.read(machine, session, node, len, clock)?
            };
            // Requests are synchronous: the next one leaves after the
            // previous completes (the programmer's loop).
            clock = out.completion;
            agg.bytes += out.bytes;
            agg.messages += out.messages;
            agg.blocks += out.blocks;
            agg.cache_hits += out.cache_hits;
        }
        agg.completion = clock;
        Ok(agg)
    }
}

impl Cfs {
    fn strided_request(
        &mut self,
        machine: &Machine,
        session: u32,
        node: u16,
        spec: StridedSpec,
        now: SimTime,
        is_write: bool,
    ) -> Result<IoOutcome, CfsError> {
        let (file, mode, can) = self.session_info(session)?;
        if mode != IoMode::Independent {
            return Err(CfsError::WrongMode { mode });
        }
        if (is_write && !can.1) || (!is_write && !can.0) {
            return Err(CfsError::AccessDenied { session });
        }
        // Position the pointer at the end of the pattern (Unix-ish).
        self.seek(session, node, spec.end())?;

        if is_write {
            self.reserve(file, spec.end())?;
        }

        // Gather the distinct blocks the pattern touches, with touched-byte
        // counts (records can share a block — that sharing is exactly the
        // intraprocess spatial locality the strided interface exploits).
        let striping = self.striping();
        let mut touches: Vec<(u64, u32)> = Vec::new();
        let mut payload = 0u64;
        for (offset, len) in spec.segments() {
            let len = if is_write {
                u64::from(len)
            } else {
                // Reads truncate at EOF.
                let size = self.file_size(file).unwrap_or(0);
                size.saturating_sub(offset).min(u64::from(len))
            };
            payload += len;
            for b in striping.blocks_of_request(offset, len) {
                let t = block_overlap(offset, len, b);
                match touches.last_mut() {
                    Some((lb, lt)) if *lb == b => *lt += t,
                    _ => touches.push((b, t)),
                }
            }
        }
        let out = self.serve_block_list(machine, node, file, &touches, now, is_write)?;
        if is_write {
            self.note_write(mode, payload);
        } else {
            self.note_read(mode, payload);
        }
        Ok(IoOutcome {
            offset: spec.start,
            bytes: payload as u32,
            completion: out.0,
            messages: out.1,
            blocks: out.2,
            cache_hits: out.3,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{Access, CfsConfig};
    use charisma_ipsc::MachineConfig;

    fn setup() -> (Machine, Cfs) {
        (
            Machine::boot_synchronized(MachineConfig::tiny()),
            Cfs::new(CfsConfig::tiny()),
        )
    }

    fn t0() -> SimTime {
        SimTime::from_secs(1)
    }

    /// The canonical CHARISMA pattern: 64 records of 512 bytes with a
    /// 7.5 KB interval (node 0's share of an 8-node interleaved read).
    fn interleave_spec() -> StridedSpec {
        StridedSpec {
            start: 0,
            record_bytes: 512,
            stride: 512 * 8,
            count: 64,
        }
    }

    fn populate(m: &Machine, fs: &mut Cfs, bytes: u32) -> u32 {
        let o = fs
            .open(1, "in.dat", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        fs.write(m, o.session, 0, bytes, t0()).unwrap();
        fs.close(o.session, 0).unwrap();
        o.file
    }

    #[test]
    fn spec_math() {
        let s = interleave_spec();
        assert_eq!(s.interval(), 512 * 7);
        assert_eq!(s.total_bytes(), 64 * 512);
        assert_eq!(s.end(), 63 * 4096 + 512);
        assert_eq!(s.segments().count(), 64);
    }

    #[test]
    fn strided_read_matches_loop_byte_for_byte() {
        let (m, mut fs) = setup();
        populate(&m, &mut fs, 512 * 8 * 64);
        let spec = interleave_spec();

        let o1 = fs
            .open(2, "in.dat", Access::Read, IoMode::Independent, 0, false)
            .unwrap();
        let strided = fs.read_strided(&m, o1.session, 0, spec, t0()).unwrap();
        fs.close(o1.session, 0).unwrap();

        let o2 = fs
            .open(3, "in.dat", Access::Read, IoMode::Independent, 0, false)
            .unwrap();
        let looped = fs
            .strided_as_loop(&m, o2.session, 0, spec, t0(), false)
            .unwrap();

        assert_eq!(strided.bytes, looped.bytes, "same data transferred");
        assert!(strided.messages < looped.messages / 10);
        assert!(strided.completion < looped.completion);
    }

    #[test]
    fn strided_write_then_sequential_read_back() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "out", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        let spec = StridedSpec {
            start: 0,
            record_bytes: 1024,
            stride: 2048,
            count: 16,
        };
        let w = fs.write_strided(&m, o.session, 0, spec, t0()).unwrap();
        assert_eq!(w.bytes, 16 * 1024);
        assert_eq!(fs.file_size(o.file), Some(spec.end()));
        assert_eq!(fs.tell(o.session, 0).unwrap(), spec.end());
    }

    #[test]
    fn strided_requires_mode_0() {
        let (m, mut fs) = setup();
        populate(&m, &mut fs, 8192);
        let o = fs
            .open(2, "in.dat", Access::Read, IoMode::SharedPointer, 0, false)
            .unwrap();
        assert_eq!(
            fs.read_strided(&m, o.session, 0, interleave_spec(), t0()),
            Err(CfsError::WrongMode {
                mode: IoMode::SharedPointer
            })
        );
    }

    #[test]
    fn strided_read_respects_access_mode() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "w", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        assert!(matches!(
            fs.read_strided(&m, o.session, 0, interleave_spec(), t0()),
            Err(CfsError::AccessDenied { .. })
        ));
    }

    #[test]
    fn strided_read_truncates_at_eof() {
        let (m, mut fs) = setup();
        populate(&m, &mut fs, 1000);
        let o = fs
            .open(2, "in.dat", Access::Read, IoMode::Independent, 0, false)
            .unwrap();
        let spec = StridedSpec {
            start: 0,
            record_bytes: 512,
            stride: 600,
            count: 4,
        };
        let out = fs.read_strided(&m, o.session, 0, spec, t0()).unwrap();
        // Records at 0 (512B), 600 (400B of 512), 1200 (0), 1800 (0).
        assert_eq!(out.bytes, 512 + 400);
    }

    #[test]
    fn zero_count_is_a_cheap_noop() {
        let (m, mut fs) = setup();
        populate(&m, &mut fs, 4096);
        let o = fs
            .open(2, "in.dat", Access::Read, IoMode::Independent, 0, false)
            .unwrap();
        let spec = StridedSpec {
            start: 0,
            record_bytes: 512,
            stride: 1024,
            count: 0,
        };
        let out = fs.read_strided(&m, o.session, 0, spec, t0()).unwrap();
        assert_eq!(out.bytes, 0);
        assert_eq!(out.blocks, 0);
    }

    #[test]
    fn message_savings_grow_with_record_count() {
        // The ablation's core claim, in miniature.
        let (m, mut fs) = setup();
        populate(&m, &mut fs, 512 * 8 * 128);
        let mut last_ratio = 0.0;
        for count in [8u32, 32, 128] {
            let spec = StridedSpec {
                start: 0,
                record_bytes: 512,
                stride: 4096,
                count,
            };
            let o1 = fs
                .open(
                    10 + count,
                    "in.dat",
                    Access::Read,
                    IoMode::Independent,
                    0,
                    false,
                )
                .unwrap();
            let s = fs.read_strided(&m, o1.session, 0, spec, t0()).unwrap();
            fs.close(o1.session, 0).unwrap();
            let o2 = fs
                .open(
                    20 + count,
                    "in.dat",
                    Access::Read,
                    IoMode::Independent,
                    0,
                    false,
                )
                .unwrap();
            let l = fs
                .strided_as_loop(&m, o2.session, 0, spec, t0(), false)
                .unwrap();
            fs.close(o2.session, 0).unwrap();
            let ratio = l.messages as f64 / s.messages as f64;
            assert!(ratio > last_ratio, "savings must grow: {ratio}");
            last_ratio = ratio;
        }
    }
}
