//! Disk service-time model.
//!
//! Each NAS I/O node had "a single 760 MB disk drive", and the machine's
//! total bandwidth was "less than 10 MB/s" — i.e. roughly 1 MB/s per disk
//! sustained. We model a block access as positioning (seek + rotation,
//! skipped when the access is physically sequential to the previous one)
//! plus transfer at the sustained rate. That first-order model is enough to
//! reproduce the phenomenon the paper cares about: small requests are
//! dominated by positioning, and batching/sorting (caching, strided,
//! collective I/O) wins by avoiding it.

use charisma_ipsc::{round_u64, Duration, SimTime};

/// Disk timing parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskModel {
    /// Average positioning cost (seek + rotational latency), µs. Early-90s
    /// SCSI drives: ~15 ms seek + ~8 ms rotation at 3600 rpm halves.
    pub position_us: u64,
    /// Transfer cost per byte, µs (≈1 µs/byte for ~1 MB/s sustained).
    pub per_byte_us: f64,
    /// Fixed per-request controller overhead, µs.
    pub overhead_us: u64,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel {
            position_us: 19_000,
            per_byte_us: 1.0,
            overhead_us: 500,
        }
    }
}

impl DiskModel {
    /// Service time for one block access of `bytes` bytes.
    /// `sequential` marks accesses physically contiguous with the previous
    /// one on the same disk, which skip positioning.
    pub fn service(&self, bytes: u64, sequential: bool) -> Duration {
        let position = if sequential { 0 } else { self.position_us };
        Duration::from_micros(
            self.overhead_us + position + round_u64(self.per_byte_us * bytes as f64),
        )
    }

    /// Both service times of a `bytes`-byte block access, worked out once
    /// for every block of a request.
    pub fn block_service(&self, bytes: u64) -> BlockService {
        BlockService {
            positioned: self.service(bytes, false),
            sequential: self.service(bytes, true),
        }
    }
}

/// The service times of one block size under one [`DiskModel`]: with
/// positioning, and for an access sequential to the previous one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockService {
    /// Seek, rotation, overhead and transfer.
    pub positioned: Duration,
    /// Overhead and transfer only.
    pub sequential: Duration,
}

/// Per-disk dynamic state: a single-server FIFO queue plus enough history
/// to detect sequential access.
#[derive(Clone, Debug, Default)]
pub struct DiskState {
    /// Earliest time the disk can start a new request.
    pub next_free: SimTime,
    /// Identity of the last block served, for sequentiality detection:
    /// `(file, block)`.
    pub last_block: Option<(u32, u64)>,
    /// Cumulative busy time, µs (for utilization accounting).
    pub busy_us: u64,
    /// Number of block reads served from the platter.
    pub reads: u64,
    /// Number of block writes served by the platter.
    pub writes: u64,
}

impl DiskState {
    /// Whether an access to `(file, block)` is sequential to the last one.
    pub fn is_sequential(&self, file: u32, block: u64) -> bool {
        match self.last_block {
            // Same block (re-read / rewrite) or the physically next block
            // of the same file on this disk.
            Some((f, b)) => f == file && (block == b || block > b && block - b <= 16),
            None => false,
        }
    }

    /// Serve a block access arriving at `arrival`; returns completion time.
    pub fn serve(
        &mut self,
        model: &DiskModel,
        file: u32,
        block: u64,
        bytes: u64,
        arrival: SimTime,
        is_write: bool,
    ) -> SimTime {
        let service = model.block_service(bytes);
        self.serve_degraded(service, file, block, arrival, is_write, 0)
    }

    /// [`DiskState::serve`] of a block whose service times are `service`,
    /// inflated by `degrade_ppm` parts-per-million (fault injection's model
    /// of a disk in media retry / thermal-recalibration trouble). `0` is
    /// exactly `serve`.
    pub fn serve_degraded(
        &mut self,
        service: BlockService,
        file: u32,
        block: u64,
        arrival: SimTime,
        is_write: bool,
        degrade_ppm: u32,
    ) -> SimTime {
        let start = self.next_free.max(arrival);
        let mut service = if self.is_sequential(file, block) {
            service.sequential
        } else {
            service.positioned
        };
        if degrade_ppm > 0 {
            let extra = service.as_micros() * u64::from(degrade_ppm) / 1_000_000;
            service += Duration::from_micros(extra);
        }
        let done = start + service;
        self.next_free = done;
        self.last_block = Some((file, block));
        self.busy_us += service.as_micros();
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positioning_dominates_small_requests() {
        let m = DiskModel::default();
        let random = m.service(512, false);
        let seq = m.service(512, true);
        assert!(random.as_micros() > 10 * seq.as_micros());
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let m = DiskModel::default();
        let small = m.service(4096, true);
        let large = m.service(65536, true);
        assert!(large.as_micros() > small.as_micros());
        // ~1 MB/s: 64 KB should take ~65 ms of transfer.
        assert!((60_000..80_000).contains(&large.as_micros()));
    }

    #[test]
    fn queue_serializes_requests() {
        let m = DiskModel::default();
        let mut d = DiskState::default();
        let t0 = SimTime::from_secs(1);
        let c1 = d.serve(&m, 1, 0, 4096, t0, false);
        let c2 = d.serve(&m, 1, 1, 4096, t0, false);
        assert!(c2 > c1, "second request waits behind the first");
        assert_eq!(d.reads, 2);
    }

    #[test]
    fn sequential_detection() {
        let mut d = DiskState::default();
        assert!(!d.is_sequential(1, 0), "cold disk seeks");
        d.last_block = Some((1, 10));
        assert!(d.is_sequential(1, 10), "same block");
        assert!(d.is_sequential(1, 11), "next block");
        assert!(d.is_sequential(1, 20), "near-next block (track buffer)");
        assert!(!d.is_sequential(1, 100), "far block seeks");
        assert!(!d.is_sequential(2, 11), "different file seeks");
        assert!(!d.is_sequential(1, 9), "backwards seeks");
    }

    #[test]
    fn idle_disk_starts_immediately() {
        let m = DiskModel::default();
        let mut d = DiskState::default();
        let arrival = SimTime::from_secs(100);
        let done = d.serve(&m, 1, 0, 4096, arrival, true);
        assert_eq!(done, arrival + m.service(4096, false));
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn degraded_service_inflates_and_zero_is_identity() {
        let m = DiskModel::default();
        let mut a = DiskState::default();
        let mut b = DiskState::default();
        let base = a.serve(&m, 1, 0, 4096, SimTime::ZERO, false);
        let same = b.serve_degraded(m.block_service(4096), 1, 0, SimTime::ZERO, false, 0);
        assert_eq!(base, same, "degrade 0 must be exactly serve");
        let mut c = DiskState::default();
        let slow = c.serve_degraded(m.block_service(4096), 1, 0, SimTime::ZERO, false, 250_000);
        // 25 % slower than the baseline service time.
        let expected = base.as_micros() + base.as_micros() / 4;
        assert_eq!(slow.as_micros(), expected);
    }

    #[test]
    fn busy_accounting_accumulates() {
        let m = DiskModel::default();
        let mut d = DiskState::default();
        d.serve(&m, 1, 0, 4096, SimTime::ZERO, false);
        d.serve(&m, 1, 1, 4096, SimTime::ZERO, false);
        let expected = m.service(4096, false).as_micros() + m.service(4096, true).as_micros();
        assert_eq!(d.busy_us, expected);
    }
}
