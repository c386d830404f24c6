//! Write-behind and write absorption at the I/O nodes.
//!
//! "One advantage of buffers is to combine several small requests (which
//! were common in this workload) into a few larger requests that can be
//! more efficiently served by disk hardware. Indeed, with RAID disk
//! arrays … it is even more important to avoid small requests at the disk
//! level." (paper §4.8; the mechanism is studied in Kotz & Ellis's
//! "Caching and writeback policies in parallel file systems" \[19\].)
//!
//! This simulator measures exactly that: how many *disk* writes result
//! from the workload's stream of small write requests under
//!
//! * [`FlushPolicy::WriteThrough`] — every request goes to disk as-is
//!   (the baseline the paper argues against);
//! * [`FlushPolicy::WriteBehind`] — dirty blocks accumulate in the
//!   I/O-node cache and are written once, on eviction or at the end;
//! * [`FlushPolicy::Watermark`] — write-behind with a high-watermark
//!   flusher that cleans the oldest dirty blocks in batches, modeling a
//!   syncer daemon that bounds the amount of dirty data at risk.

use std::collections::{BTreeMap, VecDeque};

use charisma_trace::record::EventBody;
use charisma_trace::OrderedEvent;

use crate::prep::{block_span, SessionIndex};

/// When dirty blocks are written to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlushPolicy {
    /// Each write request is sent to disk immediately.
    WriteThrough,
    /// Dirty blocks flush only on eviction (or at trace end).
    WriteBehind,
    /// Write-behind, but when dirty blocks exceed `high` the flusher
    /// cleans the oldest down to `low`.
    Watermark {
        /// Dirty-block count that triggers the flusher.
        high: usize,
        /// Dirty-block count the flusher drains to.
        low: usize,
    },
}

/// Result of a write-absorption run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WritebackResult {
    /// Policy used.
    pub policy: FlushPolicy,
    /// Write requests observed.
    pub write_requests: u64,
    /// Distinct block-touches by those writes.
    pub block_writes: u64,
    /// Writes actually issued to disk.
    pub disk_writes: u64,
    /// Peak number of dirty blocks held in memory.
    pub peak_dirty: usize,
}

impl WritebackResult {
    /// Absorption factor: application block-writes per disk write (the
    /// "combine several small requests" win; 1.0 means no absorption).
    pub fn absorption(&self) -> f64 {
        self.block_writes as f64 / self.disk_writes.max(1) as f64
    }
}

/// Run the write-absorption simulation over a trace's write stream.
///
/// `capacity` is the total dirty-block budget across the I/O nodes (clean
/// data is assumed to be managed separately, so this isolates the
/// write-behind question).
pub fn writeback_sim(
    events: &[OrderedEvent],
    index: &SessionIndex,
    capacity: usize,
    policy: FlushPolicy,
) -> WritebackResult {
    let mut out = WritebackResult {
        policy,
        write_requests: 0,
        block_writes: 0,
        disk_writes: 0,
        peak_dirty: 0,
    };
    // Dirty set with FIFO age order (oldest first out).
    let mut dirty: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut age: VecDeque<((u32, u64), u64)> = VecDeque::new();
    let mut stamp = 0u64;

    let flush_oldest = |dirty: &mut BTreeMap<(u32, u64), u64>,
                        age: &mut VecDeque<((u32, u64), u64)>,
                        out: &mut WritebackResult| {
        while let Some((key, s)) = age.pop_front() {
            if dirty.get(&key) == Some(&s) {
                dirty.remove(&key);
                out.disk_writes += 1;
                return;
            }
            // Stale entry (block re-dirtied later): skip.
        }
    };

    for e in events {
        let EventBody::Write {
            session,
            offset,
            bytes,
        } = e.body
        else {
            continue;
        };
        let Some((first, last, _)) = block_span(offset, bytes) else {
            continue;
        };
        let Some(facts) = index.get(session) else {
            continue;
        };
        out.write_requests += 1;
        for b in first..=last {
            out.block_writes += 1;
            match policy {
                FlushPolicy::WriteThrough => {
                    out.disk_writes += 1;
                }
                FlushPolicy::WriteBehind | FlushPolicy::Watermark { .. } => {
                    stamp += 1;
                    let key = (facts.file, b);
                    // Re-dirtying refreshes the age.
                    dirty.insert(key, stamp);
                    age.push_back((key, stamp));
                    if dirty.len() > capacity {
                        flush_oldest(&mut dirty, &mut age, &mut out);
                    }
                    if let FlushPolicy::Watermark { high, low } = policy {
                        if dirty.len() >= high {
                            while dirty.len() > low {
                                flush_oldest(&mut dirty, &mut age, &mut out);
                            }
                        }
                    }
                    out.peak_dirty = out.peak_dirty.max(dirty.len());
                }
            }
        }
    }
    // End of trace: everything dirty goes to disk once.
    out.disk_writes += dirty.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_ipsc::SimTime;
    use charisma_trace::record::AccessKind;

    fn small_writer_trace(records: u64, record: u32) -> Vec<OrderedEvent> {
        let mut events = vec![OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body: EventBody::Open {
                job: 1,
                file: 1,
                session: 1,
                mode: 0,
                access: AccessKind::Write,
                created: true,
            },
        }];
        for k in 0..records {
            events.push(OrderedEvent {
                time: SimTime::from_micros(k),
                node: 0,
                body: EventBody::Write {
                    session: 1,
                    offset: k * u64::from(record),
                    bytes: record,
                },
            });
        }
        events
    }

    #[test]
    fn write_through_issues_one_disk_write_per_block_touch() {
        let events = small_writer_trace(64, 512);
        let idx = SessionIndex::build(&events);
        let r = writeback_sim(&events, &idx, 1024, FlushPolicy::WriteThrough);
        assert_eq!(r.write_requests, 64);
        assert_eq!(r.disk_writes, r.block_writes);
        assert!((r.absorption() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn write_behind_absorbs_small_sequential_writes() {
        // 64 x 512 B = 8 blocks of data: write-behind should reach the
        // ideal 8 disk writes, an 8x absorption (4096/512).
        let events = small_writer_trace(64, 512);
        let idx = SessionIndex::build(&events);
        let r = writeback_sim(&events, &idx, 1024, FlushPolicy::WriteBehind);
        assert_eq!(r.disk_writes, 8);
        assert!((r.absorption() - 8.0).abs() < 1e-12);
        assert!(r.peak_dirty <= 8);
    }

    #[test]
    fn tiny_dirty_budget_limits_absorption() {
        let events = small_writer_trace(64, 512);
        let idx = SessionIndex::build(&events);
        let unlimited = writeback_sim(&events, &idx, 1024, FlushPolicy::WriteBehind);
        let tight = writeback_sim(&events, &idx, 1, FlushPolicy::WriteBehind);
        assert!(tight.disk_writes >= unlimited.disk_writes);
        // Even one dirty buffer still absorbs the 8 writes landing in the
        // same block before it moves on.
        assert!(tight.absorption() > 4.0);
    }

    #[test]
    fn watermark_bounds_dirty_data() {
        let events = small_writer_trace(512, 512);
        let idx = SessionIndex::build(&events);
        let r = writeback_sim(
            &events,
            &idx,
            1024,
            FlushPolicy::Watermark { high: 16, low: 4 },
        );
        assert!(r.peak_dirty <= 16);
        assert!(
            r.absorption() > 4.0,
            "batched cleaning keeps most absorption"
        );
    }

    #[test]
    fn rewrites_are_fully_absorbed() {
        // The same block rewritten 100 times: write-behind sends it to
        // disk once.
        let mut events = small_writer_trace(0, 512);
        for k in 0..100u64 {
            events.push(OrderedEvent {
                time: SimTime::from_micros(k),
                node: 0,
                body: EventBody::Write {
                    session: 1,
                    offset: 0,
                    bytes: 512,
                },
            });
        }
        let idx = SessionIndex::build(&events);
        let r = writeback_sim(&events, &idx, 64, FlushPolicy::WriteBehind);
        assert_eq!(r.disk_writes, 1);
        assert!((r.absorption() - 100.0).abs() < 1e-12);
    }
}
