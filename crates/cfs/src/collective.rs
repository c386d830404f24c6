//! Collective I/O — the paper's secondary recommendation.
//!
//! "For some applications, collective I/O requests can lead to even better
//! performance" (paper §5, citing Kotz's disk-directed I/O). In a
//! collective request, all nodes of a job submit their shares of a large
//! parallel transfer together; the file system sees the *whole* access at
//! once and can service each disk in ascending block order — pure
//! sequential disk movement — instead of in whatever order the nodes'
//! individual requests happen to arrive.

use charisma_ipsc::{Machine, SimTime};

use crate::error::CfsError;
use crate::fs::{block_overlap, Cfs, IoOutcome};
use crate::mode::IoMode;

/// One node's share of a collective transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectiveShare {
    /// The participating compute node.
    pub node: u16,
    /// Starting offset of this node's contiguous share.
    pub offset: u64,
    /// Length of the share, bytes.
    pub bytes: u32,
}

/// Outcome of a collective transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectiveOutcome {
    /// Total bytes transferred.
    pub bytes: u64,
    /// Completion time of the whole collective (all shares done).
    pub completion: SimTime,
    /// Network messages exchanged.
    pub messages: u64,
    /// Blocks touched.
    pub blocks: u64,
    /// Blocks served from cache.
    pub cache_hits: u64,
}

impl Cfs {
    /// Service a collective read: every share is announced up front, and
    /// each I/O node serves its blocks in ascending order.
    pub fn collective_read(
        &mut self,
        machine: &Machine,
        session: u32,
        shares: &[CollectiveShare],
        now: SimTime,
    ) -> Result<CollectiveOutcome, CfsError> {
        self.collective(machine, session, shares, now, false)
    }

    /// Service a collective write.
    pub fn collective_write(
        &mut self,
        machine: &Machine,
        session: u32,
        shares: &[CollectiveShare],
        now: SimTime,
    ) -> Result<CollectiveOutcome, CfsError> {
        self.collective(machine, session, shares, now, true)
    }

    /// The baseline: each node issues its share as an independent request
    /// in node order (the arrival interleaving a real machine would see is
    /// somewhere between this and the worst case).
    pub fn collective_as_independent(
        &mut self,
        machine: &Machine,
        session: u32,
        shares: &[CollectiveShare],
        now: SimTime,
        is_write: bool,
    ) -> Result<CollectiveOutcome, CfsError> {
        let mut out = CollectiveOutcome {
            bytes: 0,
            completion: now,
            messages: 0,
            blocks: 0,
            cache_hits: 0,
        };
        for share in shares {
            self.seek(session, share.node, share.offset)?;
            let o: IoOutcome = if is_write {
                self.write(machine, session, share.node, share.bytes, now)?
            } else {
                self.read(machine, session, share.node, share.bytes, now)?
            };
            out.bytes += u64::from(o.bytes);
            out.messages += o.messages;
            out.blocks += o.blocks;
            out.cache_hits += o.cache_hits;
            out.completion = out.completion.max(o.completion);
        }
        Ok(out)
    }

    fn collective(
        &mut self,
        machine: &Machine,
        session: u32,
        shares: &[CollectiveShare],
        now: SimTime,
        is_write: bool,
    ) -> Result<CollectiveOutcome, CfsError> {
        let (file, mode, can) = self.session_info(session)?;
        if mode != IoMode::Independent {
            return Err(CfsError::WrongMode { mode });
        }
        if (is_write && !can.1) || (!is_write && !can.0) {
            return Err(CfsError::AccessDenied { session });
        }
        if is_write {
            let end = shares
                .iter()
                .map(|s| s.offset + u64::from(s.bytes))
                .max()
                .unwrap_or(0);
            self.reserve(file, end)?;
        }

        // Collect every touched block across all shares, then sort by block
        // index: this is what lets each disk stream sequentially.
        let striping = self.striping();
        let size = self.file_size(file).unwrap_or(0);
        let mut touches: Vec<(u64, u32, u16)> = Vec::new();
        let mut payload = 0u64;
        for share in shares {
            self.seek(session, share.node, share.offset + u64::from(share.bytes))?;
            let len = if is_write {
                u64::from(share.bytes)
            } else {
                size.saturating_sub(share.offset)
                    .min(u64::from(share.bytes))
            };
            payload += len;
            for b in striping.blocks_of_request(share.offset, len) {
                touches.push((b, block_overlap(share.offset, len, b), share.node));
            }
        }
        touches.sort_unstable_by_key(|&(b, _, _)| b);
        // Merge duplicate blocks (share boundaries inside one block).
        let mut merged: Vec<(u64, u32)> = Vec::with_capacity(touches.len());
        for &(b, t, _) in &touches {
            match merged.last_mut() {
                Some((lb, lt)) if *lb == b => *lt += t,
                _ => merged.push((b, t)),
            }
        }

        // One request message per participating node announces its share;
        // the data flows between the I/O nodes and the owning compute node.
        // We model the disk-side service with the (sorted) block list
        // charged through node 0's path, then add the per-node reply
        // latencies.
        let announce_node = shares.first().map_or(0, |s| s.node);
        let (serve_done, mut messages, blocks, hits) =
            self.serve_block_list(machine, announce_node, file, &merged, now, is_write)?;
        // The other nodes' announcements and replies.
        let mut completion = serve_done;
        for share in shares.iter().skip(1) {
            messages += 2;
            let reply = machine.io_message_latency(
                share.node as usize,
                0,
                if is_write { 32 } else { u64::from(share.bytes) },
            );
            completion = completion.max(serve_done + reply);
        }
        if is_write {
            self.note_write(mode, payload);
        } else {
            self.note_read(mode, payload);
        }
        Ok(CollectiveOutcome {
            bytes: payload,
            completion,
            messages,
            blocks,
            cache_hits: hits,
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

    fn shares(nodes: u16, each: u32) -> Vec<CollectiveShare> {
        (0..nodes)
            .map(|n| CollectiveShare {
                node: n,
                offset: u64::from(n) * u64::from(each),
                bytes: each,
            })
            .collect()
    }

    fn open_all(fs: &mut Cfs, job: u32, path: &str, access: Access, nodes: u16) -> u32 {
        let mut session = 0;
        for n in 0..nodes {
            session = fs
                .open(job, path, access, IoMode::Independent, n, false)
                .unwrap()
                .session;
        }
        session
    }

    #[test]
    fn collective_write_then_collective_read() {
        let (m, mut fs) = setup();
        let s = open_all(&mut fs, 1, "matrix", Access::Write, 4);
        let w = fs
            .collective_write(&m, s, &shares(4, 64 * 1024), t0())
            .unwrap();
        assert_eq!(w.bytes, 4 * 64 * 1024);
        assert_eq!(fs.file_size(0), Some(4 * 64 * 1024));
        for n in 0..4 {
            fs.close(s, n).unwrap();
        }
        let s2 = open_all(&mut fs, 2, "matrix", Access::Read, 4);
        let r = fs
            .collective_read(&m, s2, &shares(4, 64 * 1024), t0())
            .unwrap();
        assert_eq!(r.bytes, 4 * 64 * 1024);
    }

    #[test]
    fn collective_beats_independent_interleaved_arrivals() {
        // Independent requests from different nodes interleave on the disks
        // and pay positioning; the collective sorts them.
        let (m, mut fs) = setup();
        // Write a large file, then blow the cache so reads hit disk.
        let s = open_all(&mut fs, 1, "data", Access::Write, 1);
        for _ in 0..8 {
            fs.write(&m, s, 0, 1 << 20, t0()).unwrap();
        }
        fs.close(s, 0).unwrap();

        // Interleaved shares: node n takes every 4th 16 KB chunk — the
        // independent baseline makes each disk hop between far-apart
        // blocks as the four nodes' requests interleave.
        let mut interleaved = Vec::new();
        for round in 0..16u64 {
            for n in 0..4u16 {
                interleaved.push(CollectiveShare {
                    node: n,
                    offset: (round * 4 + u64::from(n)) * 16384,
                    bytes: 16384,
                });
            }
        }
        // Reorder so arrivals ping-pong across the file (worst case for
        // the independent baseline).
        let mut ping_pong = interleaved.clone();
        ping_pong.sort_unstable_by_key(|s| (s.node, s.offset));

        let s1 = open_all(&mut fs, 2, "data", Access::Read, 4);
        let col = fs.collective_read(&m, s1, &interleaved, t0()).unwrap();
        for n in 0..4 {
            fs.close(s1, n).unwrap();
        }
        let s2 = open_all(&mut fs, 3, "data", Access::Read, 4);
        let ind = fs
            .collective_as_independent(&m, s2, &ping_pong, t0(), false)
            .unwrap();

        assert_eq!(col.bytes, ind.bytes);
        assert!(col.messages < ind.messages);
    }

    #[test]
    fn collective_requires_mode_0() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::RoundRobin, 0, false)
            .unwrap();
        assert_eq!(
            fs.collective_write(&m, o.session, &shares(1, 1024), t0()),
            Err(CfsError::WrongMode {
                mode: IoMode::RoundRobin
            })
        );
    }

    #[test]
    fn empty_collective_is_a_noop() {
        let (m, mut fs) = setup();
        let s = open_all(&mut fs, 1, "f", Access::Write, 1);
        let out = fs.collective_write(&m, s, &[], t0()).unwrap();
        assert_eq!(out.bytes, 0);
        assert_eq!(out.blocks, 0);
    }
}
