//! §4.7 and Figure 7: file sharing.
//!
//! "A file is shared if more than one job or process opens it. It is
//! concurrently shared if the opens overlap in time." Within a job,
//! concurrent sharing is the norm; between jobs it was absent. Figure 7
//! looks *inside* concurrently multi-node-opened files: what fraction of
//! each file's bytes (and 4 KB blocks) was touched by more than one node.

use crate::analyze::{Characterization, IntMap, SessionClass, SessionStat};
use crate::cdf::Cdf;

/// Granularity of the sharing measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// Exact byte ranges.
    Bytes,
    /// 4 KB blocks (a byte touch marks the whole block).
    Blocks,
}

/// Percent of a session's touched bytes (or blocks) touched by ≥2 nodes.
/// `None` if fewer than two nodes issued requests.
pub fn shared_percent(s: &SessionStat, granularity: Granularity) -> Option<f64> {
    if s.accessing_nodes() < 2 {
        return None;
    }
    // Sweep over each node's disjoint coverage; count union and overlap.
    let mut edges: Vec<(u64, i32)> = Vec::new();
    for n in &s.nodes {
        for &(start, end) in &n.merged_segments() {
            let (start, end) = match granularity {
                Granularity::Bytes => (start, end),
                Granularity::Blocks => (start / 4096 * 4096, end.div_ceil(4096) * 4096),
            };
            edges.push((start, 1));
            edges.push((end, -1));
        }
    }
    edges.sort_unstable();
    let mut depth = 0i32;
    let mut last = 0u64;
    let mut union = 0u64;
    let mut shared = 0u64;
    for (x, d) in edges {
        if depth >= 1 {
            union += x - last;
        }
        if depth >= 2 {
            shared += x - last;
        }
        last = x;
        depth += d;
    }
    if union == 0 {
        return None;
    }
    Some(100.0 * shared as f64 / union as f64)
}

/// Figure 7's CDFs: sharing percentage distributions by class and
/// granularity.
#[derive(Clone, Debug)]
pub struct SharingCdfs {
    /// Read-only files, byte granularity.
    pub read_bytes: Cdf,
    /// Read-only files, block granularity.
    pub read_blocks: Cdf,
    /// Write-only files, byte granularity.
    pub write_bytes: Cdf,
    /// Write-only files, block granularity.
    pub write_blocks: Cdf,
    /// Read-write files, byte granularity.
    pub rw_bytes: Cdf,
    /// Read-write files, block granularity.
    pub rw_blocks: Cdf,
}

/// Build Figure 7 over the concurrently multi-node-opened sessions.
pub fn sharing_cdfs(c: &Characterization) -> SharingCdfs {
    let mut out = SharingCdfs {
        read_bytes: Cdf::new(),
        read_blocks: Cdf::new(),
        write_bytes: Cdf::new(),
        write_blocks: Cdf::new(),
        rw_bytes: Cdf::new(),
        rw_blocks: Cdf::new(),
    };
    for s in c.sessions.values() {
        let (Some(b), Some(k)) = (
            shared_percent(s, Granularity::Bytes),
            shared_percent(s, Granularity::Blocks),
        ) else {
            continue;
        };
        let (b, k) = (b.round() as u64, k.round() as u64);
        match s.class() {
            SessionClass::ReadOnly => {
                out.read_bytes.add(b);
                out.read_blocks.add(k);
            }
            SessionClass::WriteOnly => {
                out.write_bytes.add(b);
                out.write_blocks.add(k);
            }
            SessionClass::ReadWrite => {
                out.rw_bytes.add(b);
                out.rw_blocks.add(k);
            }
            SessionClass::Unaccessed => {}
        }
    }
    for cdf in [
        &mut out.read_bytes,
        &mut out.read_blocks,
        &mut out.write_bytes,
        &mut out.write_blocks,
        &mut out.rw_bytes,
        &mut out.rw_blocks,
    ] {
        cdf.seal();
    }
    out
}

/// Count files (paths) concurrently opened by more than one *job* — the
/// paper saw none.
pub fn concurrent_interjob_shares(c: &Characterization) -> usize {
    // Group sessions by file; check pairwise open-window overlap across
    // different jobs.
    let mut by_file: IntMap<u32, Vec<&SessionStat>> = IntMap::default();
    for s in c.sessions.values() {
        by_file.entry(s.file).or_default().push(s);
    }
    let mut count = 0;
    for sessions in by_file.values() {
        let mut found = false;
        for (i, a) in sessions.iter().enumerate() {
            for b in &sessions[i + 1..] {
                if a.job != b.job && a.open_time < b.close_time && b.open_time < a.close_time {
                    found = true;
                }
            }
        }
        if found {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use charisma_ipsc::SimTime;
    use charisma_trace::record::{AccessKind, EventBody};
    use charisma_trace::OrderedEvent;

    fn ev(t: u64, node: u16, body: EventBody) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::from_micros(t),
            node,
            body,
        }
    }

    fn open(job: u32, sid: u32, node: u16, t: u64) -> OrderedEvent {
        ev(
            t,
            node,
            EventBody::Open {
                job,
                file: sid,
                session: sid,
                mode: 0,
                access: AccessKind::Read,
                created: false,
            },
        )
    }

    fn read(sid: u32, node: u16, offset: u64, bytes: u32, t: u64) -> OrderedEvent {
        ev(
            t,
            node,
            EventBody::Read {
                session: sid,
                offset,
                bytes,
            },
        )
    }

    #[test]
    fn broadcast_is_fully_byte_shared() {
        let events = vec![
            open(1, 1, 0, 0),
            open(1, 1, 1, 1),
            read(1, 0, 0, 10_000, 2),
            read(1, 1, 0, 10_000, 3),
        ];
        let c = analyze(&events);
        let s = &c.sessions[&1];
        assert_eq!(shared_percent(s, Granularity::Bytes), Some(100.0));
        assert_eq!(shared_percent(s, Granularity::Blocks), Some(100.0));
    }

    #[test]
    fn disjoint_partitions_share_blocks_not_bytes() {
        // Node 0 writes [0, 6000), node 1 writes [6000, 12000): no byte is
        // shared, but block 1 (4096..8192) is touched by both.
        let events = vec![
            open(1, 1, 0, 0),
            open(1, 1, 1, 1),
            read(1, 0, 0, 6000, 2),
            read(1, 1, 6000, 6000, 3),
        ];
        let c = analyze(&events);
        let s = &c.sessions[&1];
        assert_eq!(shared_percent(s, Granularity::Bytes), Some(0.0));
        let blocks = shared_percent(s, Granularity::Blocks).expect("two nodes");
        // 1 shared block of 3 → 33%.
        assert!((blocks - 100.0 / 3.0).abs() < 1.0, "{blocks}");
    }

    #[test]
    fn interleave_shares_blocks_partially() {
        // 512-byte interleave across 2 nodes: every block is half node 0,
        // half node 1 → 0% bytes, 100% blocks.
        let mut events = vec![open(1, 1, 0, 0), open(1, 1, 1, 1)];
        for k in 0..8u64 {
            let node = (k % 2) as u16;
            events.push(read(1, node, k * 512, 512, 10 + k));
        }
        let c = analyze(&events);
        let s = &c.sessions[&1];
        assert_eq!(shared_percent(s, Granularity::Bytes), Some(0.0));
        assert_eq!(shared_percent(s, Granularity::Blocks), Some(100.0));
    }

    #[test]
    fn single_node_sessions_are_excluded() {
        let events = vec![open(1, 1, 0, 0), read(1, 0, 0, 100, 1)];
        let c = analyze(&events);
        assert_eq!(shared_percent(&c.sessions[&1], Granularity::Bytes), None);
    }

    #[test]
    fn interjob_concurrent_sharing_detected() {
        // Same file (id 7), two jobs, overlapping windows.
        let mut events = vec![
            ev(
                0,
                0,
                EventBody::Open {
                    job: 1,
                    file: 7,
                    session: 1,
                    mode: 0,
                    access: AccessKind::Read,
                    created: false,
                },
            ),
            read(1, 0, 0, 100, 1),
        ];
        events.push(ev(
            5,
            1,
            EventBody::Open {
                job: 2,
                file: 7,
                session: 2,
                mode: 0,
                access: AccessKind::Read,
                created: false,
            },
        ));
        events.push(read(2, 1, 0, 100, 6));
        events.push(ev(
            10,
            0,
            EventBody::Close {
                session: 1,
                size: 100,
            },
        ));
        events.push(ev(
            20,
            1,
            EventBody::Close {
                session: 2,
                size: 100,
            },
        ));
        let c = analyze(&events);
        assert_eq!(concurrent_interjob_shares(&c), 1);
    }

    #[test]
    fn cdfs_split_by_class() {
        let events = vec![
            open(1, 1, 0, 0),
            open(1, 1, 1, 1),
            read(1, 0, 0, 8192, 2),
            read(1, 1, 0, 8192, 3),
        ];
        let c = analyze(&events);
        let cdfs = sharing_cdfs(&c);
        assert_eq!(cdfs.read_bytes.total() as u64, 1);
        assert_eq!(cdfs.write_bytes.total() as u64, 0);
    }
}
