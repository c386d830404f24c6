//! The combined experiment — §4.8's final test.
//!
//! "As a final test, we simulated the combination of a single buffer per
//! compute node and a cache at each of 10 I/O nodes. The result was only
//! a 3 % reduction in the I/O node hit rate when each I/O node had a
//! small cache of 50 buffers. This further suggests that most of the hits
//! in the I/O node cache were indeed a result of interprocess locality."
//!
//! Mechanically: read-only requests first try the compute-node buffer;
//! only its misses — plus all non-read-only traffic — reach the I/O-node
//! caches.

use charisma_cfs::LruCache;
use charisma_trace::record::EventBody;
use charisma_trace::OrderedEvent;

use crate::compute::ComputeCacheSim;
use crate::ionode::IoCacheBank;
use crate::prep::SessionIndex;

/// Result of the combined simulation, with the I/O-only baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CombinedResult {
    /// I/O-node hit rate with no compute-node caches (the baseline).
    pub io_only_hit_rate: f64,
    /// I/O-node hit rate when compute nodes filter with one buffer each.
    pub combined_io_hit_rate: f64,
    /// Compute-node hit rate in the combined configuration.
    pub compute_hit_rate: f64,
}

impl CombinedResult {
    /// The paper's headline: how much the compute-node buffer reduced the
    /// I/O-node hit rate (3 percentage points in the paper).
    pub fn io_hit_rate_reduction(&self) -> f64 {
        self.io_only_hit_rate - self.combined_io_hit_rate
    }

    /// Record this run's hit rates, in basis points (1/100 of a percent),
    /// under the `cachesim.combined.` prefix of `registry`. Gauges, since
    /// rates are not summable across runs.
    pub fn record_metrics(&self, registry: &charisma_obs::MetricsRegistry) {
        let bp = |rate: f64| (rate * 10_000.0).round().max(0.0) as u64;
        registry
            .gauge("cachesim.combined.io_only_hit_rate_bp")
            .record_max(bp(self.io_only_hit_rate));
        registry
            .gauge("cachesim.combined.io_hit_rate_bp")
            .record_max(bp(self.combined_io_hit_rate));
        registry
            .gauge("cachesim.combined.compute_hit_rate_bp")
            .record_max(bp(self.compute_hit_rate));
    }
}

/// Run both configurations over the same trace.
///
/// `compute_buffers` is the per-compute-node buffer count (1 in the
/// paper's final test); `io_nodes` × `buffers_per_io_node` describes the
/// I/O-node bank (10 × 50 in the paper).
pub fn combined_simulation(
    events: &[OrderedEvent],
    index: &SessionIndex,
    compute_buffers: usize,
    io_nodes: usize,
    buffers_per_io_node: usize,
) -> CombinedResult {
    // Baseline: everything reaches the I/O nodes.
    let mut baseline = IoCacheBank::new(io_nodes, io_nodes * buffers_per_io_node, LruCache::new);
    // Combined: compute sim forwards read-only misses; other traffic is
    // fed directly.
    let mut combined = IoCacheBank::new(io_nodes, io_nodes * buffers_per_io_node, LruCache::new);
    let mut compute = ComputeCacheSim::new(index, compute_buffers);

    for e in events {
        let (session, offset, bytes, is_read) = match e.body {
            EventBody::Read {
                session,
                offset,
                bytes,
            } => (session, offset, bytes, true),
            EventBody::Write {
                session,
                offset,
                bytes,
            } => (session, offset, bytes, false),
            _ => continue,
        };
        let Some(facts) = index.get(session) else {
            continue;
        };
        baseline.access_request(facts.file, offset, bytes, !is_read);
        if is_read && facts.read_only {
            compute.observe(e, |file, missing| {
                combined.access_blocks(file, missing);
            });
        } else {
            combined.access_request(facts.file, offset, bytes, !is_read);
        }
    }
    CombinedResult {
        io_only_hit_rate: baseline.hit_rate(),
        combined_io_hit_rate: combined.hit_rate(),
        compute_hit_rate: compute.result.hit_rate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_ipsc::SimTime;
    use charisma_trace::record::AccessKind;

    fn open(file: u32, session: u32) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body: EventBody::Open {
                job: 1,
                file,
                session,
                mode: 0,
                access: AccessKind::Read,
                created: false,
            },
        }
    }

    fn read(session: u32, node: u16, offset: u64, bytes: u32) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::ZERO,
            node,
            body: EventBody::Read {
                session,
                offset,
                bytes,
            },
        }
    }

    #[test]
    fn interprocess_hits_survive_compute_filtering() {
        // 8 nodes interleave 512-byte records: each node touches each block
        // once, so the compute buffer filters *nothing* — the I/O hit rate
        // barely moves. (This is the paper's core §4.8 finding.)
        let mut events = vec![open(1, 1)];
        for r in 0..64u64 {
            for n in 0..8u64 {
                events.push(read(1, n as u16, (r * 8 + n) * 512, 512));
            }
        }
        let idx = SessionIndex::build(&events);
        let r = combined_simulation(&events, &idx, 1, 10, 50);
        assert!(r.io_only_hit_rate > 0.8);
        assert!(
            r.io_hit_rate_reduction().abs() < 0.05,
            "reduction {}",
            r.io_hit_rate_reduction()
        );
    }

    #[test]
    fn intraprocess_hits_are_filtered_out() {
        // One node reading small consecutive records: all the locality is
        // intraprocess, so the compute buffer absorbs it and the I/O-node
        // cache sees only compulsory misses.
        let mut events = vec![open(1, 1)];
        for k in 0..256u64 {
            events.push(read(1, 0, k * 512, 512));
        }
        let idx = SessionIndex::build(&events);
        let r = combined_simulation(&events, &idx, 1, 10, 50);
        assert!(r.io_only_hit_rate > 0.8, "I/O cache alone looks great");
        assert!(
            r.combined_io_hit_rate < 0.1,
            "with the compute buffer, almost nothing is left: {}",
            r.combined_io_hit_rate
        );
        assert!(r.compute_hit_rate > 0.8);
    }

    #[test]
    fn non_read_only_traffic_reaches_io_unfiltered() {
        let mut events = vec![open(1, 1)];
        events.push(OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body: EventBody::Write {
                session: 1,
                offset: 0,
                bytes: 512,
            },
        });
        for k in 0..8u64 {
            events.push(read(1, 0, k * 512, 512));
        }
        let idx = SessionIndex::build(&events);
        let r = combined_simulation(&events, &idx, 1, 2, 8);
        // Session is read-write: the baseline and combined banks see the
        // same stream.
        assert!((r.io_only_hit_rate - r.combined_io_hit_rate).abs() < 1e-12);
        assert_eq!(r.compute_hit_rate, 0.0);
    }
}
