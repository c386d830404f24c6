//! Compute-node caching — Figure 8.
//!
//! "The results of a simple trace-driven simulation of a compute-node
//! cache of 4 KB (one block), read-only buffers with LRU replacement …
//! We consider a hit to be any request that was fully satisfied from the
//! local buffer (i.e., with no request sent to an I/O node)."
//!
//! Each compute node gets its own small LRU cache of 4 KB blocks; only
//! requests to read-only files participate. Hit rates are reported per
//! job, which is what exposes the three clumps.

use std::collections::BTreeMap;

use charisma_cfs::{BlockCache, LruCache};
use charisma_trace::record::EventBody;
use charisma_trace::OrderedEvent;

use crate::prep::SessionIndex;

const BLOCK: u64 = 4096;

/// Result of a compute-node cache simulation.
#[derive(Clone, Debug, Default)]
pub struct ComputeCacheResult {
    /// Per-job `(hits, requests)` over read-only files.
    pub per_job: BTreeMap<u32, (u64, u64)>,
    /// Total hits.
    pub hits: u64,
    /// Total read requests simulated.
    pub requests: u64,
}

impl ComputeCacheResult {
    /// Overall hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.requests.max(1) as f64
    }

    /// Per-job hit rates (only jobs with at least one read-only read),
    /// sorted ascending — the Figure 8 CDF data.
    pub fn job_hit_rates(&self) -> Vec<f64> {
        let mut rates: Vec<f64> = self
            .per_job
            .values()
            .filter(|&&(_, total)| total > 0)
            .map(|&(h, total)| h as f64 / total as f64)
            .collect();
        rates.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        rates
    }

    /// Fraction of jobs with a hit rate above `threshold`.
    pub fn fraction_of_jobs_above(&self, threshold: f64) -> f64 {
        let rates = self.job_hit_rates();
        if rates.is_empty() {
            return 0.0;
        }
        rates.iter().filter(|&&r| r > threshold).count() as f64 / rates.len() as f64
    }

    /// Fraction of jobs with a 0 % hit rate.
    pub fn fraction_of_jobs_at_zero(&self) -> f64 {
        let rates = self.job_hit_rates();
        if rates.is_empty() {
            return 0.0;
        }
        rates.iter().filter(|&&r| r == 0.0).count() as f64 / rates.len() as f64
    }

    /// Record this run's raw counters under the `cachesim.compute.` prefix
    /// of `registry`.
    pub fn record_metrics(&self, registry: &charisma_obs::MetricsRegistry) {
        registry
            .counter("cachesim.compute.requests")
            .add(self.requests);
        registry.counter("cachesim.compute.hits").add(self.hits);
        registry
            .counter("cachesim.compute.jobs")
            .add(self.per_job.len() as u64);
    }
}

/// Run the simulation with `buffers` one-block buffers per compute node.
pub fn compute_cache_sim(
    events: &[OrderedEvent],
    index: &SessionIndex,
    buffers: usize,
) -> ComputeCacheResult {
    let mut sim = ComputeCacheSim::new(index, buffers);
    for e in events {
        sim.observe(e, |_, _| {});
    }
    sim.result
}

/// Streaming form of the simulation; [`ComputeCacheSim::observe`] reports
/// each block access that *misses* (and therefore reaches the I/O nodes)
/// to a callback, which is how the combined experiment chains the two
/// levels.
pub struct ComputeCacheSim<'a> {
    index: &'a SessionIndex,
    buffers: usize,
    /// One cache per compute node, indexed by node number.
    caches: Vec<LruCache>,
    /// The accumulated result.
    pub result: ComputeCacheResult,
}

impl<'a> ComputeCacheSim<'a> {
    /// Create a simulator with `buffers` blocks per compute node.
    pub fn new(index: &'a SessionIndex, buffers: usize) -> Self {
        ComputeCacheSim {
            index,
            buffers,
            caches: Vec::new(),
            result: ComputeCacheResult::default(),
        }
    }

    /// Feed one event. Read requests on read-only sessions are simulated;
    /// when a request cannot be fully satisfied locally, the blocks it
    /// must fetch are passed to `forward(file, missing_blocks)` as one
    /// I/O-node request.
    pub fn observe<F: FnMut(u32, &[(u64, u32)])>(&mut self, e: &OrderedEvent, mut forward: F) {
        let EventBody::Read {
            session,
            offset,
            bytes,
        } = e.body
        else {
            return;
        };
        let Some(facts) = self.index.get(session) else {
            return;
        };
        if !facts.read_only {
            return;
        }
        if bytes == 0 {
            return;
        }
        let node = usize::from(e.node);
        if node >= self.caches.len() {
            let buffers = self.buffers;
            self.caches.resize_with(node + 1, || LruCache::new(buffers));
        }
        let cache = &mut self.caches[node];
        let first = offset / BLOCK;
        let last = (offset + u64::from(bytes) - 1) / BLOCK;
        // "Fully satisfied": every touched block must be resident.
        let mut all_resident = true;
        for b in first..=last {
            if !cache.contains((facts.file, b)) {
                all_resident = false;
            }
        }
        self.result.requests += 1;
        let entry = self.result.per_job.entry(facts.job).or_insert((0, 0));
        entry.1 += 1;
        if all_resident {
            self.result.hits += 1;
            entry.0 += 1;
            // Touch for recency.
            for b in first..=last {
                cache.access((facts.file, b), 0);
            }
        } else {
            let mut missing: Vec<(u64, u32)> = Vec::new();
            for b in first..=last {
                let bstart = b * BLOCK;
                let bend = bstart + BLOCK;
                let touched = offset.max(bstart)..(offset + u64::from(bytes)).min(bend);
                let touched = (touched.end - touched.start) as u32;
                if !cache.access((facts.file, b), touched) {
                    missing.push((b, touched));
                }
            }
            forward(facts.file, &missing);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_ipsc::SimTime;
    use charisma_trace::record::AccessKind;

    fn open(job: u32, file: u32, session: u32) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body: EventBody::Open {
                job,
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

    fn run(events: &[OrderedEvent], buffers: usize) -> ComputeCacheResult {
        let idx = SessionIndex::build(events);
        compute_cache_sim(events, &idx, buffers)
    }

    #[test]
    fn small_consecutive_reads_hit_seven_of_eight() {
        // 512-byte consecutive reads: one miss per block, 7 hits.
        let mut events = vec![open(1, 1, 1)];
        for k in 0..16u64 {
            events.push(read(1, 0, k * 512, 512));
        }
        let r = run(&events, 1);
        assert_eq!(r.requests, 16);
        assert_eq!(r.hits, 14, "2 blocks x 1 miss each");
        let rates = r.job_hit_rates();
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - 14.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn block_sized_reads_never_hit() {
        let mut events = vec![open(1, 1, 1)];
        for k in 0..8u64 {
            events.push(read(1, 0, k * 4096, 4096));
        }
        let r = run(&events, 1);
        assert_eq!(r.hits, 0);
        assert!((r.fraction_of_jobs_at_zero() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn large_stride_interleave_never_hits_one_buffer() {
        // Node reads 1 KB every 32 KB: every request a new block.
        let mut events = vec![open(1, 1, 1)];
        for k in 0..10u64 {
            events.push(read(1, 0, k * 32768, 1024));
        }
        let r = run(&events, 1);
        assert_eq!(r.hits, 0);
    }

    #[test]
    fn writes_and_rw_files_are_excluded() {
        let mut events = vec![open(1, 1, 1)];
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
        let r = run(&events, 1);
        assert_eq!(r.requests, 0, "read-write session excluded entirely");
    }

    #[test]
    fn caches_are_per_node() {
        // Two nodes read the same small file; each must miss its own first
        // block (no magic sharing between compute nodes).
        let mut events = vec![open(1, 1, 1)];
        for k in 0..8u64 {
            events.push(read(1, 0, k * 512, 512));
            events.push(read(1, 1, k * 512, 512));
        }
        let r = run(&events, 1);
        assert_eq!(r.requests, 16);
        assert_eq!(r.hits, 14, "each node misses once");
    }

    #[test]
    fn one_buffer_thrashes_on_interspersed_files_ten_does_not() {
        // The paper's "very few jobs" where multiple buffers helped:
        // alternating reads from two files.
        let mut events = vec![open(1, 1, 1), open(1, 2, 2)];
        for k in 0..16u64 {
            events.push(read(1, 0, k * 512, 512));
            events.push(read(2, 0, k * 512, 512));
        }
        let one = run(&events, 1);
        let ten = run(&events, 10);
        assert_eq!(one.hits, 0, "ping-pong evicts every time");
        assert!(ten.hit_rate() > 0.8);
    }

    #[test]
    fn forwarding_reports_only_misses() {
        let events = vec![open(1, 1, 1), read(1, 0, 0, 512), read(1, 0, 512, 512)];
        let idx = SessionIndex::build(&events);
        let mut sim = ComputeCacheSim::new(&idx, 1);
        let mut forwarded = Vec::new();
        for e in &events {
            sim.observe(e, |file, missing| {
                for &(block, touched) in missing {
                    forwarded.push((file, block, touched));
                }
            });
        }
        assert_eq!(forwarded, vec![(1, 0, 512)], "second read hit locally");
    }
}
