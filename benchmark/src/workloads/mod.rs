//! The workloads, and the trace and query inputs they share.

pub(crate) mod archive_heal;
pub(crate) mod archive_query;
pub(crate) mod archive_service;
pub(crate) mod cache_study;
pub(crate) mod characterize;

use std::ops::Range;

use charisma::cfs::CfsConfig;
use charisma::ipsc::{FaultPlan, MachineConfig, SimTime};
use charisma::store::{ArchiveMeta, OpSet, Query};
use charisma::trace::OrderedEvent;
use charisma::workload::shard::try_generate_sharded;
use charisma::workload::GeneratorConfig;

use crate::stats::Rng;
use crate::trace::Span;
use crate::{TRACE_SEED, WORKERS};

/// The generator configuration `Pipeline::new()` uses, at `scale`.
pub(crate) fn generator_config(scale: f64) -> GeneratorConfig {
    GeneratorConfig {
        scale,
        seed: TRACE_SEED,
        machine: MachineConfig::nas_ipsc860(),
        cfs: CfsConfig::nas(),
        faults: FaultPlan::none(),
    }
}

/// Archive provenance for the benchmark's trace at `scale`.
pub(crate) fn archive_meta(scale: f64) -> ArchiveMeta {
    ArchiveMeta {
        seed: TRACE_SEED,
        scale,
    }
}

/// Generate the trace at `scale` and merge it into one ordered stream,
/// under the spans `workload.generate`, `trace.rectify` and `trace.merge`.
pub(crate) fn generate(scale: f64, req: &Span<'_>) -> Result<Vec<OrderedEvent>, String> {
    let config = generator_config(scale);
    let workload = req
        .time("workload.generate", || {
            try_generate_sharded(&config, WORKERS)
        })
        .map_err(|e| format!("generation failed: {e}"))?;
    let merged = req.time("trace.rectify", || workload.merged_events());
    Ok(req.time("trace.merge", || merged.collect()))
}

/// Passes of distinct queries drawn per run; a run that makes more passes
/// starts over. Every pass draws its own queries so that its tail is one
/// sample of the query population, not the same few heaviest queries
/// again: with one set of 1000 queries repeated, a seed's draw decided
/// `op_ms_tail`, which spread by 0.16 from seed to seed and by 1% over
/// runs of one seed.
pub(crate) const DRAWN_PASSES: usize = 16;

/// One seeded selective query: a window of 1% of the trace's time span,
/// restricted to I/O requests (even draws) or to one node (odd draws),
/// with the rows its window covers in the time-ordered trace.
#[derive(Clone, Debug)]
pub(crate) struct Probe {
    pub query: Query,
    pub window: Range<usize>,
}

impl Probe {
    /// Rows of `events` that match, counted directly with
    /// [`Query::matches`] over the window — the reference a scan must equal.
    pub(crate) fn reference(&self, events: &[OrderedEvent]) -> u64 {
        events[self.window.clone()]
            .iter()
            .filter(|e| self.query.matches(e))
            .count() as u64
    }
}

/// `count` seeded probes over `events`, which must be time-ordered.
pub(crate) fn probes(events: &[OrderedEvent], count: usize, seed: u64) -> Vec<Probe> {
    let (Some(first), Some(last)) = (events.first(), events.last()) else {
        return Vec::new();
    };
    let (t0, t1) = (first.time.as_micros(), last.time.as_micros());
    let width = ((t1 - t0) / 100).max(1);
    let mut rng = Rng::new(seed, 0x51);
    (0..count)
        .map(|i| {
            let from = t0 + rng.below((t1 - t0).saturating_sub(width) + 1);
            let to = from + width;
            let window = events.partition_point(|e| e.time.as_micros() < from)
                ..events.partition_point(|e| e.time.as_micros() <= to);
            let in_window =
                Query::all().time_window(SimTime::from_micros(from), SimTime::from_micros(to));
            let query = if i % 2 == 0 {
                in_window.ops(OpSet::requests())
            } else {
                let pick = rng.below(events.len() as u64) as usize;
                in_window.node(events[pick].node)
            };
            Probe { query, window }
        })
        .collect()
}
