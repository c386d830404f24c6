//! The unified pipeline: generate → postprocess → analyze in one call.
//!
//! [`Pipeline`] is the single programmatic entry point to the
//! reproduction. It replaces the loose `generate` → `postprocess` →
//! `Report::from_events` triple the examples used to wire by hand, and it
//! is where sharded parallel generation lives: `.shards(n)` runs the
//! simulation on `n` worker threads with a merged event stream that is
//! **bit-identical** to the serial run (see
//! [`charisma_workload::shard`] for how, and `charisma-verify gates
//! determinism` for the proof harness).
//!
//! ```
//! use charisma::prelude::*;
//!
//! let out = Pipeline::new().scale(0.01).seed(4994).shards(2).run()?;
//! assert!(out.events.len() > 1000);
//! assert!(out.report.render().contains("Figure 4"));
//! # Ok::<(), charisma::Error>(())
//! ```

use charisma_cfs::CfsConfig;
use charisma_core::report::Report;
use charisma_ipsc::{FaultPlan, MachineConfig};
use charisma_obs::{MetricsRegistry, MetricsSnapshot};
use charisma_store::{ArchiveMeta, ArchiveWriter, StoreMetrics};
use charisma_trace::{MergeMetrics, OrderedEvent};
use charisma_workload::shard::try_generate_sharded;
use charisma_workload::{GeneratorConfig, ShardedWorkload};

use crate::error::Error;

/// Where [`Pipeline::run`] should deliver the columnar trace archive.
/// Passed to [`Pipeline::sink`].
#[derive(Clone, Debug)]
pub enum ArchiveSink {
    /// Keep the archive bytes in [`PipelineOutput::archive`]. Write them
    /// to a file, or submit [`PipelineOutput::events`] to a
    /// [`charisma_serve::Service`] tenant, from there.
    Memory,
}

/// Builder for one end-to-end run of the reproduction.
///
/// Defaults reproduce the paper: full three-week scale, seed 4994 (SC
/// '94), serial execution. A run always simulates the NAS 128-node
/// iPSC/860 ([`MachineConfig::nas_ipsc860`]) and its CFS
/// ([`CfsConfig::nas`]); to simulate another machine, build a
/// [`GeneratorConfig`] and call [`try_generate_sharded`] directly.
#[derive(Clone, Debug)]
pub struct Pipeline {
    scale: f64,
    seed: u64,
    shards: usize,
    faults: FaultPlan,
    archive: Option<ArchiveSink>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    /// A pipeline with the paper's defaults.
    pub fn new() -> Self {
        Pipeline {
            scale: 1.0,
            seed: 4994,
            shards: 1,
            faults: FaultPlan::none(),
            archive: None,
        }
    }

    /// Workload scale: 1.0 is the paper's full population (~3000 jobs);
    /// tests and examples use small fractions.
    #[must_use]
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Master RNG seed (default 4994).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for generation (default 1 = serial).
    ///
    /// The workload is always partitioned into
    /// [`charisma_workload::shard::LOGICAL_SHARDS`] logical shards; this
    /// only sets how many threads execute them, so **every value yields
    /// the same merged stream** (counts above the logical shard count are
    /// capped). `0` is rejected by [`Self::run`].
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Fault-injection plan for chaos testing (default:
    /// [`FaultPlan::none`], which attaches no fault state at all — the
    /// run is byte-identical to one without the chaos layer).
    ///
    /// Fault decisions are pure hashes of the plan seed and stable event
    /// identities, so a given plan yields the same trace for every
    /// `shards(n)` worker count. Injected fault activity appears in
    /// [`PipelineOutput::metrics`] under `faults.*` keys.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Also encode the merged trace as a [`charisma_store`] columnar
    /// archive, kept in [`PipelineOutput::archive`]. The archive is fed
    /// from the same single merge pass as the analysis and is
    /// byte-identical for every `shards(n)` worker count
    /// (`charisma-verify gates archive` pins this).
    #[must_use]
    pub fn sink(mut self, sink: ArchiveSink) -> Self {
        self.archive = Some(sink);
        self
    }

    /// Run the pipeline: generate the sharded workload, rectify and merge
    /// the per-shard traces, and characterize the merged stream.
    ///
    /// The analysis consumes the k-way merge as a stream, in the same
    /// pass that materializes [`PipelineOutput::events`].
    pub fn run(self) -> Result<PipelineOutput, Error> {
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return Err(Error::InvalidScale(self.scale));
        }
        if self.shards == 0 {
            return Err(Error::InvalidShards(self.shards));
        }
        let config = GeneratorConfig {
            scale: self.scale,
            seed: self.seed,
            machine: MachineConfig::nas_ipsc860(),
            cfs: CfsConfig::nas(),
            faults: self.faults,
        };
        let workload = try_generate_sharded(&config, self.shards)?;
        let registry = MetricsRegistry::new();
        let mut writer = self.archive.map(|ArchiveSink::Memory| {
            let mut w = ArchiveWriter::new(ArchiveMeta {
                seed: self.seed,
                scale: self.scale,
            });
            w.attach_metrics(StoreMetrics::register(&registry));
            w
        });
        let mut events = Vec::with_capacity(workload.event_count());
        let mut merged = workload.merged_events();
        merged.attach_metrics(MergeMetrics::register(&registry));
        // The merge is consumed (and so publishes its counts) before the
        // registry is snapshotted below.
        let report = Report::from_stream(merged.inspect(|e| {
            events.push(*e);
            if let Some(w) = &mut writer {
                w.push(e);
            }
        }));
        let archive = writer.map(ArchiveWriter::finish);
        let mut metrics = workload.metrics.clone();
        metrics.merge(&registry.snapshot());
        Ok(PipelineOutput {
            workload,
            events,
            report,
            metrics,
            archive,
        })
    }
}

/// Everything one pipeline run produces.
pub struct PipelineOutput {
    /// The generated workload: per-shard raw traces plus aggregate stats.
    pub workload: ShardedWorkload,
    /// The rectified, deterministically merged event stream.
    pub events: Vec<OrderedEvent>,
    /// The paper's full §4 characterization of that stream.
    pub report: Report,
    /// Metrics from every layer of the run: the shard-merged simulation
    /// counters/gauges/histograms plus the merge's and the archive
    /// writer's, all a pure function of the configuration and seed (see
    /// [`MetricsSnapshot::to_core_json`]).
    pub metrics: MetricsSnapshot,
    /// The columnar trace archive bytes, when an [`ArchiveSink`] was
    /// configured via [`Pipeline::sink`]. Reopen with
    /// [`charisma_store::Archive::from_bytes`] and query any subset.
    pub archive: Option<Vec<u8>>,
}

impl PipelineOutput {
    /// Aggregate generation stats (jobs, sessions, requests, …).
    pub fn stats(&self) -> &charisma_workload::GenStats {
        &self.workload.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_a_coherent_output() {
        let out = Pipeline::new().scale(0.02).shards(2).run().expect("runs");
        assert_eq!(out.events.len(), out.workload.event_count());
        assert!(out.stats().jobs > 10);
        assert!(out.report.chars.jobs.len() == out.stats().jobs);
        for w in out.events.windows(2) {
            assert!((w[0].time, w[0].node) <= (w[1].time, w[1].node));
        }
    }

    #[test]
    fn metrics_surface_every_layer() {
        let out = Pipeline::new().scale(0.02).shards(2).run().expect("runs");
        assert_eq!(
            out.metrics.counters["workload.jobs"],
            out.stats().jobs as u64
        );
        assert!(out.metrics.counters["engine.events_dispatched"] > 0);
        assert!(out.metrics.counters["cfs.read_requests"] > 0);
        assert_eq!(
            out.metrics.counters["merge.records_merged"],
            out.events.len() as u64
        );
    }

    #[test]
    fn chaos_plan_injects_faults_without_breaking_the_run() {
        use charisma_ipsc::FaultPlan;
        let out = Pipeline::new()
            .scale(0.01)
            .shards(2)
            .faults(FaultPlan::chaos_fixture())
            .run()
            .expect("chaos run completes");
        assert!(out.events.len() > 1000);
        assert!(out.metrics.counters["faults.injected"] > 0);
        // Worker count still does not matter under chaos.
        let serial = Pipeline::new()
            .scale(0.01)
            .faults(FaultPlan::chaos_fixture())
            .run()
            .expect("serial chaos run completes");
        assert_eq!(out.metrics.to_core_json(), serial.metrics.to_core_json());
    }

    #[test]
    fn archive_sink_round_trips_and_surfaces_store_metrics() {
        use charisma_store::Archive;

        let out = Pipeline::new()
            .scale(0.01)
            .shards(2)
            .sink(ArchiveSink::Memory)
            .run()
            .expect("runs");
        let bytes = out.archive.as_deref().expect("archive bytes present");
        let archive = Archive::from_bytes(bytes.to_vec()).expect("parses");
        assert_eq!(archive.rows(), out.events.len() as u64);
        assert_eq!(archive.meta().seed, 4994);
        let reread = archive.events().expect("scans");
        assert_eq!(reread, out.events);

        assert_eq!(
            out.metrics.counters["store.rows_written"],
            out.events.len() as u64
        );
        assert!(out.metrics.counters["store.segments_written"] > 0);
        assert_eq!(
            out.metrics.counters["store.bytes_written"],
            bytes.len() as u64
        );
        // Scan-side counters are registered (zero) even with no query run,
        // so the metrics fixture pins the whole store.* namespace.
        assert_eq!(out.metrics.counters["store.segments_pruned"], 0);

        // No sink → no archive, no store.* metrics.
        let plain = Pipeline::new().scale(0.01).run().expect("runs");
        assert!(plain.archive.is_none());
        assert!(!plain.metrics.counters.contains_key("store.rows_written"));
    }

    #[test]
    fn archive_bytes_are_worker_invariant() {
        let a = Pipeline::new()
            .scale(0.01)
            .sink(ArchiveSink::Memory)
            .run()
            .expect("runs");
        let b = Pipeline::new()
            .scale(0.01)
            .shards(4)
            .sink(ArchiveSink::Memory)
            .run()
            .expect("runs");
        assert_eq!(a.archive, b.archive);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(matches!(
            Pipeline::new().scale(0.0).run(),
            Err(Error::InvalidScale(_))
        ));
        assert!(matches!(
            Pipeline::new().scale(f64::NAN).run(),
            Err(Error::InvalidScale(_))
        ));
        assert!(matches!(
            Pipeline::new().scale(0.01).shards(0).run(),
            Err(Error::InvalidShards(0))
        ));
    }
}
