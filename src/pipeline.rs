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

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use charisma_cfs::CfsConfig;
use charisma_core::report::Report;
use charisma_ipsc::{FaultPlan, MachineConfig};
use charisma_obs::{MetricsRegistry, MetricsSnapshot};
use charisma_serve::{ServeError, Service};
use charisma_store::{ArchiveMeta, ArchiveWriter, StoreError, StoreMetrics};
use charisma_trace::{MergeMetrics, OrderedEvent};
use charisma_workload::shard::try_generate_sharded;
use charisma_workload::{GeneratorConfig, ShardedWorkload};

use crate::error::Error;

/// Where [`Pipeline::run`] should deliver the columnar trace archive.
/// Passed to [`Pipeline::sink`].
#[derive(Clone, Debug)]
pub enum ArchiveSink {
    /// Write the archive file at this path (bytes also kept in the output).
    Path(PathBuf),
    /// Keep the archive bytes in [`PipelineOutput::archive`] only.
    Memory,
    /// Stream the merged events into one tenant of a shared
    /// [`charisma_serve::Service`] — the run becomes one site publishing
    /// into a long-lived multi-tenant archive service instead of writing
    /// its own container. See [`ServeSink`].
    Serve(ServeSink),
}

/// The serve half of [`ArchiveSink::Serve`]: which [`Service`] tenant
/// receives the merged stream.
///
/// The pipeline submits 512-row batches during its single merge pass
/// (published bytes do not depend on the batch size), flushes the
/// tenant at the end, and stores the tenant's published catalog bytes in
/// [`PipelineOutput::archive`]. Those bytes carry the *service's*
/// `(seed, scale)` metadata — configure the [`ServiceConfig`] to match
/// the pipeline when byte-parity with a [`ArchiveSink::Memory`] run
/// matters.
///
/// [`ServiceConfig`]: charisma_serve::ServiceConfig
#[derive(Clone, Debug)]
pub struct ServeSink {
    service: Arc<Service>,
    tenant: usize,
}

/// Rows per batch a [`ServeSink`] submits.
const SERVE_BATCH_ROWS: usize = 512;

impl ServeSink {
    /// Target `tenant` of `service`.
    pub fn new(service: Arc<Service>, tenant: usize) -> Self {
        ServeSink { service, tenant }
    }

    /// The shared service this sink publishes into.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// The tenant index this sink publishes to.
    pub fn tenant(&self) -> usize {
        self.tenant
    }
}

/// Live per-sink state during the merge pass of [`Pipeline::run`].
enum SinkState {
    /// Path/Memory: encode into an in-process [`ArchiveWriter`].
    Writer(Box<ArchiveWriter>),
    /// Serve: buffer rows and submit batches to the service; the first
    /// ingest error is parked here and surfaced after the pass (the
    /// analysis stream cannot carry a `Result` mid-flight).
    Serve {
        sink: ServeSink,
        buf: Vec<OrderedEvent>,
        error: Option<ServeError>,
    },
}

/// Builder for one end-to-end run of the reproduction.
///
/// Defaults reproduce the paper: full three-week scale, seed 4994 (SC
/// '94), the NAS iPSC/860 machine and CFS, serial execution.
#[derive(Clone, Debug)]
pub struct Pipeline {
    scale: f64,
    seed: u64,
    shards: usize,
    machine: MachineConfig,
    cfs: CfsConfig,
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
            machine: MachineConfig::nas_ipsc860(),
            cfs: CfsConfig::nas(),
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

    /// Machine to simulate (default: the NAS 128-node iPSC/860).
    #[must_use]
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// File system to simulate (default: the NAS CFS).
    #[must_use]
    pub fn cfs(mut self, cfs: CfsConfig) -> Self {
        self.cfs = cfs;
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

    /// Also deliver the merged trace as a [`charisma_store`] columnar
    /// archive to `sink` — a file path, in-memory bytes, or a tenant of a
    /// shared [`charisma_serve::Service`]. The archive is fed from the
    /// same single merge pass as the analysis and is byte-identical for
    /// every `shards(n)` worker count (`charisma-verify gates archive`
    /// pins this). The bytes are also kept in
    /// [`PipelineOutput::archive`].
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
            machine: self.machine.clone(),
            cfs: self.cfs.clone(),
            faults: self.faults.clone(),
        };
        let registry = MetricsRegistry::new();
        let started = Instant::now();
        let workload = {
            let _generate = registry.span("pipeline.generate");
            try_generate_sharded(&config, self.shards)?
        };
        let mut events = Vec::with_capacity(workload.event_count());
        let mut sink_state = match &self.archive {
            None => None,
            Some(ArchiveSink::Path(_) | ArchiveSink::Memory) => {
                let mut w = ArchiveWriter::new(ArchiveMeta {
                    seed: self.seed,
                    scale: self.scale,
                });
                w.attach_metrics(StoreMetrics::register(&registry));
                Some(SinkState::Writer(Box::new(w)))
            }
            Some(ArchiveSink::Serve(sink)) => Some(SinkState::Serve {
                sink: sink.clone(),
                buf: Vec::with_capacity(SERVE_BATCH_ROWS),
                error: None,
            }),
        };
        let report = {
            let _analyze = registry.span("pipeline.analyze");
            let mut merged = workload.merged_events();
            merged.attach_metrics(MergeMetrics::register(&registry));
            Report::from_stream(merged.inspect(|e| {
                events.push(*e);
                match &mut sink_state {
                    Some(SinkState::Writer(w)) => w.push(e),
                    Some(SinkState::Serve { sink, buf, error }) if error.is_none() => {
                        buf.push(*e);
                        if buf.len() >= SERVE_BATCH_ROWS {
                            if let Err(err) = sink.service.submit(sink.tenant, buf) {
                                *error = Some(err);
                            }
                            buf.clear();
                        }
                    }
                    // No sink, or a serve sink already parked on its
                    // first error: nothing further to buffer.
                    _ => {}
                }
            }))
        };
        let archive = match (sink_state, &self.archive) {
            (Some(SinkState::Writer(w)), Some(sink)) => {
                let bytes = w.finish();
                if let ArchiveSink::Path(path) = sink {
                    std::fs::write(path, &bytes).map_err(StoreError::Io)?;
                }
                Some(bytes)
            }
            (Some(SinkState::Serve { sink, buf, error }), _) => {
                if let Some(err) = error {
                    return Err(Error::Serve(err));
                }
                if !buf.is_empty() {
                    sink.service.submit(sink.tenant, &buf)?;
                }
                sink.service.flush(sink.tenant)?;
                Some(sink.service.snapshot(sink.tenant)?.to_bytes())
            }
            _ => None,
        };
        // The deterministic core (counters/gauges/histograms) comes from
        // the simulation and the merge; the facade's own wall-clock
        // artifacts (span timings, throughput) live in the snapshot's
        // quarantined nondeterministic section.
        let mut metrics = workload.metrics.clone();
        metrics.merge(&registry.snapshot());
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let rps = (events.len() as f64 / elapsed).round() as u64;
            metrics.set_rate("pipeline.records_per_sec", rps);
        }
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
    /// counters/gauges/histograms (a pure function of the configuration
    /// and seed — see [`MetricsSnapshot::to_core_json`]) plus the
    /// pipeline's own span timings and throughput rate (wall-clock, kept
    /// under the snapshot's `nondeterministic` section).
    pub metrics: MetricsSnapshot,
    /// The columnar trace archive bytes, when an [`ArchiveSink`] was
    /// configured via [`Pipeline::sink`]. For a [`ArchiveSink::Serve`]
    /// sink these are the tenant's published catalog bytes (under the
    /// service's metadata). Reopen with
    /// [`charisma_store::Archive::from_bytes`] (or `Archive::open` for a
    /// path sink) and query any subset.
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
        assert!(out.metrics.timings.contains_key("pipeline.generate"));
        assert!(out.metrics.timings.contains_key("pipeline.analyze"));
        assert!(out.metrics.rates.contains_key("pipeline.records_per_sec"));
        // Wall-clock artifacts stay out of the deterministic core.
        let core = out.metrics.to_core_json();
        assert!(!core.contains("pipeline.generate"));
        assert!(!core.contains("records_per_sec"));
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
    fn serve_sink_publishes_the_same_bytes_as_the_memory_sink() {
        use charisma_serve::{Service, ServiceConfig};

        let mem = Pipeline::new()
            .scale(0.01)
            .sink(ArchiveSink::Memory)
            .run()
            .expect("runs");
        // Service metadata matches the pipeline, so the tenant's catalog
        // is byte-identical to the self-written container.
        let service = Arc::new(Service::new(ServiceConfig {
            seed: 4994,
            scale: 0.01,
            tenants: 2,
            ..ServiceConfig::default()
        }));
        let out = Pipeline::new()
            .scale(0.01)
            .shards(2)
            .sink(ArchiveSink::Serve(ServeSink::new(Arc::clone(&service), 1)))
            .run()
            .expect("runs");
        assert_eq!(out.archive, mem.archive);
        // The catalog stays live in the service for other readers, and
        // sibling tenants are untouched.
        let snap = service.snapshot(1).expect("snapshots");
        assert_eq!(snap.rows(), out.events.len() as u64);
        assert_eq!(service.snapshot(0).expect("snapshots").rows(), 0);
    }

    #[test]
    fn serve_sink_surfaces_unknown_tenants() {
        use charisma_serve::{Service, ServiceConfig};

        let service = Arc::new(Service::new(ServiceConfig {
            tenants: 1,
            ..ServiceConfig::default()
        }));
        let err = Pipeline::new()
            .scale(0.01)
            .sink(ArchiveSink::Serve(ServeSink::new(service, 3)))
            .run();
        assert!(matches!(err, Err(Error::Serve(_))));
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
