//! `characterize`: the paper's batch job. Each run is one
//! `Pipeline::run` with an in-memory archive sink; its archive bytes and
//! rendered report must equal the set-up's. The traced half makes the
//! same calls the facade makes, one after another, so each layer gets a
//! span of its own.

use std::time::{Duration, Instant};

use charisma::core::report::Report;
use charisma::obs::MetricsRegistry;
use charisma::store::write_archive;
use charisma::trace::MergeMetrics;
use charisma::workload::shard::try_generate_sharded;
use charisma::{ArchiveSink, Pipeline};

use super::{archive_meta, generator_config};
use crate::host::Host;
use crate::trace::{LayerTable, Span, Tracer};
use crate::{ratio, stats, Bench, Config, Phase, Tally, Workload, MIN_OPS, TRACE_SEED, WORKERS};

pub(crate) struct Characterize {
    scale: f64,
    archive: Vec<u8>,
    report: String,
    records: u64,
}

/// What one run produced: the archive bytes, the report, the record count.
type Output = (Vec<u8>, Report, usize);

impl Characterize {
    fn pipeline(&self) -> Result<Output, String> {
        let out = Pipeline::new()
            .scale(self.scale)
            .seed(TRACE_SEED)
            .shards(WORKERS)
            .sink(ArchiveSink::Memory)
            .run()
            .map_err(|e| format!("pipeline failed: {e}"))?;
        Ok((
            out.archive.unwrap_or_default(),
            out.report,
            out.events.len(),
        ))
    }

    /// The facade's calls in sequence, each under its own span, with the
    /// layer counters the traced run reports.
    fn decomposed(&self, req: &Span<'_>, phase: &mut Phase) -> Result<Output, String> {
        let config = generator_config(self.scale);
        let workload = req
            .time("workload.generate", || {
                try_generate_sharded(&config, WORKERS)
            })
            .map_err(|e| format!("generation failed: {e}"))?;
        let registry = MetricsRegistry::new();
        let mut merged = req.time("trace.rectify", || workload.merged_events());
        merged.attach_metrics(MergeMetrics::register(&registry));
        let events: Vec<_> = req.time("trace.merge", || merged.collect());
        let report = req.time("core.analyze", || Report::from_events(&events));
        let bytes = req.time("store.encode", || {
            write_archive(events.iter(), archive_meta(self.scale))
        });

        let counter = |name: &str| workload.metrics.counters.get(name).copied().unwrap_or(0) as f64;
        phase.add("events_dispatched", counter("engine.events_dispatched"));
        phase.add("messages_routed", counter("machine.messages_routed"));
        phase.add(
            "cfs_requests",
            counter("cfs.read_requests") + counter("cfs.write_requests"),
        );
        phase.add("cfs_hits", counter("cfs.cache_hits"));
        phase.add(
            "cfs_lookups",
            counter("cfs.cache_hits") + counter("cfs.cache_misses"),
        );
        let heap_ops = registry.snapshot().counters.get("merge.heap_ops").copied();
        phase.add("heap_ops", heap_ops.unwrap_or(0) as f64);
        Ok((bytes, report, events.len()))
    }
}

impl Bench for Characterize {
    fn setup(cfg: &Config, req: &Span<'_>) -> Result<Self, String> {
        let mut this = Characterize {
            scale: cfg.scale_for(Workload::Characterize),
            archive: Vec::new(),
            report: String::new(),
            records: 0,
        };
        let (archive, report, records) = req.time("charisma.pipeline_run", || this.pipeline())?;
        this.records = records as u64;
        this.archive = archive;
        this.report = report.render();
        Ok(this)
    }

    fn records(&self) -> u64 {
        self.records
    }

    fn phase(
        &self,
        _cfg: &Config,
        budget: Duration,
        tracer: &Tracer,
        host: &mut Host,
        tally: &mut Tally,
    ) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let started = Instant::now();
        while phase.ops_ms.len() < MIN_OPS || started.elapsed() < budget {
            host.tick();
            let req = tracer.request("bench.run");
            let t = Instant::now();
            let (bytes, report, records) = if tracer.enabled() {
                self.decomposed(&req, &mut phase)?
            } else {
                req.time("charisma.pipeline_run", || self.pipeline())?
            };
            drop(req);
            let ms = host.ms_since(t);
            tally.check(
                records as u64 == self.records
                    && bytes == self.archive
                    && report.render() == self.report,
            );
            phase.ops_ms.push(ms);
            phase.rates.push(self.records as f64 / (ms / 1e3));
            phase.units += 1;
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        Ok(phase)
    }

    fn layers(
        &self,
        untraced: &Phase,
        traced: &Phase,
        table: &LayerTable,
    ) -> Vec<(&'static str, f64)> {
        let runs = traced.units as f64;
        let records = self.records as f64;
        let untraced_ms = stats::median(&untraced.ops_ms);
        let per_call = |name: &str| records * table.row(name).count as f64;
        vec![
            (
                "core.analyze_records_per_s",
                table.rate("core.analyze", per_call("core.analyze")),
            ),
            (
                "trace.merge_heap_ops_per_record",
                ratio(traced.get("heap_ops"), records * runs),
            ),
            (
                "store.bytes_per_record",
                ratio(self.archive.len() as f64, records),
            ),
            (
                "ipsc.events_dispatched",
                ratio(traced.get("events_dispatched"), runs),
            ),
            (
                "ipsc.messages_routed",
                ratio(traced.get("messages_routed"), runs),
            ),
            ("cfs.requests", ratio(traced.get("cfs_requests"), runs)),
            (
                "cfs.cache_hit_ratio",
                ratio(traced.get("cfs_hits"), traced.get("cfs_lookups")),
            ),
            (
                "charisma.facade_gap_ratio",
                ratio(untraced_ms - stats::median(&traced.ops_ms), untraced_ms),
            ),
        ]
    }
}
