//! `archive_query`: one client reading one archive. A pass is two full
//! scans (which must return the generated trace), two report scans
//! (whose rendered report must equal the one analysed from the trace)
//! and the pass's own seeded selective queries (each count must equal
//! its reference). Full and report scans weigh decoding and analysis;
//! the selective queries weigh zone-map pruning and late
//! materialization.

use std::time::{Duration, Instant};

use charisma::core::report::Report;
use charisma::obs::MetricsRegistry;
use charisma::store::{write_archive, Archive, Query, StoreMetrics};
use charisma::trace::OrderedEvent;

use super::{archive_meta, generate, probes, Probe, DRAWN_PASSES};
use crate::host::Host;
use crate::trace::{LayerTable, Span, Tracer};
use crate::{ratio, Bench, Config, Phase, Tally, Workload, WORKERS};

pub(crate) struct ArchiveQuery {
    events: Vec<OrderedEvent>,
    archive: Archive,
    report: String,
    probes: Vec<Probe>,
}

impl ArchiveQuery {
    /// The traced run's extra request per pass: a checksum walk and a
    /// whole-catalog decode, the two costs under every scan.
    fn probe_layers(&self, tracer: &Tracer, tally: &mut Tally) {
        let req = tracer.request("bench.decode");
        let verified = req.time("store.verify", || self.archive.reader().verify());
        tally.check(verified.is_ok());
        let decoded = req.time("store.segment_decode", || {
            self.archive
                .reader()
                .segments()
                .iter()
                .map(|s| s.events().map(|e| e.len()))
                .sum::<Result<usize, _>>()
        });
        tally.check(decoded.is_ok_and(|n| n == self.events.len()));
    }
}

impl Bench for ArchiveQuery {
    fn setup(cfg: &Config, req: &Span<'_>) -> Result<Self, String> {
        let scale = cfg.scale_for(Workload::ArchiveQuery);
        let events = generate(scale, req)?;
        let bytes = req.time("store.encode", || {
            write_archive(events.iter(), archive_meta(scale))
        });
        let archive = req
            .time("store.open", || Archive::from_bytes(bytes))
            .map_err(|e| format!("archive does not open: {e}"))?;
        let report = Report::from_events(&events).render();
        let probes = probes(&events, cfg.queries * DRAWN_PASSES, cfg.seed);
        Ok(ArchiveQuery {
            events,
            archive,
            report,
            probes,
        })
    }

    fn records(&self) -> u64 {
        self.events.len() as u64
    }

    fn phase(
        &self,
        cfg: &Config,
        budget: Duration,
        tracer: &Tracer,
        host: &mut Host,
        tally: &mut Tally,
    ) -> Result<Phase, String> {
        let traced = tracer.enabled();
        let registry = MetricsRegistry::new();
        let pruning = StoreMetrics::register(&registry);
        let rows = self.events.len() as f64;
        let mut phase = Phase {
            pass_ops: cfg.queries,
            ..Phase::default()
        };
        let mut passes = self.probes.chunks(cfg.queries).cycle();
        let started = Instant::now();
        while phase.units < 1 || started.elapsed() < budget {
            if traced {
                self.probe_layers(tracer, tally);
            }
            let mut scan_ms = 0.0;
            for _ in 0..2 {
                host.tick();
                let req = tracer.request("bench.full_scan");
                let t = Instant::now();
                let got = req.time("store.scan.full", || {
                    self.archive.query(Query::all()).workers(WORKERS).events()
                });
                drop(req);
                scan_ms += host.ms_since(t);
                tally.check(got.is_ok_and(|events| events == self.events));
            }
            for _ in 0..2 {
                host.tick();
                let req = tracer.request("bench.report_scan");
                let t = Instant::now();
                let report = if traced {
                    // Scan and analysis apart, so each has a span.
                    req.time("store.scan.report", || {
                        self.archive.query(Query::all()).workers(WORKERS).events()
                    })
                    .map(|events| req.time("core.analyze.report", || Report::from_events(&events)))
                } else {
                    req.time("store.scan.report", || {
                        self.archive.query(Query::all()).workers(WORKERS).report()
                    })
                };
                drop(req);
                scan_ms += host.ms_since(t);
                tally.check(report.is_ok_and(|r| r.render() == self.report));
            }
            phase.rates.push(4.0 * rows / (scan_ms / 1e3));
            for probe in passes.next().unwrap_or_default() {
                host.tick();
                let req = tracer.request("bench.selective");
                let t = Instant::now();
                let got = req.time("store.scan.selective", || {
                    let scan = self.archive.query(probe.query.clone()).workers(WORKERS);
                    if traced {
                        scan.attach_metrics(pruning.clone())
                    } else {
                        scan
                    }
                    .events()
                });
                drop(req);
                phase.ops_ms.push(host.ms_since(t));
                let want = probe.reference(&self.events);
                tally.check(got.is_ok_and(|events| events.len() as u64 == want));
            }
            phase.units += 1;
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        let counter = |c: &charisma::obs::Counter| c.get() as f64;
        phase.add("segments_pruned", counter(&pruning.segments_pruned));
        phase.add("segments_scanned", counter(&pruning.segments_scanned));
        phase.add("rows_scanned", counter(&pruning.rows_scanned));
        phase.add("rows_matched", counter(&pruning.rows_matched));
        phase.add("cols_decoded", counter(&pruning.cols_decoded));
        phase.add("rows_skipped_late", counter(&pruning.rows_skipped_late));
        Ok(phase)
    }

    fn layers(
        &self,
        _untraced: &Phase,
        traced: &Phase,
        table: &LayerTable,
    ) -> Vec<(&'static str, f64)> {
        let rows = self.events.len() as f64;
        let per_call = |name: &str| rows * table.row(name).count as f64;
        let rate = |name: &str| table.rate(name, per_call(name));
        let scanned = traced.get("rows_scanned");
        vec![
            ("store.open_rows_per_s", rate("store.open")),
            ("store.checksum_rows_per_s", rate("store.verify")),
            (
                "store.segment_decode_rows_per_s",
                rate("store.segment_decode"),
            ),
            ("store.full_scan_rows_per_s", rate("store.scan.full")),
            ("store.report_scan_rows_per_s", rate("store.scan.report")),
            (
                "core.analyze_report_rows_per_s",
                rate("core.analyze.report"),
            ),
            (
                "store.selective_queries_per_s",
                table.rate(
                    "store.scan.selective",
                    table.row("store.scan.selective").count as f64,
                ),
            ),
            (
                "store.segments_pruned_ratio",
                ratio(
                    traced.get("segments_pruned"),
                    traced.get("segments_pruned") + traced.get("segments_scanned"),
                ),
            ),
            (
                "store.cols_decoded_per_row",
                ratio(traced.get("cols_decoded"), scanned),
            ),
            (
                "store.rows_matched_ratio",
                ratio(traced.get("rows_matched"), scanned),
            ),
            (
                "store.rows_skipped_late",
                ratio(traced.get("rows_skipped_late"), traced.units as f64),
            ),
        ]
    }
}
