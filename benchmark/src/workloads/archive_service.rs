//! `archive_service`: ingest beside federated reads on a four-tenant
//! `Service`, from one client.
//!
//! Each round re-ingests the trace into a fresh service in 512-row
//! batches, round-robin over the tenants, then flushes every tenant; each
//! tenant's published catalog must equal the set-up's. After every
//! [`BATCHES_PER_QUERY`] batches the client runs the next seeded
//! 1%-window query, federated over a snapshot of the service it is
//! filling. A snapshot holds a prefix of each tenant's batches, so every
//! result is checked against the rows of exactly that prefix that match.

use std::time::{Duration, Instant};

use charisma::obs::MetricsRegistry;
use charisma::serve::{Admission, ServeMetrics, Service, ServiceConfig};
use charisma::store::write_archive;
use charisma::trace::OrderedEvent;

use super::{archive_meta, generate, probes, Probe, DRAWN_PASSES};
use crate::host::Host;
use crate::trace::{LayerTable, Span, Tracer};
use crate::{ratio, Bench, Config, Phase, Tally, Workload, TRACE_SEED, WORKERS};

/// Tenants (simulated sites) the service hosts.
const TENANTS: usize = 4;
/// Rows per submitted batch.
const BATCH_ROWS: usize = 512;
/// Batches submitted between two federated queries: 380 queries a round
/// at scale 0.05, so that one run times several passes of 1000.
const BATCHES_PER_QUERY: usize = 2;

pub(crate) struct ArchiveService {
    scale: f64,
    events: Vec<OrderedEvent>,
    /// Each tenant's published catalog after a whole round.
    catalogs: Vec<Vec<u8>>,
    probes: Vec<Probe>,
}

/// An empty service for the trace at `scale`, reporting to `registry`.
fn new_service(scale: f64, registry: Option<&MetricsRegistry>) -> Service {
    let mut service = Service::new(ServiceConfig {
        seed: TRACE_SEED,
        scale,
        tenants: TENANTS,
        ..ServiceConfig::default()
    });
    if let Some(registry) = registry {
        service.attach_metrics(ServeMetrics::register(registry));
    }
    service
}

/// How many rows of `events` match `probe` within the first `rows[t]`
/// rows of each tenant `t`. Batch `b` goes to tenant `b % TENANTS`, so row
/// `g` of the trace is row `(b / TENANTS) * BATCH_ROWS + g % BATCH_ROWS`
/// of its tenant.
fn prefix_matches(events: &[OrderedEvent], probe: &Probe, rows: &[u64; TENANTS]) -> usize {
    probe
        .window
        .clone()
        .filter(|&g| {
            let b = g / BATCH_ROWS;
            let local = (b / TENANTS) * BATCH_ROWS + g % BATCH_ROWS;
            (local as u64) < rows[b % TENANTS] && probe.query.matches(&events[g])
        })
        .count()
}

impl ArchiveService {
    /// Whether `service` publishes the set-up's catalog for every tenant.
    fn catalogs_match(&self, service: &Service) -> bool {
        (0..TENANTS).all(|t| {
            service
                .snapshot(t)
                .is_ok_and(|s| s.to_bytes() == self.catalogs[t])
        })
    }

    /// Run the next probe federated over a snapshot of `service`, and
    /// check it against the prefix the snapshot held. Returns its ms.
    fn federate(
        &self,
        service: &Service,
        probe: &Probe,
        tracer: &Tracer,
        host: &Host,
        tally: &mut Tally,
    ) -> f64 {
        let req = tracer.request("bench.federated");
        let t = Instant::now();
        let snapshots = req.time("serve.snapshot", || service.snapshot_all());
        if tracer.enabled() {
            // The tenant scans alone, then the whole federated call: the
            // difference is the merge. The scans' results are checked
            // through the federated call.
            req.time("serve.federated_scan", || {
                for s in &snapshots {
                    let _ = s.query(probe.query.clone()).events();
                }
            });
        }
        let got = req.time("serve.federated", || {
            service.federated_over(&snapshots, &probe.query, WORKERS)
        });
        drop(req);
        let ms = host.ms_since(t);
        let mut rows = [0u64; TENANTS];
        for s in &snapshots {
            rows[s.tenant()] = s.rows();
        }
        let want = prefix_matches(&self.events, probe, &rows);
        tally.check(got.is_ok_and(|events| events.len() == want));
        ms
    }

    /// One round: a fresh service, every batch with a federated query
    /// after every [`BATCHES_PER_QUERY`], then a flush of every tenant.
    /// Queries run the probes in turn, carrying on across rounds.
    fn round(
        &self,
        registry: Option<&MetricsRegistry>,
        tracer: &Tracer,
        host: &mut Host,
        phase: &mut Phase,
        tally: &mut Tally,
    ) {
        let service = new_service(self.scale, registry);
        let mut ingest_ms = 0.0;
        let mut admitted = true;
        let slices = self.events.chunks(BATCH_ROWS * BATCHES_PER_QUERY);
        for (s, slice) in slices.enumerate() {
            host.tick();
            let req = tracer.request("bench.ingest");
            let t = Instant::now();
            for (i, batch) in slice.chunks(BATCH_ROWS).enumerate() {
                let tenant = (s * BATCHES_PER_QUERY + i) % TENANTS;
                let done = req.time("serve.submit", || service.submit(tenant, batch));
                admitted &= matches!(done, Ok(Admission::Admitted { .. }));
            }
            drop(req);
            ingest_ms += host.ms_since(t);
            host.tick();
            let probe = &self.probes[phase.ops_ms.len() % self.probes.len()];
            let ms = self.federate(&service, probe, tracer, host, tally);
            phase.ops_ms.push(ms);
        }
        host.tick();
        let req = tracer.request("bench.flush");
        let t = Instant::now();
        for tenant in 0..TENANTS {
            admitted &= req.time("serve.flush", || service.flush(tenant)).is_ok();
        }
        drop(req);
        ingest_ms += host.ms_since(t);
        tally.check(admitted && self.catalogs_match(&service));
        phase
            .rates
            .push(self.events.len() as f64 / (ingest_ms / 1e3));
        phase.units += 1;
    }
}

impl Bench for ArchiveService {
    fn setup(cfg: &Config, req: &Span<'_>) -> Result<Self, String> {
        let scale = cfg.scale_for(Workload::ArchiveService);
        let events = generate(scale, req)?;
        let probes = probes(&events, cfg.queries * DRAWN_PASSES, cfg.seed);
        let service = new_service(scale, None);
        for (i, batch) in events.chunks(BATCH_ROWS).enumerate() {
            if !matches!(
                service.submit(i % TENANTS, batch),
                Ok(Admission::Admitted { .. })
            ) {
                return Err("set-up ingest was refused".into());
            }
        }
        let catalogs = (0..TENANTS)
            .map(|t| {
                service.flush(t)?;
                service.snapshot(t).map(|s| s.to_bytes())
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("set-up flush or snapshot failed: {e}"))?;
        // Each catalog must be the archive of exactly its tenant's batches.
        for (t, catalog) in catalogs.iter().enumerate() {
            let batches = events.chunks(BATCH_ROWS).skip(t).step_by(TENANTS);
            if *catalog != write_archive(batches.flatten(), archive_meta(scale)) {
                return Err(format!("tenant {t} published a catalog unlike its archive"));
            }
        }
        Ok(ArchiveService {
            scale,
            events,
            catalogs,
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
        let registry = MetricsRegistry::new();
        let registry = tracer.enabled().then_some(&registry);
        let mut phase = Phase {
            pass_ops: cfg.queries,
            ..Phase::default()
        };
        let started = Instant::now();
        while phase.ops_ms.len() < phase.pass_ops || started.elapsed() < budget {
            self.round(registry, tracer, host, &mut phase, tally);
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        if let Some(registry) = registry {
            let counters = registry.snapshot().counters;
            let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
            for (key, counter) in [
                ("backpressure_stalls", "serve.backpressure_stalls"),
                ("segments_sealed", "serve.segments_sealed"),
                ("segments_pruned", "serve.federated_segments_pruned"),
                ("segments_scanned", "serve.federated_segments_scanned"),
            ] {
                phase.add(key, count(counter));
            }
        }
        Ok(phase)
    }

    fn layers(
        &self,
        _untraced: &Phase,
        traced: &Phase,
        table: &LayerTable,
    ) -> Vec<(&'static str, f64)> {
        let rounds = traced.units as f64;
        let rows = self.events.len() as f64;
        let count = |name: &str| table.row(name).count as f64;
        let federated = table.self_s("serve.federated");
        vec![
            (
                "serve.submit_rows_per_s",
                table.rate("serve.submit", rows * rounds),
            ),
            (
                "serve.flush_per_s",
                table.rate("serve.flush", count("serve.flush")),
            ),
            (
                "serve.backpressure_stalls",
                ratio(traced.get("backpressure_stalls"), rounds),
            ),
            (
                "serve.segments_sealed",
                ratio(traced.get("segments_sealed"), rounds),
            ),
            (
                "serve.snapshots_per_s",
                table.rate("serve.snapshot", count("serve.snapshot")),
            ),
            (
                "serve.federated_scans_per_s",
                table.rate("serve.federated_scan", count("serve.federated_scan")),
            ),
            (
                "serve.federated_merge_ratio",
                ratio(federated - table.self_s("serve.federated_scan"), federated),
            ),
            (
                "serve.federated_pruned_ratio",
                ratio(
                    traced.get("segments_pruned"),
                    traced.get("segments_pruned") + traced.get("segments_scanned"),
                ),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::probes;
    use charisma::ipsc::SimTime;
    use charisma::trace::record::EventBody;

    #[test]
    fn federated_answers_are_checked_against_the_snapshot_prefix() {
        let events: Vec<OrderedEvent> = (0..60_000u64)
            .map(|i| OrderedEvent {
                time: SimTime::from_micros(i),
                node: (i % 7) as u16,
                body: EventBody::Read {
                    session: 1,
                    offset: i,
                    bytes: 8,
                },
            })
            .collect();
        let service = new_service(0.01, None);
        let batches: Vec<&[OrderedEvent]> = events.chunks(BATCH_ROWS).collect();
        let probes = probes(&events, 20, 3);
        let mut tally = Tally::default();
        // Half-way through ingest the snapshots hold sealed prefixes only;
        // after the flush they hold everything.
        for (part, range) in [
            (0, 0..batches.len() / 2),
            (1, batches.len() / 2..batches.len()),
        ] {
            for i in range {
                service.submit(i % TENANTS, batches[i]).expect("admits");
            }
            if part == 1 {
                for t in 0..TENANTS {
                    service.flush(t).expect("flushes");
                }
            }
            let snapshots = service.snapshot_all();
            let mut rows = [0; TENANTS];
            for s in &snapshots {
                rows[s.tenant()] = s.rows();
            }
            let sealed: u64 = rows.iter().sum();
            assert!(sealed > 0 && (part == 1) == (sealed == events.len() as u64));
            for probe in &probes {
                let got = service
                    .federated_over(&snapshots, &probe.query, 2)
                    .expect("federates")
                    .len();
                assert!(tally.check(got == prefix_matches(&events, probe, &rows)));
                // An answer one row off is counted as a failure.
                assert!(!tally.check(got + 1 == prefix_matches(&events, probe, &rows)));
            }
        }
        assert_eq!(tally.failed, 2 * probes.len() as u64);
        let everything = [u64::MAX; TENANTS];
        for probe in &probes {
            let want = probe.reference(&events);
            assert_eq!(prefix_matches(&events, probe, &everything) as u64, want);
        }
    }
}
