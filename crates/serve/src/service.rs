//! The multi-tenant service: per-tenant ingest queues with bounded
//! backpressure, segment sealing, and snapshot-isolated catalog
//! publication.
//!
//! # Determinism contract
//!
//! A tenant's published catalog is a pure function of the sequence of
//! batches submitted to that tenant: every batch is admitted, queues
//! drain FIFO, and sealing happens at fixed row boundaries
//! ([`SEGMENT_ROWS`]) — exactly where [`charisma_store::ArchiveWriter`]
//! seals. Nothing about *when* the work happened (worker count, claim
//! interleaving, queue-pressure timing) reaches the bytes, so
//! [`Service::run_ingest`] publishes bit-identical catalogs for every
//! worker count and interleave seed, and `charisma-verify gates serve` holds
//! the crate to that.
//!
//! # Snapshot isolation
//!
//! A [`Snapshot`] clones the tenant's sealed-segment handles (an `Arc`
//! bump per segment, no byte copies) under the tenant lock. Segments are
//! immutable after sealing and the catalog is append-only, so the
//! snapshot pins a *prefix* of the tenant's admitted stream: concurrent
//! ingest appends behind it but can never mutate what the snapshot sees.
//! Reading a snapshot mid-ingest therefore equals a serial replay of its
//! pinned prefix — the second half of the `charisma-verify gates serve` gate.

use std::collections::VecDeque;
use std::sync::{MutexGuard, PoisonError};

use charisma_ipsc::faults::FaultRng;
use charisma_ipsc::par::claim_each;
use charisma_store::{
    ArchiveMeta, ArchiveReader, Query, Scan, SealedSegment, SegmentBuilder, SEGMENT_ROWS,
};
use charisma_trace::OrderedEvent;

use crate::metrics::ServeMetrics;
use crate::ServeError;

/// Domain separators for the service's pure decision hashes. The service
/// seeds its own [`FaultRng`], so these need only be distinct from each
/// other, not from the fault layer's.
pub mod domain {
    /// Tenant claim-order permutation under an interleave seed.
    pub const INTERLEAVE: u64 = 0x22;
}

/// Batches a tenant queue holds before a submission stalls and drains it
/// synchronously (bounded backpressure).
pub const QUEUE_BATCHES: usize = 8;

/// Static configuration of a [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Provenance seed recorded in every tenant's published catalog.
    pub seed: u64,
    /// Provenance scale recorded in published catalogs.
    pub scale: f64,
    /// Number of tenants (simulated sites) the service hosts.
    pub tenants: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 4994,
            scale: 0.05,
            tenants: 4,
        }
    }
}

/// The receipt for one submitted batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The batch entered the tenant's queue.
    Admitted {
        /// The batch's tenant-local sequence number.
        batch_seq: u64,
    },
}

/// One tenant's ingest state: the bounded queue, the open builder, and
/// the published catalog of sealed segments.
#[derive(Debug, Default)]
struct Tenant {
    queue: VecDeque<Vec<OrderedEvent>>,
    builder: SegmentBuilder,
    catalog: Vec<SealedSegment>,
    /// Rows sealed into `catalog` (what snapshots see).
    sealed_rows: u64,
    /// Rows admitted (queued + building + sealed).
    admitted_rows: u64,
    /// Batches submitted so far.
    batch_seq: u64,
}

/// An immutable view of one tenant's catalog at the moment it was taken.
///
/// Cloning the sealed-segment handles pins a prefix of the tenant's
/// admitted stream; concurrent ingest cannot affect it. All the store's
/// read machinery is available through [`Snapshot::reader`], and
/// [`Snapshot::to_bytes`] serializes the pinned catalog into the
/// canonical archive container.
#[derive(Clone, Debug)]
pub struct Snapshot {
    tenant: usize,
    reader: ArchiveReader,
}

impl Snapshot {
    /// Pin an externally-reconstructed catalog as tenant `tenant`'s view
    /// — the entry point for serving a *degraded* tenant, where the
    /// catalog bytes come from a replica set's failover reader (see
    /// [`charisma_store::ReplicaSet::failover_reader`]) rather than the
    /// service's own published state. Pairs with
    /// [`Service::federated_over`] to run federated queries in which some
    /// tenants are healthy snapshots and others are replica-recovered.
    pub fn from_reader(tenant: usize, reader: ArchiveReader) -> Self {
        Snapshot { tenant, reader }
    }

    /// The tenant this snapshot pinned.
    pub fn tenant(&self) -> usize {
        self.tenant
    }

    /// The pinned catalog as a store reader.
    pub fn reader(&self) -> &ArchiveReader {
        &self.reader
    }

    /// Rows in the pinned prefix.
    pub fn rows(&self) -> u64 {
        self.reader.rows()
    }

    /// Sealed segments in the pinned prefix.
    pub fn segment_count(&self) -> usize {
        self.reader.segment_count()
    }

    /// Begin a query over the pinned catalog.
    pub fn query(&self, query: Query) -> Scan<'_> {
        self.reader.query(query)
    }

    /// Every pinned record, in stream order.
    pub fn events(&self) -> Result<Vec<OrderedEvent>, ServeError> {
        self.reader.events().map_err(ServeError::Store)
    }

    /// The pinned catalog in the canonical archive container format —
    /// byte-identical for equal catalogs, whatever ingest produced them.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.reader.to_bytes()
    }
}

/// One tenant's scripted ingest: the batches a simulated site will push,
/// in order, via [`Service::run_ingest`].
#[derive(Clone, Debug)]
pub struct TenantFeed {
    /// Destination tenant.
    pub tenant: usize,
    /// Batches to submit, in submission order.
    pub batches: Vec<Vec<OrderedEvent>>,
}

/// A deterministic multi-tenant archive service.
///
/// Construction is cheap; all state is per-tenant and lock-guarded, so
/// `&Service` is freely shareable across ingest workers and readers (the
/// facade shares it via `Arc`). See the module docs for the determinism
/// and isolation contracts.
pub struct Service {
    config: ServiceConfig,
    #[expect(
        clippy::disallowed_types,
        reason = "per-tenant state cell: each tenant's feed is processed serially and in order, \
                  so its catalog is a pure function of the feed whatever the lock schedule"
    )]
    tenants: Vec<std::sync::Mutex<Tenant>>,
    metrics: ServeMetrics,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// A service with `config.tenants` empty tenants and unregistered
    /// (no-op) metric handles.
    pub fn new(config: ServiceConfig) -> Self {
        let tenants = (0..config.tenants).map(|_| Default::default()).collect();
        Service {
            config,
            tenants,
            metrics: ServeMetrics::default(),
        }
    }

    /// Report service activity through `metrics` from now on. Attach
    /// before sharing the service across workers.
    pub fn attach_metrics(&mut self, metrics: ServeMetrics) {
        self.metrics = metrics;
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    pub(crate) fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Lock `tenant`'s state. Tenant state is updated whole-batch under
    /// the lock and the service never unwinds mid-update in library
    /// code, so recover from poisoning instead of propagating it.
    fn tenant(&self, tenant: usize) -> Result<MutexGuard<'_, Tenant>, ServeError> {
        let cell = self.tenants.get(tenant).ok_or(ServeError::UnknownTenant {
            tenant,
            tenants: self.tenants.len(),
        })?;
        Ok(cell.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Submit one batch to `tenant`'s ingest queue.
    ///
    /// The batch is enqueued; if the queue is then over [`QUEUE_BATCHES`]
    /// the caller stalls and drains it synchronously (bounded
    /// backpressure), sealing any full segments into the published
    /// catalog.
    pub fn submit(&self, tenant: usize, batch: &[OrderedEvent]) -> Result<Admission, ServeError> {
        let mut t = self.tenant(tenant)?;
        let batch_seq = t.batch_seq;
        t.batch_seq += 1;
        self.metrics.batches_ingested.inc();
        self.metrics.rows_ingested.add(batch.len() as u64);
        t.admitted_rows += batch.len() as u64;
        t.queue.push_back(batch.to_vec());
        if t.queue.len() > QUEUE_BATCHES {
            self.metrics.backpressure_stalls.inc();
            self.drain(&mut t);
        }
        Ok(Admission::Admitted { batch_seq })
    }

    /// Drain `tenant`'s queue and seal the partial remainder, publishing
    /// everything admitted so far. Call once per tenant when its feed
    /// ends; sealing at any other moment would make the final segment
    /// boundary depend on timing and break catalog byte-identity.
    pub fn flush(&self, tenant: usize) -> Result<(), ServeError> {
        let mut t = self.tenant(tenant)?;
        self.drain(&mut t);
        if !t.builder.is_empty() {
            self.seal(&mut t);
        }
        Ok(())
    }

    /// Move queued batches into the open builder, sealing each time it
    /// reaches the fixed segment boundary. FIFO under the tenant lock:
    /// the sealed output depends only on the admitted batch sequence.
    fn drain(&self, t: &mut Tenant) {
        while let Some(batch) = t.queue.pop_front() {
            for e in &batch {
                // Sealed below the moment it fills, so the builder has room.
                let pushed = t.builder.push(e);
                debug_assert!(pushed.is_ok(), "an open builder is never full");
                if t.builder.len() >= SEGMENT_ROWS {
                    self.seal(t);
                }
            }
        }
    }

    fn seal(&self, t: &mut Tenant) {
        let sealed = t.builder.seal();
        t.sealed_rows += u64::from(sealed.rows());
        t.catalog.push(sealed);
        self.metrics.segments_sealed.inc();
    }

    /// Pin `tenant`'s published catalog as of now. Cheap: clones segment
    /// handles, not segment bytes.
    pub fn snapshot(&self, tenant: usize) -> Result<Snapshot, ServeError> {
        let t = self.tenant(tenant)?;
        self.metrics.snapshots_taken.inc();
        Ok(Snapshot {
            tenant,
            reader: ArchiveReader::new(self.catalog_meta(), t.catalog.clone()),
        })
    }

    /// Pin every tenant's catalog, in tenant order.
    pub fn snapshot_all(&self) -> Vec<Snapshot> {
        // Every index is in range, so no tenant is skipped.
        (0..self.tenants.len())
            .flat_map(|tenant| self.snapshot(tenant))
            .collect()
    }

    /// Rows admitted for `tenant` so far (queued + building + sealed).
    pub fn admitted_rows(&self, tenant: usize) -> Result<u64, ServeError> {
        Ok(self.tenant(tenant)?.admitted_rows)
    }

    fn catalog_meta(&self) -> ArchiveMeta {
        ArchiveMeta {
            seed: self.config.seed,
            scale: self.config.scale,
        }
    }

    /// Run a whole multi-site ingest: `workers` threads claim tenant
    /// feeds through [`claim_each`] (the sanctioned scoped-concurrency
    /// pattern) in an order permuted by `interleave_seed`, submit each
    /// feed's batches in order, and flush the tenant when its feed ends.
    /// A failing feed does not stop the others; the lowest feed index's
    /// error is returned.
    ///
    /// The work unit is the *feed*: one tenant's batches are always
    /// processed serially and in order, so each tenant's catalog is a
    /// pure function of its feed — worker count and claim interleaving
    /// change only the wall-clock schedule, never the published bytes.
    /// Feeds must therefore name distinct tenants; duplicates are
    /// rejected up front.
    pub fn run_ingest(
        &self,
        feeds: &[TenantFeed],
        workers: usize,
        interleave_seed: u64,
    ) -> Result<(), ServeError> {
        let mut seen: Vec<usize> = feeds.iter().map(|f| f.tenant).collect();
        seen.sort_unstable();
        for pair in seen.windows(2) {
            if pair[0] == pair[1] {
                return Err(ServeError::DuplicateFeed { tenant: pair[0] });
            }
        }
        let order = self.claim_order(feeds.len(), interleave_seed);
        // Every feed runs, failing or not; the lowest feed index's error
        // wins, whatever the worker count and claim order.
        let first_error = claim_each(&order, workers, |_, &idx| {
            feeds
                .get(idx)
                .map_or(Ok(()), |feed| self.run_feed(feed))
                .map_err(|e| (idx, e))
        })
        .into_iter()
        .filter_map(Result::err)
        .min_by_key(|(idx, _)| *idx);
        match first_error {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    fn run_feed(&self, feed: &TenantFeed) -> Result<(), ServeError> {
        for batch in &feed.batches {
            self.submit(feed.tenant, batch)?;
        }
        self.flush(feed.tenant)
    }

    /// The deterministic feed-claim permutation for `interleave_seed`:
    /// indices sorted by a decision hash, so different seeds schedule
    /// tenants differently while every run of the same seed agrees.
    fn claim_order(&self, n: usize, interleave_seed: u64) -> Vec<usize> {
        let rng = FaultRng::new(interleave_seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (rng.decide(domain::INTERLEAVE, &[i as u64]), i));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_ipsc::SimTime;
    use charisma_store::{write_archive, Archive};
    use charisma_trace::record::EventBody;

    fn stream(n: u64, node_salt: u64) -> Vec<OrderedEvent> {
        (0..n)
            .map(|i| OrderedEvent {
                time: SimTime::from_micros(i * 3),
                node: ((i + node_salt) % 8) as u16,
                body: EventBody::Read {
                    session: (i % 5) as u32,
                    offset: i * 128,
                    bytes: 128,
                },
            })
            .collect()
    }

    fn batches(events: &[OrderedEvent], batch_rows: usize) -> Vec<Vec<OrderedEvent>> {
        events.chunks(batch_rows).map(<[_]>::to_vec).collect()
    }

    #[test]
    fn published_catalog_matches_the_archive_writer() {
        // A tenant fed the whole stream publishes the exact canonical
        // archive bytes ArchiveWriter produces — build path and serve
        // path meet at one format.
        let config = ServiceConfig {
            tenants: 1,
            ..ServiceConfig::default()
        };
        let service = Service::new(config);
        let events = stream(10_000, 0);
        for batch in batches(&events, 700) {
            service.submit(0, &batch).expect("admits");
        }
        service.flush(0).expect("flushes");
        let snap = service.snapshot(0).expect("snapshots");
        let want = write_archive(
            &events,
            ArchiveMeta {
                seed: config.seed,
                scale: config.scale,
            },
        );
        assert_eq!(snap.to_bytes(), want);
        assert_eq!(snap.rows(), 10_000);
        // And the published bytes parse back as a normal archive.
        let archive = Archive::from_bytes(snap.to_bytes()).expect("parses");
        assert_eq!(archive.events().expect("decodes"), events);
    }

    #[test]
    fn backpressure_drains_and_seals_mid_ingest() {
        let config = ServiceConfig {
            tenants: 1,
            ..ServiceConfig::default()
        };
        let mut service = Service::new(config);
        let registry = charisma_obs::MetricsRegistry::new();
        service.attach_metrics(ServeMetrics::register(&registry));
        let events = stream(18_000, 0);
        for batch in batches(&events, 1500) {
            service.submit(0, &batch).expect("admits");
        }
        // 12 batches through an 8-batch queue: the ninth stalled, and
        // sealed segments were published before any flush.
        let snap = registry.snapshot();
        assert_eq!(snap.counters["serve.backpressure_stalls"], 1);
        assert!(snap.counters["serve.segments_sealed"] >= 1);
        let pre = service.snapshot(0).expect("snapshots");
        assert!(pre.rows() > 0 && pre.rows() < 18_000);
        service.flush(0).expect("flushes");
        let post = service.snapshot(0).expect("snapshots");
        assert_eq!(post.rows(), 18_000);
        assert_eq!(post.events().expect("reads"), events);
    }

    #[test]
    fn snapshots_pin_a_prefix_equal_to_serial_replay() {
        let config = ServiceConfig {
            tenants: 1,
            ..ServiceConfig::default()
        };
        let service = Service::new(config);
        // Enough batches for several stalls, so the catalog grows mid-ingest.
        let events = stream(40_000, 3);
        let mut snapshots = Vec::new();
        for batch in batches(&events, 900) {
            service.submit(0, &batch).expect("admits");
            snapshots.push(service.snapshot(0).expect("snapshots"));
        }
        for snap in &snapshots {
            let rows = usize::try_from(snap.rows()).expect("fits");
            assert_eq!(
                snap.events().expect("reads"),
                events[..rows],
                "snapshot of {rows} rows must equal the admitted prefix"
            );
            // Sealing happens only at whole-segment boundaries.
            assert_eq!(rows % SEGMENT_ROWS, 0);
        }
        // Later snapshots are supersets: the catalog is append-only.
        for pair in snapshots.windows(2) {
            assert!(pair[1].rows() >= pair[0].rows());
        }
        assert!(snapshots[snapshots.len() - 1].rows() > SEGMENT_ROWS as u64);
    }

    #[test]
    fn ingest_is_worker_and_interleave_invariant() {
        let events = stream(20_000, 1);
        let feeds: Vec<TenantFeed> = (0..4)
            .map(|tenant| TenantFeed {
                tenant,
                batches: batches(&events[tenant * 5000..(tenant + 1) * 5000], 600),
            })
            .collect();
        let catalogs = |workers: usize, interleave: u64| -> Vec<Vec<u8>> {
            let service = Service::new(ServiceConfig::default());
            service
                .run_ingest(&feeds, workers, interleave)
                .expect("ingests");
            service
                .snapshot_all()
                .iter()
                .map(Snapshot::to_bytes)
                .collect()
        };
        let baseline = catalogs(1, 1);
        for workers in [1, 2, 4] {
            for interleave in [1, 2] {
                assert_eq!(
                    catalogs(workers, interleave),
                    baseline,
                    "workers={workers} interleave={interleave}"
                );
            }
        }
    }

    #[test]
    fn unknown_tenants_and_duplicate_feeds_are_rejected() {
        let service = Service::new(ServiceConfig {
            tenants: 2,
            ..ServiceConfig::default()
        });
        assert!(matches!(
            service.submit(2, &[]),
            Err(ServeError::UnknownTenant {
                tenant: 2,
                tenants: 2
            })
        ));
        assert!(matches!(
            service.snapshot(9),
            Err(ServeError::UnknownTenant { tenant: 9, .. })
        ));
        let feeds = vec![
            TenantFeed {
                tenant: 0,
                batches: Vec::new(),
            },
            TenantFeed {
                tenant: 0,
                batches: Vec::new(),
            },
        ];
        assert!(matches!(
            service.run_ingest(&feeds, 2, 1),
            Err(ServeError::DuplicateFeed { tenant: 0 })
        ));
        // Two failing feeds: the lower feed index's error wins under every
        // worker count and claim order.
        let feeds: Vec<TenantFeed> = [0, 7, 5]
            .into_iter()
            .map(|tenant| TenantFeed {
                tenant,
                batches: vec![stream(10, 1)],
            })
            .collect();
        for workers in [1, 2, 4] {
            for interleave in 0..8 {
                assert!(
                    matches!(
                        service.run_ingest(&feeds, workers, interleave),
                        Err(ServeError::UnknownTenant { tenant: 7, .. })
                    ),
                    "workers={workers} interleave={interleave}"
                );
            }
        }
    }
}
