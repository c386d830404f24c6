//! Federated queries: one predicate fanned out across every tenant's
//! pinned catalog, k-way merged back into a single deterministic stream.
//!
//! The fan-out reuses the store's sanctioned pattern — worker threads
//! under [`std::thread::scope`] claim snapshots from an atomic cursor —
//! and each claimed snapshot runs an ordinary pruned one-worker [`Scan`].
//! One fan-out worker runs the same claiming loop inline on the calling
//! thread, and so does each one-worker scan, so a one-worker federated
//! query spawns no thread at all. The merge is a k-way minimum over
//! `(time, node, tenant)`: because every tenant stream is internally
//! ordered by `(time, node)`, the merged output is exactly a stable sort
//! of the tenant-ordered concatenation by `(time, node)` — the federation
//! analog of the trace layer's canonical `(time, node, shard, seq)` merge
//! key, with the tenant index standing in for the shard and per-tenant
//! row order for the sequence number. The property suite pins that
//! equivalence for arbitrary queries and worker counts.
//!
//! [`Scan`]: charisma_store::Scan

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use charisma_store::{Query, StoreError};
use charisma_trace::OrderedEvent;

use crate::service::{lock, Service, Snapshot};
use crate::ServeError;

/// A prepared federated query: a predicate bound to a [`Service`]'s
/// tenant set, plus execution knobs. Obtained from
/// [`Service::federated`].
#[derive(Debug)]
pub struct FederatedQuery<'a> {
    service: &'a Service,
    query: Query,
    workers: usize,
}

impl Service {
    /// Begin a query over every tenant's catalog. The returned builder
    /// snapshots all tenants when consumed, so the result is a consistent
    /// federated view even under concurrent ingest.
    pub fn federated(&self, query: Query) -> FederatedQuery<'_> {
        FederatedQuery {
            service: self,
            query,
            workers: 1,
        }
    }
}

impl Service {
    /// Run `query` over an explicit pinned snapshot set instead of the
    /// service's live tenants (tenant order = slice order), merged by the
    /// same `(time, node, tenant)` key as [`Service::federated`].
    ///
    /// This is the degraded-federation entry: swap any tenant's live
    /// snapshot for one rebuilt via [`Snapshot::from_reader`] from a
    /// replica set's failover reader, and the federation answers with the
    /// exact stream a fully healthy service would produce — the
    /// `charisma-verify gates chaos` gate holds it to that.
    pub fn federated_over(
        &self,
        snapshots: &[Snapshot],
        query: &Query,
        workers: usize,
    ) -> Result<Vec<OrderedEvent>, ServeError> {
        federated_events(snapshots, query, workers, self)
    }
}

impl FederatedQuery<'_> {
    /// Fan out over `n` worker threads (default 1; capped at the tenant
    /// count; 0 is treated as 1). The result is identical for every `n`.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Every matching record across all tenants, merged by
    /// `(time, node, tenant)`.
    pub fn events(&self) -> Result<Vec<OrderedEvent>, ServeError> {
        let snapshots = self.service.snapshot_all();
        federated_events(&snapshots, &self.query, self.workers, self.service)
    }
}

/// Run `query` over an explicit snapshot set (tenant order = slice
/// order) and merge. The `Service` method above is the common entry;
/// this free function also serves pinned snapshot sets directly.
pub(crate) fn federated_events(
    snapshots: &[Snapshot],
    query: &Query,
    workers: usize,
    service: &Service,
) -> Result<Vec<OrderedEvent>, ServeError> {
    let m = service.metrics();
    m.federated_queries.inc();
    let mut pruned = 0u64;
    let mut admitted = 0u64;
    for snap in snapshots {
        for seg in snap.reader().segments() {
            if query.admits(seg.zone()) {
                admitted += 1;
            } else {
                pruned += 1;
            }
        }
    }
    m.federated_segments_pruned.add(pruned);
    m.federated_segments_scanned.add(admitted);

    let workers = workers.min(snapshots.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Vec<OrderedEvent>)>> = Mutex::new(Vec::new());
    let first_error: Mutex<Option<(usize, StoreError)>> = Mutex::new(None);
    // One worker body: run inline when it is the only worker, on scoped
    // threads otherwise.
    let work = || loop {
        let claim = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(snap) = snapshots.get(claim) else {
            break;
        };
        match snap.reader().query(query.clone()).events() {
            Ok(events) => lock(&results).push((claim, events)),
            Err(e) => {
                let mut slot = lock(&first_error);
                // Keep the lowest-tenant error: deterministic
                // regardless of which worker saw one first.
                if slot.as_ref().is_none_or(|(s, _)| claim < *s) {
                    *slot = Some((claim, e));
                }
            }
        }
    };
    if workers == 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }
    if let Some((_, e)) = lock(&first_error).take() {
        return Err(ServeError::Store(e));
    }
    let mut per_tenant: Vec<Vec<OrderedEvent>> = vec![Vec::new(); snapshots.len()];
    for (tenant, events) in lock(&results).drain(..) {
        per_tenant[tenant] = events;
    }
    let merged = kway_merge(&per_tenant);
    m.federated_rows.add(merged.len() as u64);
    Ok(merged)
}

/// Deterministic k-way merge of per-tenant ordered streams. Ties on
/// `(time, node)` break by tenant index, which for internally-ordered
/// inputs makes the output a stable sort of the tenant-ordered
/// concatenation by `(time, node)`.
fn kway_merge(streams: &[Vec<OrderedEvent>]) -> Vec<OrderedEvent> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut heads = vec![0usize; streams.len()];
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut best: Option<(u64, u16, usize)> = None;
        for (tenant, stream) in streams.iter().enumerate() {
            if let Some(e) = stream.get(heads[tenant]) {
                let key = (e.time.as_micros(), e.node, tenant);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let Some((_, _, tenant)) = best else {
            break;
        };
        if let Some(&e) = streams[tenant].get(heads[tenant]) {
            out.push(e);
        }
        heads[tenant] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, TenantFeed};
    use charisma_ipsc::SimTime;
    use charisma_trace::record::EventBody;

    fn stream(n: u64, salt: u64) -> Vec<OrderedEvent> {
        (0..n)
            .map(|i| OrderedEvent {
                time: SimTime::from_micros((i + salt) / 2 * 5),
                node: ((i * 7 + salt) % 6) as u16,
                body: EventBody::Read {
                    session: (i % 4) as u32,
                    offset: i * 64,
                    bytes: 64,
                },
            })
            .collect()
    }

    fn sorted(mut events: Vec<OrderedEvent>) -> Vec<OrderedEvent> {
        events.sort_by_key(|e| (e.time, e.node));
        events
    }

    fn service_with(feeds: &[TenantFeed]) -> Service {
        let service = Service::new(ServiceConfig {
            tenants: feeds.len(),
            ..ServiceConfig::default()
        });
        service.run_ingest(feeds, 2, 1).expect("ingests");
        service
    }

    fn feeds(k: usize, rows: u64) -> Vec<TenantFeed> {
        (0..k)
            .map(|tenant| TenantFeed {
                tenant,
                batches: sorted(stream(rows, tenant as u64 * 17))
                    .chunks(777)
                    .map(<[_]>::to_vec)
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn federated_scan_equals_concat_then_stable_sort() {
        let feeds = feeds(3, 9000);
        let service = service_with(&feeds);
        let queries = [
            Query::all(),
            Query::all().nodes(&[1, 4]),
            Query::all().time_window(SimTime::from_micros(500), SimTime::from_micros(14_000)),
        ];
        for q in queries {
            // Oracle: serial per-tenant scans concatenated in tenant
            // order, stable-sorted by (time, node).
            let mut want = Vec::new();
            for feed in &feeds {
                let snap = service.snapshot(feed.tenant).expect("snapshots");
                want.extend(snap.query(q.clone()).events().expect("scans"));
            }
            want.sort_by_key(|e| (e.time, e.node)); // stable
            for workers in [1, 2, 4] {
                let got = service
                    .federated(q.clone())
                    .workers(workers)
                    .events()
                    .expect("federates");
                assert_eq!(got, want, "workers={workers} query={q:?}");
            }
        }
    }

    #[test]
    fn federated_metrics_account_for_pruning_and_rows() {
        let feeds = feeds(2, 10_000);
        let federated_counters = |workers: usize| {
            let mut service = Service::new(ServiceConfig {
                tenants: 2,
                ..ServiceConfig::default()
            });
            let registry = charisma_obs::MetricsRegistry::new();
            service.attach_metrics(crate::ServeMetrics::register(&registry));
            service.run_ingest(&feeds, 2, 1).expect("ingests");
            let q = Query::all().time_window(SimTime::ZERO, SimTime::from_micros(100));
            let got = service
                .federated(q)
                .workers(workers)
                .events()
                .expect("federates");
            let mut counters = registry.snapshot().counters;
            counters.retain(|name, _| name.starts_with("serve.federated_"));
            (got, counters)
        };
        let (got, counters) = federated_counters(1);
        assert_eq!(counters["serve.federated_queries"], 1);
        assert!(counters["serve.federated_segments_pruned"] > 0);
        assert!(counters["serve.federated_segments_scanned"] > 0);
        assert_eq!(counters["serve.federated_rows"], got.len() as u64);
        // The inline one-worker fan-out and the threaded ones count alike.
        for workers in [2, 4] {
            let (got_n, counters_n) = federated_counters(workers);
            assert_eq!(got_n, got, "workers={workers}");
            assert_eq!(counters_n, counters, "workers={workers}");
        }
    }

    #[test]
    fn degraded_tenants_federate_exactly_like_healthy_ones() {
        use charisma_store::{ReplicaConfig, ReplicaSet};

        let feeds = feeds(3, 9000);
        let service = service_with(&feeds);
        let q = Query::all().nodes(&[0, 2, 5]);
        let want = service
            .federated(q.clone())
            .workers(2)
            .events()
            .expect("federates");

        // Replicate tenant 1's catalog, damage two of its three copies of
        // a segment, and rebuild its snapshot through failover.
        let mut snapshots = service.snapshot_all();
        let set = {
            let pinned = &snapshots[1];
            let mut set = ReplicaSet::place(pinned.reader(), ReplicaConfig::default(), 77);
            assert!(set.corrupt_byte(0, 0, 100, 0x40));
            assert!(set.lose_replica(0, 1));
            set
        };
        let (reader, failovers) = set.failover_reader().expect("one copy survives");
        assert!(failovers > 0, "damage must actually be routed around");
        snapshots[1] = Snapshot::from_reader(1, reader);

        for workers in [1, 2, 4] {
            let got = service
                .federated_over(&snapshots, &q, workers)
                .expect("degraded federation answers");
            assert_eq!(got, want, "workers={workers}");
        }

        // Beyond repair: tenants 1 and 2 lose every copy of their first
        // segment, and recovery supplies the verifying bytes of a segment
        // with a different row count, so their scans fail. Inline and
        // threaded fan-outs return the same error: tenant 1's.
        let mut broken = service.snapshot_all();
        for tenant in [1, 2] {
            let pinned = &broken[tenant];
            let segments = pinned.reader().segments();
            let wrong = segments
                .iter()
                .find(|s| s.rows() != segments[0].rows())
                .expect("a segment of another size")
                .bytes()
                .to_vec();
            let mut set = ReplicaSet::place(pinned.reader(), ReplicaConfig::default(), 77);
            for replica in 0..set.live_replicas(0) {
                assert!(set.lose_replica(0, replica));
            }
            let (reader, report) = set
                .failover_reader_with(|seg| (seg == 0).then(|| wrong.clone()))
                .expect("the recovered bytes verify");
            assert_eq!(report.reconstructed, 1);
            broken[tenant] = Snapshot::from_reader(tenant, reader);
        }
        let own = ServeError::Store(
            broken[1]
                .query(q.clone())
                .events()
                .expect_err("tenant 1 alone fails"),
        );
        for workers in [1, 2, 4] {
            let err = service
                .federated_over(&broken, &q, workers)
                .expect_err("a broken tenant fails the federation");
            assert_eq!(format!("{err:?}"), format!("{own:?}"), "workers={workers}");
        }
    }

    #[test]
    fn empty_and_lopsided_tenants_merge_cleanly() {
        let feeds = vec![
            TenantFeed {
                tenant: 0,
                batches: Vec::new(),
            },
            TenantFeed {
                tenant: 1,
                batches: vec![sorted(stream(300, 2))],
            },
        ];
        let service = service_with(&feeds);
        let got = service
            .federated(Query::all())
            .workers(4)
            .events()
            .expect("federates");
        assert_eq!(got, sorted(stream(300, 2)));
    }
}
