//! Property tests for the serve layer.
//!
//! Three promises, pinned over arbitrary tenant streams, queries, worker
//! counts, and batch sizes:
//! * a federated scan over K tenants equals concatenating K serial scans
//!   in tenant order and re-sorting by the canonical `(time, node)` key
//!   (stable — ties keep tenant order, the federation analog of the trace
//!   layer's `(time, node, shard, seq)` merge key);
//! * a snapshot taken at any point mid-ingest sees exactly a prefix of
//!   the tenant's admitted stream — a serial replay of the pinned prefix,
//!   immune to concurrent ingest and queue-pressure timing;
//! * published catalog bytes are invariant to the ingest worker count and
//!   interleave seed.

use charisma_ipsc::SimTime;
use charisma_serve::{Service, ServiceConfig, TenantFeed};
use charisma_store::{OpClass, OpSet, Query};
use charisma_trace::record::{AccessKind, EventBody};
use charisma_trace::OrderedEvent;
use proptest::prelude::*;

/// Bodies with deliberately small id alphabets so queries actually hit.
fn arb_body() -> impl Strategy<Value = EventBody> {
    prop_oneof![
        (0u32..8, any::<u16>(), any::<bool>())
            .prop_map(|(job, nodes, traced)| EventBody::JobStart { job, nodes, traced }),
        (0u32..8).prop_map(|job| EventBody::JobEnd { job }),
        (0u32..8, 0u32..16, 0u32..24, 0u8..4, 0u8..3, any::<bool>()).prop_map(
            |(job, file, session, mode, acc, created)| EventBody::Open {
                job,
                file,
                session,
                mode,
                access: AccessKind::from_code(acc).expect("0..3"),
                created,
            }
        ),
        (0u32..24, any::<u64>(), any::<u32>()).prop_map(|(session, offset, bytes)| {
            EventBody::Read {
                session,
                offset,
                bytes,
            }
        }),
        (0u32..24, any::<u64>(), any::<u32>()).prop_map(|(session, offset, bytes)| {
            EventBody::Write {
                session,
                offset,
                bytes,
            }
        }),
        (0u32..8, 0u32..16).prop_map(|(job, file)| EventBody::Delete { job, file }),
    ]
}

/// One tenant's stream: ordered by `(time, node)` like every producer of
/// archive input, with a small time alphabet so cross-tenant ties occur.
fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<OrderedEvent>> {
    proptest::collection::vec((0u64..5_000, 0u16..6, arb_body()), 0..max_len).prop_map(|raw| {
        let mut events: Vec<OrderedEvent> = raw
            .into_iter()
            .map(|(t, node, body)| OrderedEvent {
                time: SimTime::from_micros(t),
                node,
                body,
            })
            .collect();
        events.sort_by_key(|e| (e.time, e.node));
        events
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        proptest::option::of((0u64..5_000, 0u64..5_000)),
        proptest::option::of(proptest::collection::vec(0u32..10, 0..3)),
        proptest::option::of(proptest::collection::vec(0u16..7, 0..3)),
        any::<bool>(),
    )
        .prop_map(|(time, jobs, nodes, requests_only)| {
            let mut q = Query::all();
            if let Some((a, b)) = time {
                q = q.time_window(
                    SimTime::from_micros(a.min(b)),
                    SimTime::from_micros(a.max(b)),
                );
            }
            if let Some(jobs) = jobs {
                q = q.jobs(&jobs);
            }
            if let Some(nodes) = nodes {
                q = q.nodes(&nodes);
            }
            if requests_only {
                q = q.ops(OpSet::requests().with(OpClass::Open));
            }
            q
        })
}

/// Split a stream into batches of `batch_rows` (at least 1).
fn batches(events: &[OrderedEvent], batch_rows: usize) -> Vec<Vec<OrderedEvent>> {
    events
        .chunks(batch_rows.max(1))
        .map(<[_]>::to_vec)
        .collect()
}

fn ingested(streams: &[Vec<OrderedEvent>], batch_rows: usize) -> Service {
    let service = Service::new(ServiceConfig {
        tenants: streams.len(),
        ..ServiceConfig::default()
    });
    let feeds: Vec<TenantFeed> = streams
        .iter()
        .enumerate()
        .map(|(tenant, events)| TenantFeed {
            tenant,
            batches: batches(events, batch_rows),
        })
        .collect();
    service.run_ingest(&feeds, 2, 7).expect("ingests");
    service
}

proptest! {
    /// Federated scan ≡ concat serial per-tenant scans, stable-sorted by
    /// the canonical `(time, node)` key, for arbitrary queries and worker
    /// counts.
    #[test]
    fn federated_scan_equals_concat_and_sort(
        streams in proptest::collection::vec(arb_stream(300), 1..5),
        q in arb_query(),
        workers in 1usize..5,
        batch_rows in 1usize..200,
    ) {
        let service = ingested(&streams, batch_rows);
        let mut want = Vec::new();
        for tenant in 0..streams.len() {
            let snap = service.snapshot(tenant).expect("snapshots");
            want.extend(snap.query(q.clone()).events().expect("scans"));
        }
        want.sort_by_key(|e| (e.time, e.node)); // stable: ties keep tenant order
        let got = service.federated(q).workers(workers).events().expect("federates");
        prop_assert_eq!(got, want);
    }

    /// A snapshot taken after any submission equals a serial replay of
    /// the prefix it pinned, under arbitrary batch sizes — and the final
    /// flush publishes exactly the full stream.
    #[test]
    fn snapshots_see_exactly_a_pinned_prefix(
        events in arb_stream(500),
        batch_rows in 1usize..120,
    ) {
        let service = Service::new(ServiceConfig {
            tenants: 1,
            ..ServiceConfig::default()
        });
        for batch in batches(&events, batch_rows) {
            service.submit(0, &batch).expect("admits");
            let snap = service.snapshot(0).expect("snapshots");
            let rows = usize::try_from(snap.rows()).expect("fits");
            prop_assert!(rows <= events.len());
            prop_assert_eq!(snap.events().expect("reads"), &events[..rows]);
        }
        service.flush(0).expect("flushes");
        let snap = service.snapshot(0).expect("snapshots");
        prop_assert_eq!(snap.events().expect("reads"), events);
    }

    /// Published catalog bytes are a pure function of the per-tenant
    /// feeds: every worker count and interleave seed agrees.
    #[test]
    fn catalog_bytes_are_schedule_invariant(
        streams in proptest::collection::vec(arb_stream(250), 1..5),
        batch_rows in 1usize..150,
        interleave in 0u64..100,
    ) {
        let publish = |workers: usize, seed: u64| -> Vec<Vec<u8>> {
            let service = Service::new(ServiceConfig {
                tenants: streams.len(),
                ..ServiceConfig::default()
            });
            let feeds: Vec<TenantFeed> = streams
                .iter()
                .enumerate()
                .map(|(tenant, events)| TenantFeed {
                    tenant,
                    batches: batches(events, batch_rows),
                })
                .collect();
            service.run_ingest(&feeds, workers, seed).expect("ingests");
            service
                .snapshot_all()
                .iter()
                .map(charisma_serve::Snapshot::to_bytes)
                .collect()
        };
        let baseline = publish(1, 0);
        for workers in [2usize, 4] {
            prop_assert_eq!(publish(workers, interleave), baseline.clone());
        }
    }
}
