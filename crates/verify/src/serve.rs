//! The archive-service gate: proof that `charisma-serve` keeps the
//! store's canonical-bytes promise in a live multi-tenant setting.
//!
//! The serve layer claims each tenant's published catalog is a **pure
//! function of its admitted batch sequence** — ingest worker counts,
//! claim interleavings, and queue-pressure timing are execution details.
//! The `serve` gate turns the claim into four checks over one pinned
//! workload (the serial clean run's merged stream, round-robin
//! partitioned into four tenant feeds):
//!
//! 1. **Schedule invariance** — every `(workers, interleave seed)` cell
//!    of the matrix must publish byte-identical catalogs for all tenants.
//! 2. **Snapshot isolation** — a snapshot taken after every submitted
//!    batch must equal a serial replay of exactly the prefix it pinned,
//!    and the post-flush snapshot must equal the tenant's full stream.
//! 3. **Federated oracle** — a federated scan must equal the tenant-order
//!    concatenation of serial per-tenant scans, stable-sorted by the
//!    canonical `(time, node)` key, for all-pass and pruned queries
//!    alike, at every fan-out width.
//! 4. **Sink parity** — a pipeline run delivered through
//!    `ArchiveSink::Serve` must publish the same bytes as the same run's
//!    `ArchiveSink::Memory` container (the build/serve split cannot leak
//!    into the format).

use std::sync::Arc;

use charisma::serve::{Service, ServiceConfig, TenantFeed};
use charisma::store::Query;
use charisma::trace::OrderedEvent;
use charisma::{ArchiveSink, Pipeline, ServeSink};

use crate::determinism::fnv1a_hash;
use crate::gates::{Config, Runs};

/// Tenants the gate's service hosts.
const GATE_TENANTS: usize = 4;

/// Rows per submitted batch in the gate's feeds: deliberately off the
/// segment size so sealing happens mid-batch.
const GATE_BATCH_ROWS: usize = 700;

/// Ingest worker counts the schedule-invariance matrix covers.
const GATE_WORKERS: &[usize] = &[1, 2, 4];

/// Interleave seeds the schedule-invariance matrix covers (on top of the
/// seed-0 baseline).
const GATE_INTERLEAVES: &[u64] = &[1, 2];

/// Round-robin partition of the merged stream into `tenants` feeds.
/// Subsequences of a `(time, node)`-ordered stream stay ordered, so each
/// feed is a valid archive input.
pub(crate) fn partition(events: &[OrderedEvent], tenants: usize) -> Vec<Vec<OrderedEvent>> {
    let mut streams = vec![Vec::new(); tenants];
    for (i, e) in events.iter().enumerate() {
        streams[i % tenants].push(*e);
    }
    streams
}

pub(crate) fn feeds_from(streams: &[Vec<OrderedEvent>]) -> Vec<TenantFeed> {
    streams
        .iter()
        .enumerate()
        .map(|(tenant, events)| TenantFeed {
            tenant,
            batches: events.chunks(GATE_BATCH_ROWS).map(<[_]>::to_vec).collect(),
        })
        .collect()
}

/// Ingest the feeds on one schedule and return each tenant's published
/// catalog bytes.
fn publish(
    config: &ServiceConfig,
    feeds: &[TenantFeed],
    workers: usize,
    interleave: u64,
) -> Result<Vec<Vec<u8>>, charisma::Error> {
    let service = Service::new(*config);
    service.run_ingest(feeds, workers, interleave)?;
    Ok(service
        .snapshot_all()
        .iter()
        .map(charisma::serve::Snapshot::to_bytes)
        .collect())
}

/// The `serve` gate: schedule invariance, snapshot isolation, the
/// federated oracle, and sink parity.
pub(crate) fn check(runs: &mut Runs, _write: bool) -> Result<Vec<String>, charisma::Error> {
    let mut complaints = Vec::new();
    let tenants = GATE_TENANTS;
    let (seed, scale) = (runs.seed, runs.scale);
    let out = runs.get(Config::Clean, 1)?;
    let streams = partition(&out.events, tenants);
    let feeds = feeds_from(&streams);
    let config = ServiceConfig {
        seed,
        scale,
        tenants,
        ..ServiceConfig::default()
    };

    // 1. Schedule invariance: the (workers × interleave) matrix must agree
    // with the serial seed-0 baseline, byte for byte, per tenant.
    let baseline = publish(&config, &feeds, 1, 0)?;
    for &workers in GATE_WORKERS {
        for &interleave in GATE_INTERLEAVES {
            let got = publish(&config, &feeds, workers, interleave)?;
            for (tenant, (a, b)) in baseline.iter().zip(&got).enumerate() {
                if a != b {
                    complaints.push(format!(
                        "tenant {tenant} catalog bytes under workers={workers} \
                         interleave={interleave} differ from the serial baseline \
                         ({} vs {} bytes, fnv1a {:#018x} vs {:#018x})",
                        b.len(),
                        a.len(),
                        fnv1a_hash(b),
                        fnv1a_hash(a),
                    ));
                }
            }
        }
    }

    // 2. Snapshot isolation: after every submitted batch, the snapshot
    // must be a serial replay of exactly the prefix it pinned.
    let service = Service::new(config);
    let probe_tenant = tenants - 1;
    let stream = &streams[probe_tenant];
    for (batch_no, batch) in stream.chunks(GATE_BATCH_ROWS).enumerate() {
        service.submit(probe_tenant, batch)?;
        let snap = service.snapshot(probe_tenant)?;
        let rows = usize::try_from(snap.rows()).unwrap_or(usize::MAX);
        if rows > stream.len() {
            complaints.push(format!(
                "mid-ingest snapshot after batch {batch_no} claims {rows} rows, \
                 more than the {} submitted so far",
                stream.len()
            ));
            break;
        }
        let replay = snap.events()?;
        if replay != stream[..rows] {
            complaints.push(format!(
                "mid-ingest snapshot after batch {batch_no} ({rows} rows) is not \
                 a serial replay of the pinned prefix"
            ));
            break;
        }
    }
    service.flush(probe_tenant)?;
    let final_snap = service.snapshot(probe_tenant)?;
    if final_snap.events()? != *stream {
        complaints.push(format!(
            "post-flush snapshot ({} rows) does not equal the tenant's full \
             {}-row stream",
            final_snap.rows(),
            stream.len()
        ));
    }

    // 3. Federated oracle: all-pass and pruned queries, every fan-out.
    let service = Service::new(config);
    service.run_ingest(&feeds, 2, 0)?;
    let queries = [Query::all(), pruning_query(&out.events)];
    for query in queries {
        let mut want = Vec::new();
        for tenant in 0..tenants {
            let snap = service.snapshot(tenant)?;
            want.extend(snap.query(query.clone()).events()?);
        }
        want.sort_by_key(|e| (e.time, e.node)); // stable: ties keep tenant order
        for &workers in GATE_WORKERS {
            let got = service.federated(query.clone()).workers(workers).events()?;
            if got != want {
                complaints.push(format!(
                    "federated scan (workers={workers}, query={query:?}) returned \
                     {} rows where the concat-and-stable-sort oracle has {}",
                    got.len(),
                    want.len()
                ));
            }
        }
    }

    // 4. Sink parity: a serve-sink pipeline run publishes the same bytes
    // as the memory-sink container.
    let sink_service = Arc::new(Service::new(ServiceConfig {
        seed,
        scale,
        tenants: 1,
        ..ServiceConfig::default()
    }));
    let served = Pipeline::new()
        .seed(seed)
        .scale(scale)
        .shards(2)
        .sink(ArchiveSink::Serve(ServeSink::new(
            Arc::clone(&sink_service),
            0,
        )))
        .run()?;
    if served.archive != out.archive {
        complaints.push(format!(
            "serve-sink pipeline bytes ({:?}) differ from the memory-sink \
             container ({:?})",
            served.archive.as_ref().map(Vec::len),
            out.archive.as_ref().map(Vec::len),
        ));
    }
    Ok(complaints)
}

/// A time-window query over the middle third of the trace: wide enough to
/// match rows, narrow enough that zone maps prune segments.
fn pruning_query(events: &[OrderedEvent]) -> Query {
    let (t0, t1) = match (events.first(), events.last()) {
        (Some(a), Some(b)) => (a.time.as_micros(), b.time.as_micros()),
        _ => (0, 0),
    };
    let span = t1.saturating_sub(t0);
    Query::all().time_window(
        charisma::ipsc::SimTime::from_micros(t0 + span / 3),
        charisma::ipsc::SimTime::from_micros(t0 + 2 * span / 3),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_preserves_per_stream_order() {
        let out = Pipeline::new().scale(0.01).run().expect("runs");
        for stream in partition(&out.events, 4) {
            for w in stream.windows(2) {
                assert!((w[0].time, w[0].node) <= (w[1].time, w[1].node));
            }
        }
    }
}
