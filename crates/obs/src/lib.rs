//! `charisma-obs` — the deterministic observability substrate of the
//! CHARISMA reproduction.
//!
//! The paper's whole contribution was instrumentation: tracing every CFS
//! request on a production machine without perturbing it. This crate turns
//! that philosophy on the simulator itself, so the pipeline's internals —
//! event queue, CFS, caches, shard merge — are observable while a run is
//! in flight, without compromising the property the repository is built
//! on: **same seed, same bytes**.
//!
//! Two ideas organize the design:
//!
//! 1. **Facts, not timings.** Counters, gauges, and histograms record
//!    facts of the *simulation* (requests served, queue depth high-water,
//!    disk service times in simulated microseconds). Their values are a
//!    pure function of the seed, so a [`MetricsSnapshot`] renders
//!    ([`MetricsSnapshot::to_core_json`]) to bytes that are diffed against
//!    a committed fixture — that is the `charisma-verify gates metrics`
//!    gate. Nothing here reads a wall clock: like the paper's trace
//!    records, the metrics are facts, and timing analysis happens outside
//!    (the benchmark's own tracer in `benchmark/`).
//! 2. **Pay per publish, not per event.** Metric handles are `Arc`-shared
//!    atomic cells: registration takes a lock once, and an update is a
//!    compare-and-swap loop on a pre-looked-up handle. That is cheap per
//!    call but not free: in a PC-sample profile of generation at the
//!    benchmark's settings, per-event updates took ~15% of the samples.
//!    So the single-threaded simulators (the `ipsc` machine and event
//!    queue, the CFS, and the trace merge) count into plain fields and [`HistogramTally`]s, and publish into their
//!    attached handles once, when they are dropped, the way the paper's
//!    nodes batched records into 4 KB buffers (§3.1). Handles are updated
//!    directly only where workers on several threads share them: the
//!    archive store's scans and writers, the serve layer, and fault
//!    injection.
//!
//! The crate is dependency-free by design (see `ROADMAP.md`: extend shims,
//! never add registry dependencies).
//!
//! ```
//! use charisma_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let served = registry.counter("cfs.requests");
//! let depth = registry.gauge("engine.queue_depth_high_water");
//! let service = registry.histogram("cfs.disk_service_us");
//!
//! served.inc();
//! depth.record_max(17);
//! service.record(19_500);
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["cfs.requests"], 1);
//! assert!(snapshot.to_core_json().contains("cfs.disk_service_us"));
//! ```

// Determinism rules; the disallowed types and methods live in clippy.toml.
#![forbid(unsafe_code)] // CH006
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)] // CH009
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // CH003
#![cfg_attr(
    not(test),
    deny(
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::float_cmp
    )
)] // CH008

pub mod metrics;
pub mod snapshot;

pub use metrics::{
    bucket_floor, bucket_index, Counter, Gauge, Histogram, HistogramTally, MetricsRegistry,
    HISTOGRAM_BUCKETS,
};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
