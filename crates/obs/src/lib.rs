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
//! Three ideas organize the design:
//!
//! 1. **Deterministic core.** Counters, gauges, and histograms record
//!    facts of the *simulation* (requests served, queue depth high-water,
//!    disk service times in simulated microseconds). Their values are a
//!    pure function of the seed, so a [`MetricsSnapshot`]'s core can be
//!    diffed byte-for-byte against a committed fixture — that is the
//!    `charisma-verify gates metrics` gate.
//! 2. **Segregated nondeterminism.** Span timings measure *wall-clock*
//!    phases ([`MetricsRegistry::span`], the [`span!`] macro). They are
//!    useful for profiling but vary run to run, so the JSON export
//!    quarantines them under a `"nondeterministic"` key and
//!    [`MetricsSnapshot::to_core_json`] omits them entirely.
//! 3. **Near-zero cost.** Metric handles are `Arc`-shared atomic cells:
//!    registration takes a lock once, per-event updates are single relaxed
//!    atomic operations on pre-looked-up handles. Profiling hooks go
//!    through the [`Probe`] trait, whose default [`NoopProbe`] inlines to
//!    nothing.
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

pub mod metrics;
pub mod probe;
pub mod snapshot;
pub mod span;

pub use metrics::{
    bucket_floor, bucket_index, Counter, Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use probe::{NoopProbe, Probe};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot, TimingSnapshot};
pub use span::Span;
