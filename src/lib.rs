//! # charisma
//!
//! A full reproduction of *"Dynamic File-Access Characteristics of a
//! Production Parallel Scientific Workload"* (Kotz & Nieuwejaar,
//! Supercomputing '94) — the first CHARISMA study: three weeks of
//! file-system tracing on the 128-node Intel iPSC/860 at NASA Ames, plus
//! trace-driven buffer-cache simulations.
//!
//! The original traces are proprietary, so this crate ships a calibrated
//! synthetic substitute: a simulator of the machine and its Concurrent
//! File System, a production job mix whose generated trace reproduces the
//! paper's published statistics, the paper's full analysis suite, and its
//! cache experiments. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quick start
//!
//! [`Pipeline`] runs the whole study — workload generation, clock
//! rectification, deterministic merge, and the paper's §4
//! characterization — in one call. `.shards(n)` spreads generation over
//! `n` worker threads; the output is bit-identical for every `n`.
//!
//! ```
//! use charisma::prelude::*;
//!
//! let out = Pipeline::new().scale(0.01).seed(4994).shards(2).run()?;
//!
//! let census = charisma::core::census::census(&out.report.chars);
//! assert!(census.total > 1000 && census.write_only > 0);
//! assert!(out.report.render().contains("Figure 4"));
//! # Ok::<(), charisma::Error>(())
//! ```
//!
//! The pre-pipeline entry points (`generate` → `postprocess` →
//! `Report::from_events`) remain available for code that needs one layer
//! at a time — e.g. poking at a raw unrectified trace.
//!
//! ## Crate map
//!
//! * [`ipsc`] — the iPSC/860: hypercube, subcube allocation, drifting
//!   clocks, message model, discrete-event queue;
//! * [`cfs`] — the Concurrent File System: I/O modes, 4 KB striping,
//!   disks, caches, plus the paper's recommended strided and collective
//!   interfaces;
//! * [`trace`] — CHARISMA trace records, collection, clock-drift
//!   postprocessing, and the deterministic k-way shard merge;
//! * [`workload`] — the calibrated synthetic job mix, the generator, and
//!   the sharded parallel driver ([`workload::shard`]);
//! * [`core`] — the workload characterization (every §4 table and figure);
//! * [`cachesim`] — the trace-driven cache simulations (Figures 8-9 and
//!   the combined experiment);
//! * [`store`] — the indexed columnar trace archive and its parallel
//!   predicate-pushdown query engine (`.sink(ArchiveSink::Path(…))` on
//!   the pipeline, [`store::Archive::open`] to reopen and query), now
//!   split into an append-only build side ([`store::SegmentBuilder`] →
//!   [`store::SealedSegment`]) and a read-only serve side
//!   ([`store::ArchiveReader`]);
//! * [`serve`] — the multi-tenant archive service over that split:
//!   bounded-queue ingest with deterministic admission, snapshot-isolated
//!   catalogs, and federated cross-tenant queries
//!   (`.sink(ArchiveSink::Serve(…))` plugs a pipeline run in as one
//!   tenant);
//! * [`tier`] — hot/warm/cold segment tiering over the store's replica
//!   substrate: scan-fed access ledgers, deterministic weighted
//!   classification, dynamic replication for hot segments, XOR
//!   parity-protected single copies for cold ones ([`tier::TieredSet::build`]
//!   over a sealed archive and its access ledger);
//! * [`obs`] — the deterministic observability layer: counters, gauges,
//!   log2 histograms, span timings, and profiling probes, surfaced as
//!   [`PipelineOutput::metrics`].
//!
//! ## Fault injection
//!
//! `.faults(FaultPlan)` subjects a run to a deterministic chaos plan —
//! disk transients with retry/backoff, I/O-node outages with stripe
//! failover, message delay/drop/duplication, clock jumps — without
//! changing a single workload decision, and with the same output for
//! every worker count. See [`ipsc::faults`] and the README's
//! "Fault injection & chaos testing" section.

pub use charisma_cachesim as cachesim;
pub use charisma_cfs as cfs;
pub use charisma_core as core;
pub use charisma_ipsc as ipsc;
pub use charisma_obs as obs;
pub use charisma_serve as serve;
pub use charisma_store as store;
pub use charisma_tier as tier;
pub use charisma_trace as trace;
pub use charisma_workload as workload;

mod error;
mod pipeline;

pub use error::Error;
pub use pipeline::{ArchiveSink, Pipeline, PipelineOutput, ServeSink};

/// The commonly used types and entry points in one import.
pub mod prelude {
    pub use crate::error::Error;
    pub use crate::pipeline::{ArchiveSink, Pipeline, PipelineOutput, ServeSink};
    pub use charisma_cachesim::{
        combined_simulation, compute_cache_sim, io_cache_sim, Policy, SessionIndex,
    };
    pub use charisma_cfs::{Access, Cfs, CfsConfig, IoMode, StridedSpec};
    pub use charisma_core::report::Report;
    pub use charisma_core::{analyze, Characterization};
    pub use charisma_ipsc::{FaultPlan, IoNodeDown, Machine, MachineConfig, RetryPolicy, SimTime};
    pub use charisma_obs::{MetricsRegistry, MetricsSnapshot, NoopProbe, Probe};
    pub use charisma_serve::{
        FederatedQuery, ServeError, Service, ServiceConfig, Snapshot, TenantFeed,
    };
    pub use charisma_store::{
        AccessLedger, Archive, ArchiveMeta, ArchiveReader, OpClass, OpSet, ParityGroup, Query,
        ReplicaSet, SealedSegment, SegmentBuilder, StoreError,
    };
    pub use charisma_tier::{Tier, TierPlan, TierReport, TieredSet};
    pub use charisma_trace::{postprocess, OrderedEvent, Trace};
    pub use charisma_workload::{generate, GeneratorConfig};
}
