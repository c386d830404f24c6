//! `charisma-verify`: the correctness-tooling layer of the CHARISMA
//! reproduction.
//!
//! The whole value of this workspace is that `charisma-ipsc` + `charisma-cfs`
//! produce *deterministic, well-formed* traces standing in for the
//! proprietary NASA Ames data. This crate enforces that claim:
//!
//! - [`gates`] — the gate table behind `charisma-verify gates [NAME ...]
//!   [--write]`: seven named checks over one shared set of pipeline runs at
//!   the pinned seed, scale and worker counts. Each check lives in its own
//!   module:
//!   - [`determinism`] — the pipeline run repeatedly with the same seed
//!     and at every worker count must emit byte-identical record streams
//!     (raw traces, merged stream, report), archives and metric cores; a
//!     divergence is localized to the first differing record.
//!   - [`metrics`] — the observability layer's deterministic core
//!     (counters/gauges/histograms) is diffed against a checked-in
//!     fixture, and every worker count must merge to the serial core.
//!   - [`chaos`] — the same contracts *under the canonical fault-injection
//!     plan*, plus a fault-metrics fixture, and the self-healing archive
//!     drill ([`chaos::archive_fault_drill`]) over the archive of the
//!     chaos run's stream.
//!   - [`archive`] — the columnar archive's bytes are canonical (worker
//!     invariant and pinned by a hash fixture), it round-trips the merged
//!     stream exactly, zone-map pruning never changes a result, a
//!     two-predicate query's scan counters are pinned exactly, and a
//!     clean replica placement scrubs clean.
//!   - [`serve`] — every ingest schedule publishes byte-identical tenant
//!     catalogs, mid-ingest snapshots replay exactly their pinned prefix,
//!     federated scans match the concat-and-stable-sort oracle, and the
//!     serial run's stream published through one tenant matches its
//!     memory sink byte for byte.
//!   - [`tier`] — the pinned skewed scan schedule classifies and places
//!     identically under every scan worker count and in reverse, every
//!     cold-segment loss rebuilds byte-exactly from XOR parity, and a
//!     tiered, damaged tenant federates like a healthy one. The tiering
//!     drill ([`tier::tier_drill`]) whose counters the metrics fixture
//!     pins lives here too.
//!   - [`cache`] — the §4.8 cache simulators' exact counts (Figure 8, a
//!     Figure 9 grid under LRU, FIFO and IPL, the combined experiment)
//!     are pinned by a fixture, and an index rebuilt by scanning the
//!     archive gives the same counts.
//!
//! The binary (`charisma-verify gates`) is the gate CI runs. It measures
//! no performance: the benchmark of record is the standalone `benchmark/`
//! package named by `BENCHMARK.json`. The static determinism rules
//! (`CH001`–`CH009`) are rustc and clippy lints configured in
//! `crates/clippy.toml` and each crate's `lib.rs`; `CH010` (metric names
//! in code vs the snapshot fixtures) is the `tests/metric_names.rs` test.

pub mod archive;
pub mod cache;
pub mod chaos;
pub mod determinism;
pub mod gates;
pub mod metrics;
pub mod serve;
pub mod tier;

/// Whether this build of the verifier carries the workspace's runtime
/// `invariant!` assertions. The CI gates job builds with
/// `--features invariants` so every check runs with each internal
/// consistency check live.
pub const INVARIANTS_ENABLED: bool = cfg!(feature = "invariants");

pub use determinism::{fnv1a_hash, DeterminismReport, Divergence};
pub use metrics::{diff_json, JsonDiff};
