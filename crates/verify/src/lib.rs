//! `charisma-verify`: the correctness-tooling layer of the CHARISMA
//! reproduction.
//!
//! The whole value of this workspace is that `charisma-ipsc` + `charisma-cfs`
//! produce *deterministic, well-formed* traces standing in for the
//! proprietary NASA Ames data. This crate enforces that claim:
//!
//! - [`lint`] — a project-specific token-level static pass over the
//!   workspace sources (rules `CH001`–`CH010`) catching the constructs that
//!   historically break determinism: hash-ordered iteration, raw `f64` time
//!   comparison, panicking library paths, ambient entropy / wall clocks,
//!   truncating casts in the codec, `unsafe`, unsanctioned concurrency,
//!   placeholder panics and float equality, stale suppressions, and
//!   code/fixture metric-name drift. Built on the [`lex`] tokenizer and the
//!   [`consistency`] cross-artifact check; the walk is parallel with
//!   deterministic, sorted findings, and `lint --json` emits them
//!   machine-readably for CI annotation.
//! - [`gates`] — the gate table behind `charisma-verify gates [NAME ...]
//!   [--write]`: six named checks over one shared set of pipeline runs at
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
//!     drill ([`chaos::archive_fault_drill`]) under the archive-fault plan.
//!   - [`archive`] — the columnar archive's bytes are canonical (worker
//!     invariant and pinned by a hash fixture), it round-trips the merged
//!     stream exactly, and zone-map pruning never changes a result.
//!   - [`serve`] — every ingest schedule publishes byte-identical tenant
//!     catalogs, mid-ingest snapshots replay exactly their pinned prefix,
//!     federated scans match the concat-and-stable-sort oracle, and the
//!     pipeline's serve sink matches its memory sink byte for byte.
//!   - [`tier`] — the pinned skewed scan schedule classifies and places
//!     identically under every scan worker count and in reverse, every
//!     cold-segment loss rebuilds byte-exactly from XOR parity, and a
//!     tiered, damaged tenant federates like a healthy one. The tiering
//!     drill ([`tier::tier_drill`]) whose counters the metrics fixture
//!     pins lives here too.
//! - [`bench`] — the perf-trajectory record: one run of the pinned
//!   pipeline, wall-clock timed, rendered as the `BENCH_N.json` breadcrumb
//!   the bench-smoke CI job leaves per PR.
//!
//! The binary (`charisma-verify lint|gates|bench`) is the gate CI and all
//! future perf PRs run behind.

pub mod archive;
pub mod bench;
pub mod chaos;
pub mod consistency;
pub mod determinism;
pub mod gates;
pub mod lex;
pub mod lint;
pub mod metrics;
pub mod serve;
pub mod tier;

/// Whether this build of the verifier carries the workspace's runtime
/// `invariant!` assertions. The CI gates job builds with
/// `--features invariants` so every check runs with each internal
/// consistency check live.
pub const INVARIANTS_ENABLED: bool = cfg!(feature = "invariants");

pub use bench::{compare as compare_bench, run_bench, BenchComparison, BenchRecord};
pub use consistency::{check_metric_consistency, fixture_metric_names, MetricReg};
pub use determinism::{fnv1a_hash, DeterminismReport, Divergence};
pub use lint::{findings_to_json, lint_workspace, Finding, LintConfig, Rule};
pub use metrics::{diff_json, JsonDiff};
