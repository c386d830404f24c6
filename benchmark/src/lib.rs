//! The benchmark of record for the CHARISMA reproduction.
//!
//! Five workloads drive the system only through its public API, each
//! from a seeded input, each checked for correct output. An untraced run
//! reports the end-to-end metrics ([`END_TO_END`]), every time scaled by
//! the host-speed probe ([`host`]); a separate traced run records spans
//! around every call the benchmark makes into a layer and reports the
//! per-layer metrics ([`PER_LAYER`]). `BENCHMARK.json` at the
//! repository root mirrors both tables; a test keeps them in step. See
//! `README.md` for what each workload and metric is for.

pub mod host;
pub mod json;
pub mod stats;
pub mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use host::Host;
use trace::{LayerTable, Span, SpanRecord, Tracer};

/// Internal parallelism of every workload: generation shards, scan and
/// federation workers. Load comes from one client thread, and the
/// process runs on one CPU ([`host::settle_process`]), the one whose
/// speed the probe measures; more workers would only take turns on it.
pub const WORKERS: usize = 1;

/// Seed of the generated trace every workload starts from — the stand-in
/// for the paper's single production trace. It is fixed so that the work
/// measured does not change size from seed to seed; `--seed` draws what
/// the benchmark asks of that trace (queries, damage, claim order).
/// `characterize` asks nothing of the trace but to build it, so `--seed`
/// changes nothing there.
pub const TRACE_SEED: u64 = 4994;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 4994;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Operations every timed phase completes at least, so that `op_ms_tail`
/// has ten samples beyond it.
pub(crate) const MIN_OPS: usize = stats::TAIL_BEYOND + 1;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Pipeline::run` end to end: generation, merge, analysis, encoding.
    Characterize,
    /// The paper's §4.8 cache experiments over a generated trace.
    CacheStudy,
    /// Full, report and selective scans of one archive.
    ArchiveQuery,
    /// Ingest beside federated reads on a four-tenant service.
    ArchiveService,
    /// Replica placement, damage, failover, scrub, tiering and parity.
    ArchiveHeal,
}

impl Workload {
    /// Every workload, in the order runs and reports list them.
    pub const ALL: [Workload; 5] = [
        Workload::Characterize,
        Workload::CacheStudy,
        Workload::ArchiveQuery,
        Workload::ArchiveService,
        Workload::ArchiveHeal,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Characterize => "characterize",
            Workload::CacheStudy => "cache_study",
            Workload::ArchiveQuery => "archive_query",
            Workload::ArchiveService => "archive_service",
            Workload::ArchiveHeal => "archive_heal",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Characterize => {
                "the paper's batch job: generation, merge, analysis and encoding dominate; no scan, cache or serve work"
            }
            Workload::CacheStudy => {
                "the heaviest CPU layer, the cache simulators, with store, serve and generation out of the timed phase"
            }
            Workload::ArchiveQuery => {
                "the store read path: checksum, decode, pruning and late materialization, plus analysis over archive input"
            }
            Workload::ArchiveService => {
                "the store write and seal path and serve snapshots and merges, with ingest and reads contending"
            }
            Workload::ArchiveHeal => {
                "the integrity paths: replica placement, failover reads, scrub repair, tiering and parity rebuilds"
            }
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trace scale. Where one operation is a whole job (a pipeline run, a
    /// cache simulation) the trace is smaller, so that one phase times
    /// enough operations for a tail and, in `cache_study`, several sets.
    pub fn scale(self) -> f64 {
        match self {
            Workload::Characterize => 0.0125,
            Workload::CacheStudy => 0.025,
            _ => 0.05,
        }
    }
}

/// Everything one run needs to know.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed for the benchmark's own draws.
    pub seed: u64,
    /// Length of the timed phase; a traced run splits it between an
    /// untraced and a traced half.
    pub seconds: f64,
    /// Trace scale for every workload, in place of [`Workload::scale`].
    pub scale: Option<f64>,
    /// Selective or federated queries per pass.
    pub queries: usize,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where span files and result files go.
    pub out_dir: PathBuf,
}

impl Config {
    /// The trace scale `w` runs at.
    pub fn scale_for(&self, w: Workload) -> f64 {
        self.scale.unwrap_or_else(|| w.scale())
    }
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: DEFAULT_SEED,
            seconds: 15.0,
            scale: None,
            queries: 1000,
            trace: false,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        }
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's fixed definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics have none).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every workload reports all of them, untraced.
/// `setup_s` has the largest bound `BENCHMARK.json` allows, 0.25. Every
/// other bound is three times the largest quartile spread (over the
/// median) measured for the metric in ten-run sets of the same code,
/// rounded up to 0.05 and capped at 0.25; `README.md` has the
/// measurements.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("op_ms_tail", "ms", Lower, 0.25),
];

/// Per-layer metrics, named `<crate>.<what>`: every traced run reports
/// all of them, 0 for a layer its workload does not reach.
pub const PER_LAYER: [MetricDef; 46] = [
    // Trace preparation: timed on `characterize`, set-up elsewhere.
    layer("workload.generate_records_per_s", "1/s", Higher),
    layer("trace.rectify_records_per_s", "1/s", Higher),
    layer("trace.merge_records_per_s", "1/s", Higher),
    layer("trace.merge_heap_ops_per_record", "ops/record", Lower),
    layer("core.analyze_records_per_s", "1/s", Higher),
    layer("store.encode_records_per_s", "1/s", Higher),
    layer("store.bytes_per_record", "B/record", Lower),
    layer("ipsc.events_dispatched", "count", Lower),
    layer("ipsc.messages_routed", "count", Lower),
    layer("cfs.requests", "count", Lower),
    layer("cfs.cache_hit_ratio", "ratio", Higher),
    layer("charisma.facade_gap_ratio", "ratio", Lower),
    // Cache simulation.
    layer("cachesim.index_records_per_s", "1/s", Higher),
    layer("cachesim.compute_requests_per_s", "1/s", Higher),
    layer("cachesim.ionode_block_refs_per_s", "1/s", Higher),
    layer("cachesim.combined_requests_per_s", "1/s", Higher),
    layer("cachesim.block_refs", "count", Lower),
    layer("cachesim.io_hit_ratio", "ratio", Higher),
    // Archive reads.
    layer("store.open_rows_per_s", "1/s", Higher),
    layer("store.checksum_rows_per_s", "1/s", Higher),
    layer("store.segment_decode_rows_per_s", "1/s", Higher),
    layer("store.full_scan_rows_per_s", "1/s", Higher),
    layer("store.report_scan_rows_per_s", "1/s", Higher),
    layer("core.analyze_report_rows_per_s", "1/s", Higher),
    layer("store.selective_queries_per_s", "1/s", Higher),
    layer("store.segments_pruned_ratio", "ratio", Higher),
    layer("store.cols_decoded_per_row", "cols/row", Lower),
    layer("store.rows_matched_ratio", "ratio", Higher),
    layer("store.rows_skipped_late", "count", Higher),
    // Archive service.
    layer("serve.submit_rows_per_s", "1/s", Higher),
    layer("serve.flush_per_s", "1/s", Higher),
    layer("serve.backpressure_stalls", "count", Lower),
    layer("serve.segments_sealed", "count", Lower),
    layer("serve.snapshots_per_s", "1/s", Higher),
    layer("serve.federated_scans_per_s", "1/s", Higher),
    layer("serve.federated_merge_ratio", "ratio", Lower),
    layer("serve.federated_pruned_ratio", "ratio", Higher),
    // Integrity and tiering.
    layer("store.place_bytes_per_s", "1/s", Higher),
    layer("store.place_bytes_copied", "bytes", Lower),
    layer("store.failover_rows_per_s", "1/s", Higher),
    layer("store.scrub_rows_per_s", "1/s", Higher),
    layer("store.scrub_repaired", "count", Higher),
    layer("tier.build_segments_per_s", "1/s", Higher),
    layer("tier.parity_groups", "count", Lower),
    layer("tier.rebuild_bytes_per_s", "1/s", Higher),
    // The tracing itself.
    layer("trace.coverage_ratio", "ratio", Higher),
];

/// Operations checked and operations that failed or gave a wrong result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Of those, the ones that failed or were wrong.
    pub failed: u64,
}

impl Tally {
    /// Count one checked operation; returns `ok`.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Add another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: Workload,
    /// Checked and failed operations.
    pub tally: Tally,
    /// Operations timed for `op_ms_p50` and `op_ms_tail` (0 in a traced
    /// run, which reports neither).
    pub ops: usize,
    /// Operations per pass for `op_ms_tail`, 0 for one tail over all.
    pub pass_ops: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Traced runs: the traced phase's spans grouped by name.
    pub layers: Option<LayerTable>,
    /// Traced runs: the traced phase minus the untraced one, per unit of
    /// work, in seconds.
    pub overhead_s: Option<f64>,
    /// Untraced runs: every host-speed probe time, ms.
    pub probes_ms: Vec<f64>,
    /// Untraced runs: whether the timed phase's times are scaled, not
    /// only the set-ups'.
    pub phase_scaled: bool,
}

impl Outcome {
    /// True when no checked operation failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    m.value,
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// What one timed phase measured.
#[derive(Clone, Debug, Default)]
pub(crate) struct Phase {
    /// Units of work completed: runs, sets, passes, queries or cycles.
    pub units: u64,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Work per second of each unit of work, in the workload's unit
    /// (records, block references, rows); `work_per_s` is their median.
    pub rates: Vec<f64>,
    /// Latency of each operation, ms.
    pub ops_ms: Vec<f64>,
    /// Operations in one pass where a workload runs many short ones:
    /// `op_ms_tail` is then the median of the passes' tails, so that a
    /// brief slow spell on the host moves one pass, not the result. 0
    /// takes one tail over every operation.
    pub pass_ops: usize,
    /// Workload-specific totals the per-layer metrics are built from.
    pub extra: BTreeMap<&'static str, f64>,
}

impl Phase {
    pub(crate) fn add(&mut self, key: &'static str, v: f64) {
        *self.extra.entry(key).or_default() += v;
    }

    pub(crate) fn get(&self, key: &str) -> f64 {
        self.extra.get(key).copied().unwrap_or(0.0)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One workload: how to set it up, run its timed phase, and read its
/// layers from a traced phase.
pub(crate) trait Bench: Sized {
    /// Whether the timed phase's times are scaled by the host-speed
    /// probe: only where, measured raw, they move with the probe from run
    /// to run.
    const SCALED: bool = true;

    /// One complete set-up, recorded under the `bench.setup` span `req`.
    fn setup(cfg: &Config, req: &Span<'_>) -> Result<Self, String>;

    /// Records in the generated trace.
    fn records(&self) -> u64;

    /// Run the timed phase for about `budget`, checking every result,
    /// probing `host` where each unit of work starts and scaling every
    /// time the unit records by that probe. With an enabled `tracer`
    /// the phase records spans, and may split a call into the layer calls
    /// it is made of.
    fn phase(
        &self,
        cfg: &Config,
        budget: Duration,
        tracer: &Tracer,
        host: &mut Host,
        tally: &mut Tally,
    ) -> Result<Phase, String>;

    /// This workload's per-layer metrics from a traced run: `untraced`
    /// and `traced` are the two halves, `table` every span by name.
    fn layers(
        &self,
        untraced: &Phase,
        traced: &Phase,
        table: &LayerTable,
    ) -> Vec<(&'static str, f64)>;
}

/// Run workload `w` once under `cfg`.
pub fn run(w: Workload, cfg: &Config) -> Result<Outcome, String> {
    if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", cfg.seconds));
    }
    if !(cfg.scale_for(w) > 0.0 && cfg.scale_for(w).is_finite()) {
        return Err("the trace scale must be positive".into());
    }
    if cfg.queries < MIN_OPS {
        return Err(format!("a pass needs at least {MIN_OPS} queries"));
    }
    match w {
        Workload::Characterize => drive::<workloads::characterize::Characterize>(w, cfg),
        Workload::CacheStudy => drive::<workloads::cache_study::CacheStudy>(w, cfg),
        Workload::ArchiveQuery => drive::<workloads::archive_query::ArchiveQuery>(w, cfg),
        Workload::ArchiveService => drive::<workloads::archive_service::ArchiveService>(w, cfg),
        Workload::ArchiveHeal => drive::<workloads::archive_heal::ArchiveHeal>(w, cfg),
    }
}

fn drive<B: Bench>(w: Workload, cfg: &Config) -> Result<Outcome, String> {
    let tracer = Tracer::new(cfg.trace);
    // Traced runs report raw times: their spans are not scaled. Set-ups
    // are always scaled: every one is mostly trace generation, which
    // follows the probe. A set-up lasts up to a second, over which the
    // host's speed moves, so it is scaled by probes on both sides.
    let mut host = Host::new(!cfg.trace);
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so the peak holds one, not two.
        drop(state.take());
        host.probe();
        let started = Instant::now();
        let req = tracer.request("bench.setup");
        let ready = B::setup(cfg, &req)?;
        drop(req);
        setup_s.push(host.scale_through(started.elapsed().as_secs_f64()));
        state = Some(ready);
    }
    let state = state.ok_or("no set-up ran")?;
    let budget = Duration::from_secs_f64(cfg.seconds);

    if !tracer.enabled() {
        let mut raw = Host::new(false);
        let phase_host = if B::SCALED { &mut host } else { &mut raw };
        let phase = state.phase(cfg, budget, &tracer, phase_host, &mut tally)?;
        let values = [
            stats::median(&setup_s),
            stats::peak_rss_mb()?,
            stats::median(&phase.rates),
            stats::median(&phase.ops_ms),
            stats::pass_tail(&phase.ops_ms, phase.pass_ops),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(def, value)| Metric {
                name: def.name,
                value,
                unit: def.unit,
            })
            .collect();
        let mut outcome = finish(w, tally, phase.ops_ms.len(), metrics, None, None)?;
        outcome.pass_ops = phase.pass_ops;
        outcome.phase_scaled = B::SCALED;
        outcome.probes_ms = host.probes_ms().to_vec();
        return Ok(outcome);
    }

    let untraced = state.phase(cfg, budget / 2, &Tracer::new(false), &mut host, &mut tally)?;
    let phase_start = tracer.now_ns();
    let traced = state.phase(cfg, budget / 2, &tracer, &mut host, &mut tally)?;
    let spans = tracer.spans();
    let in_phase: Vec<SpanRecord> = spans
        .iter()
        .filter(|s| s.start_ns >= phase_start)
        .copied()
        .collect();
    let phase_table = LayerTable::new(&in_phase);
    let table = LayerTable::new(&spans);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let records = state.records() as f64;
    let per_call = |name: &str| records * table.row(name).count as f64;
    for (name, span) in [
        ("workload.generate_records_per_s", "workload.generate"),
        ("trace.rectify_records_per_s", "trace.rectify"),
        ("trace.merge_records_per_s", "trace.merge"),
        ("store.encode_records_per_s", "store.encode"),
    ] {
        values.insert(name, table.rate(span, per_call(span)));
    }
    values.insert(
        "trace.coverage_ratio",
        ratio(phase_table.layer_self_s(), traced.wall_s),
    );
    for (name, value) in state.layers(&untraced, &traced, &table) {
        if values.insert(name, value).is_some() {
            return Err(format!("{name} reported twice"));
        }
    }
    if let Some(unknown) = values
        .keys()
        .find(|k| !PER_LAYER.iter().any(|d| d.name == **k))
    {
        return Err(format!("{unknown} is not a per-layer metric"));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|def| Metric {
            name: def.name,
            value: values.get(def.name).copied().unwrap_or(0.0),
            unit: def.unit,
        })
        .collect();
    let per_unit = |p: &Phase| ratio(p.wall_s, p.units as f64);
    let overhead_s = per_unit(&traced) - per_unit(&untraced);
    trace::write_jsonl(
        &cfg.out_dir.join(format!("{}.trace.jsonl", w.name())),
        &spans,
    )
    .map_err(|e| format!("cannot write span file: {e}"))?;
    finish(w, tally, 0, metrics, Some(phase_table), Some(overhead_s))
}

fn finish(
    workload: Workload,
    tally: Tally,
    ops: usize,
    metrics: Vec<Metric>,
    layers: Option<LayerTable>,
    overhead_s: Option<f64>,
) -> Result<Outcome, String> {
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{} is not a finite number: {}",
            bad.name, bad.value
        ));
    }
    Ok(Outcome {
        workload,
        tally,
        ops,
        pass_ops: 0,
        metrics,
        layers,
        overhead_s,
        probes_ms: Vec::new(),
        phase_scaled: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_result_is_counted_as_failed() {
        let mut tally = Tally::default();
        assert!(tally.check(true));
        assert!(!tally.check(false));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        let outcome = Outcome {
            workload: Workload::ArchiveQuery,
            tally,
            ops: 0,
            pass_ops: 0,
            metrics: Vec::new(),
            layers: None,
            overhead_s: None,
            probes_ms: Vec::new(),
            phase_scaled: false,
        };
        assert!(!outcome.correct());
        assert!(outcome
            .result_json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        let ok = |s: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| n.len() <= 64 && ok(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }
}
