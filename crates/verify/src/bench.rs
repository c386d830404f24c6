//! The perf-trajectory record: one small JSON document per PR
//! (`BENCH_N.json`) capturing generate and scan throughput plus archive
//! density, emitted by `charisma-verify bench`.
//!
//! The command runs [`run_bench`] once as a discarded warm-up and then
//! [`RUNS`] more times at the gates' [`SEED`] and [`SCALE`] and with
//! [`WORKERS`] workers;
//! [`summarize`] reduces the repeats to one [`BenchSummary`]. Each
//! wall-clock rate is written under its key as the median of the
//! repeats, with `<key>_min` and `<key>_max` beside it, so a later
//! record can tell noise from a shift. The *deterministic* fields
//! (records, archive bytes, bytes per record, rows matched, columns
//! decoded per row) must agree across the repeats: runner speed cannot
//! move them, so a disagreement means the runs were not the pinned
//! workload. The rates are machine-relative and only meaningful as a
//! trajectory on comparable runners; the benchmark of record, timed
//! layer by layer, is the standalone `benchmark/` package.
//!
//! [`compare`] turns the trajectory into a CI gate: diff a fresh record
//! against the committed predecessor, fail on >25% regression in the
//! deterministic counters (which no runner noise can excuse), and warn —
//! only warn — on wall-clock deltas. A predecessor written before the
//! repeats carries one sample per rate under the same key, so it still
//! compares.

use std::time::Instant;

use charisma::ipsc::SimTime;
use charisma::obs::MetricsRegistry;
use charisma::serve::{Service, ServiceConfig, TenantFeed};
use charisma::store::{Archive, OpSet, Query, ReplicaConfig, ReplicaSet, StoreMetrics};
use charisma::tier::{TierPlan, TieredSet};
use charisma::Pipeline;

use crate::gates::{SCALE, SEED};

/// Tenants the federated-scan timing spreads the workload across.
const BENCH_TENANTS: usize = 4;

/// Timed repeats behind each record, after one discarded warm-up run.
/// Odd, so the median is one of the samples.
pub const RUNS: usize = 5;

/// Worker threads for generation shards and every scan.
pub const WORKERS: usize = 4;

/// The wall-clock rates of a record, in `BENCH_N.json` order. Each
/// counts work per wall-clock second, so larger is better.
pub const RATES: [&str; 8] = [
    // Pipeline records generated.
    "generate_records_per_sec",
    // Archive rows returned by an all-pass scan.
    "scan_rows_per_sec",
    // Rows returned by a federated all-pass scan over a 4-tenant
    // archive service holding the same workload.
    "federated_scan_rows_per_sec",
    // Archive rows processed (pruned, skipped or matched) by a
    // middle-third time window over request records: a two-predicate
    // query through the predicate-first decode path, directly
    // comparable to `scan_rows_per_sec`.
    "pruned_scan_rows_per_sec",
    // Archive rows covered by a full checksum-verification walk: the
    // integrity overhead a read pays per segment it touches.
    "checksum_verify_rows_per_sec",
    // Archive rows covered by a clean scrub pass over a default
    // three-replica set (each row checked once per replica).
    "scrub_rows_per_sec",
    // Segments classified by a full tiering policy run, replica-factor
    // changes and parity-group construction included.
    "tier_classify_segments_per_sec",
    // Archive rows rebuilt from XOR parity, every segment of an all-cold
    // tiered set once.
    "parity_rebuild_rows_per_sec",
];

/// One timed run of the pinned workload.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Seed the pipeline ran with.
    pub seed: u64,
    /// Workload scale factor.
    pub scale: f64,
    /// Worker threads for generation shards and scan.
    pub workers: usize,
    /// Trace records produced by the pipeline (deterministic).
    pub records: u64,
    /// Archive size in bytes (deterministic).
    pub archive_bytes: u64,
    /// Bytes per archived record (deterministic).
    pub bytes_per_record: f64,
    /// Rows the pruned scan matched (deterministic).
    pub pruned_rows_matched: u64,
    /// Column values decoded per row scanned during the pruned scan
    /// (deterministic; a full-decode engine scores 10.0).
    pub cols_decoded_per_row: f64,
    /// Wall-clock rates, in [`RATES`] order.
    pub rates: [f64; RATES.len()],
}

impl BenchRecord {
    /// The deterministic fields as `(key, value, decimals rendered)`.
    fn deterministic(&self) -> [(&'static str, f64, usize); 5] {
        [
            ("records", self.records as f64, 0),
            ("archive_bytes", self.archive_bytes as f64, 0),
            ("bytes_per_record", self.bytes_per_record, 2),
            ("pruned_rows_matched", self.pruned_rows_matched as f64, 0),
            ("cols_decoded_per_row", self.cols_decoded_per_row, 2),
        ]
    }
}

/// Repeated runs reduced to one record, rendered to `BENCH_N.json`.
#[derive(Clone, Debug)]
pub struct BenchSummary {
    /// Number of timed runs reduced.
    pub runs: usize,
    /// The runs' shared deterministic fields, with each rate the median
    /// of the runs.
    pub median: BenchRecord,
    /// Each rate's `(min, max)` over the runs, in [`RATES`] order.
    pub spread: [(f64, f64); RATES.len()],
}

/// Reduce timed runs to their medians and spreads. Errs, naming the
/// field, if the runs disagree on any deterministic field.
pub fn summarize(runs: &[BenchRecord]) -> Result<BenchSummary, String> {
    let first = runs.first().ok_or("no timed runs to summarize")?;
    for (i, run) in runs.iter().enumerate().skip(1) {
        for ((key, want, _), (_, got, _)) in
            first.deterministic().into_iter().zip(run.deterministic())
        {
            if got != want {
                return Err(format!(
                    "deterministic field {key} differs between repeats: {want} in run 1, {got} in run {}",
                    i + 1
                ));
            }
        }
    }
    let mut median = first.clone();
    let mut spread = [(0.0, 0.0); RATES.len()];
    for (i, (m, s)) in median.rates.iter_mut().zip(&mut spread).enumerate() {
        let mut samples: Vec<f64> = runs.iter().map(|r| r.rates[i]).collect();
        samples.sort_by(f64::total_cmp);
        *m = samples[samples.len() / 2];
        *s = (samples[0], samples[samples.len() - 1]);
    }
    Ok(BenchSummary {
        runs: runs.len(),
        median,
        spread,
    })
}

impl BenchSummary {
    /// Render as a small stable-keyed JSON document, one `"key": value`
    /// pair per line.
    pub fn to_json(&self, pr: u64) -> String {
        let r = &self.median;
        let mut lines = vec![
            format!("\"pr\": {pr}"),
            format!("\"seed\": {}", r.seed),
            format!("\"scale\": {}", r.scale),
            format!("\"workers\": {}", r.workers),
            format!("\"runs\": {}", self.runs),
        ];
        for (key, value, decimals) in r.deterministic() {
            lines.push(format!("\"{key}\": {value:.decimals$}"));
        }
        for ((key, median), (min, max)) in RATES.iter().zip(r.rates).zip(self.spread) {
            lines.push(format!("\"{key}\": {median:.0}"));
            lines.push(format!("\"{key}_min\": {min:.0}"));
            lines.push(format!("\"{key}_max\": {max:.0}"));
        }
        format!("{{\n  {}\n}}\n", lines.join(",\n  "))
    }
}

/// Run the pinned workload once as a discarded warm-up, then [`RUNS`]
/// timed times.
pub fn timed_runs() -> Result<Vec<BenchRecord>, String> {
    run_bench(SEED, SCALE, WORKERS)?;
    (0..RUNS).map(|_| run_bench(SEED, SCALE, WORKERS)).collect()
}

/// Outcome of diffing a fresh [`BenchRecord`] against a committed
/// predecessor: hard failures (deterministic counters) and soft warnings
/// (wall-clock throughputs).
#[derive(Clone, Debug, Default)]
pub struct BenchComparison {
    /// Deterministic-counter regressions beyond the 25% budget — CI fails.
    pub failures: Vec<String>,
    /// Wall-clock regressions beyond the 25% budget — reported, not fatal.
    pub warnings: Vec<String>,
    /// Fields the predecessor record does not carry (older schema) —
    /// reported so a silently shrinking comparison is visible.
    pub skipped: Vec<String>,
}

/// Relative budget before a delta counts as a regression.
const REGRESSION_BUDGET: f64 = 0.25;

/// Extract a numeric field from a `BENCH_N.json` document. The records
/// are emitted by [`BenchSummary::to_json`] with one `"key": value` pair
/// per line, so a line-wise scan is a complete parser for them. The
/// pattern includes both quotes, so `"scan_rows_per_sec"` matches neither
/// `"scan_rows_per_sec_min"` nor `"pruned_scan_rows_per_sec"`.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &doc[doc.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Diff `current` (a [`BenchSummary::median`]) against the JSON text of
/// a predecessor record.
///
/// Deterministic counters gate hard: `records` and `pruned_rows_matched`
/// must not shrink by more than the budget, `bytes_per_record` and
/// `cols_decoded_per_row` must not grow by more than it — runner speed
/// cannot move any of them, so a breach is a real regression. Wall-clock
/// throughputs only warn: they are machine-relative by design.
pub fn compare(current: &BenchRecord, prev_json: &str) -> BenchComparison {
    let mut cmp = BenchComparison::default();
    // (key, current value, true when larger-is-better)
    let deterministic = [
        ("records", current.records as f64, true),
        ("bytes_per_record", current.bytes_per_record, false),
        (
            "pruned_rows_matched",
            current.pruned_rows_matched as f64,
            true,
        ),
        ("cols_decoded_per_row", current.cols_decoded_per_row, false),
    ];
    for (key, now, larger_is_better) in deterministic {
        let Some(prev) = json_number(prev_json, key) else {
            cmp.skipped
                .push(format!("{key}: not in predecessor record"));
            continue;
        };
        let regressed = if larger_is_better {
            now < prev * (1.0 - REGRESSION_BUDGET)
        } else {
            now > prev * (1.0 + REGRESSION_BUDGET)
        };
        if regressed {
            cmp.failures.push(format!(
                "{key}: {now:.2} vs {prev:.2} (deterministic, budget 25%)"
            ));
        }
    }
    for (&key, now) in RATES.iter().zip(current.rates) {
        let Some(prev) = json_number(prev_json, key) else {
            cmp.skipped
                .push(format!("{key}: not in predecessor record"));
            continue;
        };
        if now < prev * (1.0 - REGRESSION_BUDGET) {
            cmp.warnings.push(format!(
                "{key}: {now:.0} vs {prev:.0} (wall-clock, advisory)"
            ));
        }
    }
    cmp
}

/// Run the pinned pipeline once with an in-memory archive sink and time
/// generation and a full-archive scan.
pub fn run_bench(seed: u64, scale: f64, workers: usize) -> Result<BenchRecord, String> {
    let gen_start = Instant::now();
    let out = Pipeline::new()
        .seed(seed)
        .scale(scale)
        .shards(workers)
        .sink(charisma::ArchiveSink::Memory)
        .run()
        .map_err(|e| format!("pipeline error: {e}"))?;
    let gen_secs = gen_start.elapsed().as_secs_f64().max(1e-9);

    let records = out.events.len() as u64;
    let bytes = out
        .archive
        .ok_or_else(|| "pipeline produced no archive".to_string())?;
    let archive_bytes = bytes.len() as u64;

    let archive = Archive::from_bytes(bytes).map_err(|e| format!("archive error: {e:?}"))?;
    let scan_start = Instant::now();
    let events = archive
        .query(Query::all())
        .workers(workers)
        .events()
        .map_err(|e| format!("scan error: {e:?}"))?;
    let scan_secs = scan_start.elapsed().as_secs_f64().max(1e-9);
    let rows = events.len() as u64;
    if rows != records {
        return Err(format!(
            "scan returned {rows} rows for {records} generated records"
        ));
    }

    // Federated scan: the same workload spread across BENCH_TENANTS
    // tenants of an archive service, one all-pass fan-out.
    let service = Service::new(ServiceConfig {
        seed,
        scale,
        tenants: BENCH_TENANTS,
        ..ServiceConfig::default()
    });
    let mut streams = vec![Vec::new(); BENCH_TENANTS];
    for (i, e) in out.events.iter().enumerate() {
        streams[i % BENCH_TENANTS].push(*e);
    }
    let feeds: Vec<TenantFeed> = streams
        .into_iter()
        .enumerate()
        .map(|(tenant, events)| TenantFeed {
            tenant,
            batches: events.chunks(4096).map(<[_]>::to_vec).collect(),
        })
        .collect();
    service
        .run_ingest(&feeds, workers, 0)
        .map_err(|e| format!("serve ingest error: {e}"))?;
    let fed_start = Instant::now();
    let fed = service
        .federated(Query::all())
        .workers(workers)
        .events()
        .map_err(|e| format!("federated scan error: {e}"))?;
    let fed_secs = fed_start.elapsed().as_secs_f64().max(1e-9);
    if fed.len() as u64 != records {
        return Err(format!(
            "federated scan returned {} rows for {records} generated records",
            fed.len()
        ));
    }

    // Pruned scan: the middle third of the trace *by row position*
    // restricted to request records — a two-predicate-column query
    // (time + op) that exercises zone-map pruning, predicate-first
    // decode, and late materialization together. Row-position bounds
    // (rather than a third of the wall-clock span) keep the matched set
    // non-degenerate at every scale: activity lulls cannot empty it.
    let third = |i: usize| out.events.get(i).map_or(SimTime::ZERO, |e| e.time);
    let n = out.events.len();
    let window = Query::all()
        .time_window(third(n / 3), third(2 * n / 3))
        .ops(OpSet::requests());
    let registry = MetricsRegistry::new();
    let store_metrics = StoreMetrics::register(&registry);
    let pruned_start = Instant::now();
    let matched = archive
        .query(window)
        .workers(workers)
        .attach_metrics(store_metrics.clone())
        .events()
        .map_err(|e| format!("pruned scan error: {e:?}"))?;
    let pruned_secs = pruned_start.elapsed().as_secs_f64().max(1e-9);
    let snap = registry.snapshot();
    let cols_decoded = snap
        .counters
        .get("store.cols_decoded")
        .copied()
        .unwrap_or(0);
    let rows_scanned = snap
        .counters
        .get("store.rows_scanned")
        .copied()
        .unwrap_or(0);

    // Integrity timings: a full checksum-verification walk over every
    // sealed segment, then a clean scrub pass over a default
    // three-replica placement — the read-side and background costs the
    // self-healing layer adds.
    let verify_start = Instant::now();
    archive
        .reader()
        .verify()
        .map_err(|e| format!("checksum verify error: {e:?}"))?;
    let verify_secs = verify_start.elapsed().as_secs_f64().max(1e-9);
    let mut set = ReplicaSet::place(archive.reader(), ReplicaConfig::default(), seed);
    let scrub_start = Instant::now();
    let scrub = set.scrub();
    let scrub_secs = scrub_start.elapsed().as_secs_f64().max(1e-9);
    if !scrub.healthy() || scrub.repaired != 0 {
        return Err(format!(
            "clean scrub pass reported damage: {} repaired, {:?} unrecoverable",
            scrub.repaired, scrub.unrecoverable
        ));
    }

    // Tiering timings: a full policy run from the pruned scan's ledger
    // (classification, replica-factor changes, parity construction),
    // then every segment of an all-cold tiered set rebuilt once from
    // XOR parity — the two costs the tier layer adds.
    let plan = TierPlan::default();
    let ledger = store_metrics.access.snapshot();
    let segments = archive.reader().segment_count() as u64;
    let classify_start = Instant::now();
    let _tiered = TieredSet::build(archive.reader(), &ledger, &plan);
    let classify_secs = classify_start.elapsed().as_secs_f64().max(1e-9);
    // An empty ledger demotes everything, so every segment sits in a
    // parity group and each rebuild reconstructs real rows.
    let all_cold = TieredSet::build(archive.reader(), &std::collections::BTreeMap::new(), &plan);
    let rebuild_start = Instant::now();
    for group in all_cold.parity_groups() {
        let set = all_cold.replica_set();
        for &member in group.members() {
            let survivors: Vec<(u64, &[u8])> = group
                .members()
                .iter()
                .filter(|&&m| m != member)
                .filter_map(|&m| set.segment_bytes(m as usize).map(|b| (m, b)))
                .collect();
            if group.reconstruct(member, &survivors).is_none() {
                return Err(format!("parity rebuild of segment {member} failed"));
            }
        }
    }
    let rebuild_secs = rebuild_start.elapsed().as_secs_f64().max(1e-9);

    Ok(BenchRecord {
        seed,
        scale,
        workers,
        records,
        archive_bytes,
        bytes_per_record: archive_bytes as f64 / (records.max(1)) as f64,
        pruned_rows_matched: matched.len() as u64,
        cols_decoded_per_row: cols_decoded as f64 / rows_scanned.max(1) as f64,
        rates: [
            records as f64 / gen_secs,
            rows as f64 / scan_secs,
            records as f64 / fed_secs,
            records as f64 / pruned_secs,
            records as f64 / verify_secs,
            records as f64 / scrub_secs,
            segments as f64 / classify_secs,
            records as f64 / rebuild_secs,
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_json(runs: &[BenchRecord]) -> String {
        summarize(runs).expect("runs agree").to_json(7)
    }

    /// A record as written before the repeats: one sample per rate, no
    /// `runs`, `_min` or `_max` keys.
    fn single_value_json(rec: &BenchRecord) -> String {
        summary_json(std::slice::from_ref(rec))
            .lines()
            .filter(|l| !l.contains("_min\"") && !l.contains("_max\"") && !l.contains("\"runs\""))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn bench_record_round_trips_the_pinned_workload() {
        let rec = run_bench(4994, 0.01, 2).expect("bench runs");
        assert!(rec.records > 0);
        assert!(rec.archive_bytes > 0);
        assert!(rec.bytes_per_record > 0.0);
        assert!(rec.pruned_rows_matched > 0);
        // The whole point of the predicate-first scan: the pruned query
        // touches far fewer than the schema's ten cells per row.
        assert!(
            rec.cols_decoded_per_row < 10.0,
            "pruned scan decoded {:.2} cols/row",
            rec.cols_decoded_per_row
        );
        assert!(rec.rates.iter().all(|&r| r > 0.0), "{:?}", rec.rates);
        let json = summary_json(&[rec]);
        assert!(json.contains("\"pr\": 7"));
        assert!(json.contains("\"runs\": 1"));
        assert!(json.contains("\"records\": "));
        assert!(json.contains("\"cols_decoded_per_row\": "));
        for key in RATES {
            for suffix in ["", "_min", "_max"] {
                assert!(
                    json.contains(&format!("\"{key}{suffix}\": ")),
                    "{key}{suffix}"
                );
            }
        }
    }

    fn sample_record() -> BenchRecord {
        BenchRecord {
            seed: 4994,
            scale: 0.05,
            workers: 2,
            records: 1000,
            archive_bytes: 15_000,
            bytes_per_record: 15.0,
            pruned_rows_matched: 300,
            cols_decoded_per_row: 3.5,
            rates: [1e6, 5e6, 4e6, 2e7, 8e7, 3e7, 1e5, 2e7],
        }
    }

    /// `sample_record` with every rate scaled by each factor in turn.
    fn scaled_runs(factors: &[f64]) -> Vec<BenchRecord> {
        factors
            .iter()
            .map(|&f| {
                let mut rec = sample_record();
                rec.rates.iter_mut().for_each(|r| *r *= f);
                rec
            })
            .collect()
    }

    #[test]
    fn summarize_takes_median_min_and_max_over_an_odd_count() {
        let summary = summarize(&scaled_runs(&[3.0, 1.0, 5.0, 2.0, 4.0])).expect("runs agree");
        let base = sample_record().rates;
        assert_eq!(summary.runs, 5);
        for (i, &rate) in base.iter().enumerate() {
            assert_eq!(summary.median.rates[i], 3.0 * rate, "{}", RATES[i]);
            assert_eq!(summary.spread[i], (rate, 5.0 * rate), "{}", RATES[i]);
        }
        let json = summary.to_json(7);
        assert!(
            json.contains("\"generate_records_per_sec\": 3000000,\n"),
            "{json}"
        );
        assert!(
            json.contains("\"generate_records_per_sec_min\": 1000000,\n"),
            "{json}"
        );
        assert!(
            json.contains("\"parity_rebuild_rows_per_sec_max\": 100000000\n}"),
            "{json}"
        );
    }

    #[test]
    fn summarize_names_the_deterministic_field_repeats_disagree_on() {
        for (key, _, _) in sample_record().deterministic() {
            let mut runs = scaled_runs(&[1.0, 2.0, 3.0]);
            let run = &mut runs[2];
            match key {
                "records" => run.records += 1,
                "archive_bytes" => run.archive_bytes -= 1,
                "bytes_per_record" => run.bytes_per_record += 0.01,
                "pruned_rows_matched" => run.pruned_rows_matched += 1,
                "cols_decoded_per_row" => run.cols_decoded_per_row *= 1.5,
                other => panic!("no edit for deterministic field {other}"),
            }
            let err = summarize(&runs).expect_err(key);
            assert!(err.contains(&format!("field {key} ")), "{key}: {err}");
            assert!(err.contains("run 3"), "{key}: {err}");
        }
    }

    #[test]
    fn compare_reads_medians_against_a_single_value_predecessor() {
        let summary = summarize(&scaled_runs(&[0.1, 0.5, 1.0, 2.0, 10.0])).expect("runs agree");
        // The median equals the predecessor's one sample; the minimum,
        // a tenth of it, would warn on every rate.
        let cmp = compare(&summary.median, &single_value_json(&sample_record()));
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert!(cmp.warnings.is_empty(), "{:?}", cmp.warnings);
        assert!(cmp.skipped.is_empty(), "{:?}", cmp.skipped);
        // A predecessor twice as fast warns on every median.
        let faster = &scaled_runs(&[2.0])[0];
        let cmp = compare(&summary.median, &single_value_json(faster));
        assert_eq!(cmp.warnings.len(), RATES.len(), "{:?}", cmp.warnings);
        assert!(cmp.skipped.is_empty(), "{:?}", cmp.skipped);
    }

    #[test]
    fn json_number_matches_the_whole_key() {
        let doc = "{\n  \"pruned_scan_rows_per_sec\": 1,\n  \"scan_rows_per_sec_min\": 2,\n  \
                   \"scan_rows_per_sec\": 3,\n  \"scan_rows_per_sec_max\": 4\n}\n";
        assert_eq!(json_number(doc, "scan_rows_per_sec"), Some(3.0));
        assert_eq!(json_number(doc, "scan_rows_per_sec_max"), Some(4.0));
        assert_eq!(json_number(doc, "scan_rows_per_sec_mean"), None);
    }

    #[test]
    fn compare_passes_against_an_equal_predecessor() {
        let rec = sample_record();
        let cmp = compare(&rec, &summary_json(std::slice::from_ref(&rec)));
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert!(cmp.warnings.is_empty(), "{:?}", cmp.warnings);
        assert!(cmp.skipped.is_empty(), "{:?}", cmp.skipped);
    }

    #[test]
    fn compare_fails_on_deterministic_regressions_only() {
        let mut rec = sample_record();
        let prev = summary_json(std::slice::from_ref(&rec));
        // 30% density regression: hard failure.
        rec.bytes_per_record *= 1.3;
        // Wall-clock collapse of the full scan: advisory only.
        rec.rates[1] /= 10.0;
        let cmp = compare(&rec, &prev);
        assert_eq!(cmp.failures.len(), 1, "{:?}", cmp.failures);
        assert!(cmp.failures[0].contains("bytes_per_record"));
        assert_eq!(cmp.warnings.len(), 1, "{:?}", cmp.warnings);
        assert!(cmp.warnings[0].starts_with("scan_rows_per_sec:"));
    }

    #[test]
    fn compare_tolerates_deltas_inside_the_budget() {
        let mut rec = sample_record();
        let prev = summary_json(std::slice::from_ref(&rec));
        rec.bytes_per_record *= 1.2; // within 25%
        rec.pruned_rows_matched = 290; // within 25%
        let cmp = compare(&rec, &prev);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
    }

    #[test]
    fn compare_skips_fields_an_older_record_lacks() {
        let rec = sample_record();
        // A PR-7-era record: no pruned-scan fields at all.
        let prev = "{\n  \"pr\": 7,\n  \"records\": 1000,\n  \"bytes_per_record\": 15.00,\n  \
                    \"scan_rows_per_sec\": 5000000\n}\n";
        let cmp = compare(&rec, prev);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        // Two deterministic and seven wall-clock fields are post-PR-7.
        assert_eq!(cmp.skipped.len(), 9, "{:?}", cmp.skipped);
    }
}
