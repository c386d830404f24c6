//! `charisma-verify` — the workspace's correctness gate.
//!
//! ```text
//! charisma-verify gates [NAME ...] [--write]
//! charisma-verify bench [--pr N] [--out PATH] [--compare PREV.json]
//! ```
//!
//! `gates` runs the named checks of the gate table
//! (`determinism metrics archive serve tier cache chaos`), or all of them, over
//! one shared set of pipeline runs at seed 4994, scale 0.05 and 1, 2, 4
//! and 8 workers; `--write` regenerates the fixtures of the selected
//! checks instead of diffing against them. See `charisma_verify::gates`.
//!
//! The static determinism rules are not a subcommand: `CH001`–`CH009` are
//! clippy and rustc lints (`cargo clippy --all-targets --workspace -- -D
//! warnings`), and `CH010` is a `cargo test` test.
//!
//! Every subcommand exits 0 on success, 1 on a violation or divergence
//! and 2 on a usage or I/O error, so the binary slots directly into CI.

use std::process::ExitCode;
use std::time::Instant;

use charisma_verify::bench::{summarize, timed_runs, RUNS, WORKERS as BENCH_WORKERS};
use charisma_verify::compare_bench;
use charisma_verify::gates::{select, Runs, GATES, SCALE, SEED, WORKERS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: charisma-verify <command>

commands:
  gates  [NAME ...] [--write]
         run the named gates, or all of them, over one shared
         set of pipeline runs; --write regenerates the selected
         gates' fixtures. Gates: {}
  bench  [--pr N] [--out PATH] [--compare PREV.json]
         run the pinned pipeline once as a warm-up, then {RUNS}
         times, timing generation plus full-archive, federated,
         pruned, checksum-verify, scrub, tier-classify and
         parity-rebuild passes; print (or write) a BENCH_N.json
         perf record of each rate's median, min and max; exit 1
         if the repeats disagree on a deterministic field; with
         --compare, diff it against a committed predecessor —
         deterministic regressions >25% fail, wall-clock deltas
         warn",
        gate_names()
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gates") => run_gates(&args[1..]),
        Some("bench") => run_bench_cmd(&args[1..]),
        _ => usage(),
    }
}

fn gate_names() -> String {
    GATES.iter().map(|g| g.name).collect::<Vec<_>>().join(" ")
}

fn run_gates(args: &[String]) -> ExitCode {
    let write = args.iter().any(|a| a == "--write");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--write")
        .collect();
    let gates = match select(&names) {
        Ok(gates) => gates,
        Err(unknown) => {
            eprintln!(
                "charisma-verify gates: unknown gate {unknown:?}; valid gates: {}",
                gate_names()
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "charisma-verify gates: seed={SEED} scale={SCALE} workers={WORKERS:?}, invariants {}{}",
        if charisma_verify::INVARIANTS_ENABLED {
            "ENABLED"
        } else {
            "disabled (build with --features invariants for the full gate)"
        },
        if write { ", writing fixtures" } else { "" }
    );
    let mut runs = Runs::new(SEED, SCALE);
    let mut failed = 0;
    for gate in gates {
        let started = Instant::now();
        let complaints = gate.run(&mut runs, write);
        let secs = started.elapsed().as_secs_f64();
        if complaints.is_empty() {
            println!("gate {}: passed ({secs:.1} s)", gate.name);
        } else {
            for c in &complaints {
                println!("  {c}");
            }
            println!(
                "gate {}: FAILED, {} complaint(s) ({secs:.1} s)",
                gate.name,
                complaints.len()
            );
            failed += 1;
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        println!("charisma-verify gates: {failed} gate(s) failed");
        ExitCode::FAILURE
    }
}

fn run_bench_cmd(args: &[String]) -> ExitCode {
    for pair in args.chunks(2) {
        if !matches!(pair, [flag, _] if ["--pr", "--out", "--compare"].contains(&flag.as_str())) {
            eprintln!(
                "charisma-verify bench: takes only --pr N, --out PATH and \
                 --compare PREV.json, got {pair:?}"
            );
            return ExitCode::from(2);
        }
    }
    // Every argument is now a `--flag value` pair.
    let flag_value = |flag: &str| {
        args.chunks(2)
            .find(|pair| pair[0] == flag)
            .map(|pair| pair[1].as_str())
    };
    // An absent --pr defaults to 0; a malformed one is a usage error, not
    // a silent fallback.
    let pr = match flag_value("--pr").map(|raw| raw.parse::<u64>().map_err(|_| raw)) {
        None => 0,
        Some(Ok(pr)) => pr,
        Some(Err(raw)) => {
            eprintln!("charisma-verify bench: invalid value for --pr: {raw:?}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "charisma-verify bench: seed={SEED} scale={SCALE} workers={BENCH_WORKERS}, \
         one warm-up run then {RUNS} timed runs..."
    );
    let runs = match timed_runs() {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("charisma-verify bench: {e}");
            return ExitCode::from(2);
        }
    };
    let summary = match summarize(&runs) {
        Ok(summary) => summary,
        Err(e) => {
            println!("bench REPEATS DISAGREE: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = summary.to_json(pr);
    match flag_value("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("charisma-verify bench: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("bench record written: {path}");
        }
        None => print!("{json}"),
    }

    // The perf-trajectory gate: diff this record against a committed
    // predecessor. Deterministic regressions fail; wall-clock ones warn.
    if let Some(prev_path) = flag_value("--compare") {
        let prev = match std::fs::read_to_string(prev_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("charisma-verify bench: cannot read {prev_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let cmp = compare_bench(&summary.median, &prev);
        for s in &cmp.skipped {
            println!("bench compare: skipped {s}");
        }
        for w in &cmp.warnings {
            println!("bench compare WARNING: {w}");
        }
        if !cmp.failures.is_empty() {
            for f in &cmp.failures {
                println!("bench compare REGRESSION: {f}");
            }
            println!(
                "bench COMPARE FAILED against {prev_path}: {} deterministic regression(s)",
                cmp.failures.len()
            );
            return ExitCode::FAILURE;
        }
        println!("bench compare passed against {prev_path}");
    }
    ExitCode::SUCCESS
}
