//! `charisma-verify` — the workspace's correctness gate.
//!
//! ```text
//! charisma-verify lint [--root DIR] [--json]
//! charisma-verify gates [NAME ...] [--write]
//! charisma-verify bench [--seed N] [--scale F] [--workers N]
//!                       [--pr N] [--out PATH] [--compare PREV.json]
//! ```
//!
//! `gates` runs the named checks of the gate table
//! (`determinism metrics archive serve tier chaos`), or all of them, over
//! one shared set of pipeline runs at seed 4994, scale 0.05 and 1, 2, 4
//! and 8 workers; `--write` regenerates the fixtures of the selected
//! checks instead of diffing against them. See `charisma_verify::gates`.
//!
//! Every subcommand exits 0 on success, 1 on a violation or divergence
//! and 2 on a usage or I/O error, so the binary slots directly into CI.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use charisma_verify::gates::{select, Runs, GATES, SCALE, SEED, WORKERS};
use charisma_verify::{compare_bench, findings_to_json, lint_workspace, run_bench, LintConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: charisma-verify <command>\n\n\
         commands:\n\
           lint   [--root DIR] [--json]   run the CH001-CH010 static pass;\n\
                  --json emits findings as a JSON array for CI annotation\n\
           gates  [NAME ...] [--write]\n\
                  run the named gates, or all of them ({}), over one\n\
                  shared set of pipeline runs; --write regenerates the\n\
                  selected gates' fixtures\n\
           bench  [--seed N] [--scale F] [--workers N] [--pr N] [--out PATH]\n\
                  [--compare PREV.json]\n\
                  run the pinned pipeline once, time generation plus\n\
                  full-archive, pruned, checksum-verify, and scrub\n\
                  passes, and print (or write) a\n\
                  BENCH_N.json perf record; with --compare, diff it\n\
                  against a committed predecessor — deterministic\n\
                  regressions >25% fail, wall-clock deltas warn",
        gate_names()
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
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

/// Locate the workspace root: walk upward from the current directory to the
/// first directory holding a `Cargo.toml` with a `[workspace]` table.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run_lint(args: &[String]) -> ExitCode {
    let root = flag_value(args, "--root")
        .map(PathBuf::from)
        .unwrap_or_else(find_workspace_root);
    let json = args.iter().any(|a| a == "--json");
    let cfg = LintConfig::new(root);
    match lint_workspace(&cfg) {
        Ok(findings) if findings.is_empty() => {
            if json {
                print!("{}", findings_to_json(&findings));
            } else {
                println!("charisma-verify lint: clean");
            }
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            if json {
                print!("{}", findings_to_json(&findings));
            } else {
                for f in &findings {
                    println!("{f}");
                }
                println!("charisma-verify lint: {} violation(s)", findings.len());
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("charisma-verify lint: I/O error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_bench_cmd(args: &[String]) -> ExitCode {
    let (seed, scale, workers, pr) = match (
        parsed_flag(args, "--seed", 4994u64),
        parsed_flag(args, "--scale", 0.05f64),
        parsed_flag(args, "--workers", 4usize),
        parsed_flag(args, "--pr", 0u64),
    ) {
        (Ok(seed), Ok(scale), Ok(workers), Ok(pr)) => (seed, scale, workers, pr),
        (Err(e), _, _, _) | (_, Err(e), _, _) | (_, _, Err(e), _) | (_, _, _, Err(e)) => {
            eprintln!("charisma-verify bench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "charisma-verify bench: seed={seed} scale={scale} workers={workers}, \
         timing generate + scan..."
    );
    let record = match run_bench(seed, scale, workers) {
        Ok(record) => record,
        Err(e) => {
            eprintln!("charisma-verify bench: {e}");
            return ExitCode::from(2);
        }
    };
    let json = record.to_json(pr);
    match flag_value(args, "--out") {
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
    if let Some(prev_path) = flag_value(args, "--compare") {
        let prev = match std::fs::read_to_string(prev_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("charisma-verify bench: cannot read {prev_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let cmp = compare_bench(&record, &prev);
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

/// Parse an optional flag, distinguishing "absent" (use the default) from
/// "present but malformed" (a usage error, not a silent fallback).
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value for {flag}: {raw:?}")),
    }
}
