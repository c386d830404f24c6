//! `charisma-verify` — the workspace's correctness gate.
//!
//! ```text
//! charisma-verify gates [NAME ...] [--write]
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
//! Performance is not measured here: the benchmark of record is the
//! standalone `benchmark/` package named by `BENCHMARK.json`.
//!
//! The binary exits 0 on success, 1 on a violation or divergence and 2
//! on a usage or I/O error, so it slots directly into CI.

use std::process::ExitCode;
use std::time::Instant;

use charisma_verify::gates::{select, Runs, GATES, SCALE, SEED, WORKERS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: charisma-verify <command>

commands:
  gates  [NAME ...] [--write]
         run the named gates, or all of them, over one shared
         set of pipeline runs; --write regenerates the selected
         gates' fixtures. Gates: {}",
        gate_names()
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gates") => run_gates(&args[1..]),
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
