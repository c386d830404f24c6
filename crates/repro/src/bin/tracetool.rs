//! Trace-file utility: generate, inspect, validate, and analyze CHARISMA
//! trace files on disk — the generate-once / analyze-many workflow the
//! paper's group used on their 700 MB of traces.
//!
//! ```text
//! tracetool gen --scale 0.2 --seed 4994 -o nas.trace
//! tracetool info nas.trace
//! tracetool validate nas.trace
//! tracetool analyze nas.trace
//! tracetool csv nas.trace -o csv_out/
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use charisma_core::export::{export_csv, summary_csv};
use charisma_core::report::Report;
use charisma_trace::file::{read_trace, write_trace, TraceFileError, TraceStream};
use charisma_trace::postprocess;
use charisma_workload::{generate, GeneratorConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("usage: tracetool <gen|info|validate|analyze|csv> ...");
        return ExitCode::FAILURE;
    };
    match command.as_str() {
        "gen" => cmd_gen(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "validate" => cmd_validate(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "csv" => cmd_csv(&args[1..]),
        other => {
            eprintln!("unknown command {other}");
            ExitCode::FAILURE
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn positional(args: &[String]) -> Option<&String> {
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") || a == "-o" {
            skip = true;
            continue;
        }
        return Some(a);
    }
    None
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let scale: f64 = flag(args, "--scale")
        .map(|v| v.parse().expect("--scale takes a number"))
        .unwrap_or(0.1);
    let seed: u64 = flag(args, "--seed")
        .map(|v| v.parse().expect("--seed takes an integer"))
        .unwrap_or(4994);
    let out = flag(args, "-o").unwrap_or_else(|| "charisma.trace".into());
    eprintln!("generating scale {scale}, seed {seed}...");
    let w = generate(GeneratorConfig {
        scale,
        seed,
        ..Default::default()
    });
    let file = File::create(&out).expect("create output");
    write_trace(&w.trace, BufWriter::new(file)).expect("write trace");
    let bytes = std::fs::metadata(&out).expect("stat").len();
    println!(
        "{out}: {} blocks, {} records, {:.1} MB",
        w.trace.blocks.len(),
        w.trace.event_count(),
        bytes as f64 / 1e6
    );
    ExitCode::SUCCESS
}

fn cmd_info(args: &[String]) -> ExitCode {
    let Some(path) = positional(args) else {
        eprintln!("usage: tracetool info <file>");
        return ExitCode::FAILURE;
    };
    match info(path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => unreadable(path, &e),
    }
}

fn info(path: &str) -> Result<(), TraceFileError> {
    let mut stream = TraceStream::open(BufReader::new(File::open(path)?))?;
    println!("trace file      : {path}");
    println!("format version  : {}", stream.header.version);
    println!("compute nodes   : {}", stream.header.compute_nodes);
    println!("I/O nodes       : {}", stream.header.io_nodes);
    println!("block size      : {} bytes", stream.header.block_bytes);
    println!("generator seed  : {}", stream.header.seed);
    println!("blocks          : {}", stream.blocks_remaining());
    // Stream through for record counts without holding the trace.
    let mut records = 0u64;
    let mut first = None;
    let mut last = None;
    while let Some(block) = stream.next_block()? {
        records += block.events.len() as u64;
        if first.is_none() {
            first = Some(block.recv_service);
        }
        last = Some(block.recv_service);
    }
    println!("records         : {records}");
    if let (Some(a), Some(b)) = (first, last) {
        println!(
            "collection span : {:.2} h",
            (b.as_secs_f64() - a.as_secs_f64()) / 3600.0
        );
    }
    Ok(())
}

/// Report a trace file that cannot be read, and fail.
fn unreadable(path: &str, e: &TraceFileError) -> ExitCode {
    eprintln!("{path}: {e}");
    ExitCode::FAILURE
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let Some(path) = positional(args) else {
        eprintln!("usage: tracetool validate <file>");
        return ExitCode::FAILURE;
    };
    let opened = File::open(path).map_err(TraceFileError::from);
    let mut stream = match opened.and_then(|file| TraceStream::open(BufReader::new(file))) {
        Ok(s) => s,
        Err(e) => {
            println!("INVALID: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut blocks = 0u64;
    let mut records = 0u64;
    let mut non_monotone_blocks = 0u64;
    loop {
        match stream.next_block() {
            Ok(Some(block)) => {
                blocks += 1;
                records += block.events.len() as u64;
                // Within a block, a node's local timestamps must be
                // non-decreasing (they were generated in program order).
                if block
                    .events
                    .windows(2)
                    .any(|w| w[1].local_time < w[0].local_time)
                {
                    non_monotone_blocks += 1;
                }
            }
            Ok(None) => break,
            Err(e) => {
                println!("INVALID after {blocks} blocks: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if non_monotone_blocks > 0 {
        println!("SUSPECT: {non_monotone_blocks}/{blocks} blocks with non-monotone local clocks");
        return ExitCode::FAILURE;
    }
    println!("OK: {blocks} blocks, {records} records");
    ExitCode::SUCCESS
}

fn load_report(path: &str) -> Result<Report, TraceFileError> {
    let trace = read_trace(BufReader::new(File::open(path)?))?;
    let events = postprocess(&trace);
    Ok(Report::from_events(&events))
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let Some(path) = positional(args) else {
        eprintln!("usage: tracetool analyze <file>");
        return ExitCode::FAILURE;
    };
    let report = match load_report(path) {
        Ok(report) => report,
        Err(e) => return unreadable(path, &e),
    };
    // Tolerate a closed pipe (`tracetool analyze x | head`).
    use std::io::Write as _;
    let stdout = std::io::stdout();
    let _ = stdout.lock().write_all(report.render().as_bytes());
    ExitCode::SUCCESS
}

fn cmd_csv(args: &[String]) -> ExitCode {
    let Some(path) = positional(args) else {
        eprintln!("usage: tracetool csv <file> -o <dir>");
        return ExitCode::FAILURE;
    };
    let dir = flag(args, "-o").unwrap_or_else(|| "charisma_csv".into());
    let report = match load_report(path) {
        Ok(report) => report,
        Err(e) => return unreadable(path, &e),
    };
    std::fs::create_dir_all(&dir).expect("create dir");
    let mut files = export_csv(&report);
    files.push(summary_csv(&report));
    for f in &files {
        std::fs::write(format!("{dir}/{}.csv", f.name), &f.contents).expect("write csv");
    }
    println!("wrote {} CSV files to {dir}/", files.len());
    ExitCode::SUCCESS
}
