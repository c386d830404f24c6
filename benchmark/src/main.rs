//! Command line of the benchmark of record.
//!
//! ```text
//! charisma-benchmark run    [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! charisma-benchmark spread [--runs N] [--workload NAME]... [--seed N] [--seconds S]
//! ```
//!
//! `run` with one workload runs it in this process and prints, last, one
//! JSON line: `correct`, `attempted`, `failed` and the metrics. With
//! several workloads (all five by default) each runs in a child process of
//! its own, so `peak_rss_mb` is per workload. `spread` runs each workload
//! `--runs` times in fresh processes, seeds `N, N+1, ...`, and prints each
//! end-to-end metric's median, quartiles and spreads against its bound.
//! `--seconds` and `--trace` take a value because the `BENCHMARK.json`
//! command is run as `run --workload W --seed N --seconds S --trace 0|1`.

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use charisma_benchmark::json::{self, Value};
use charisma_benchmark::stats::{median, quartiles, tail_rank};
use charisma_benchmark::{run, Config, Outcome, Workload, END_TO_END};

const USAGE: &str = "usage: charisma-benchmark run [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1]\n       \
                     charisma-benchmark spread [--runs N] [--workload NAME]... [--seed N] \
                     [--seconds S]";

struct Args {
    command: String,
    cfg: Config,
    workloads: Vec<Workload>,
    runs: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let command = argv.first().cloned().ok_or("missing command")?;
    let mut cfg = Config::default();
    let mut workloads = Vec::new();
    let mut runs = 5;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                workloads.push(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => cfg.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = v.parse().map_err(|_| bad())?,
            "--runs" => runs = v.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    Ok(Args {
        command,
        cfg,
        workloads,
        runs,
    })
}

fn main() -> ExitCode {
    charisma_benchmark::host::settle_process();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "run" if args.workloads.len() == 1 => run_here(args.workloads[0], &args.cfg),
        "run" => run_children(&args),
        "spread" => spread(&args),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("charisma-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload in this process; prints its metrics, then the JSON
/// result line. `Ok(correct)`.
fn run_here(w: Workload, cfg: &Config) -> Result<bool, String> {
    let outcome = run(w, cfg)?;
    let mut out = std::io::stdout().lock();
    print_outcome(&mut out, &outcome, cfg).map_err(|e| e.to_string())?;
    let line = outcome.result_json();
    std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(cfg.out_dir.join(format!("{}.json", w.name())), &line))
        .map_err(|e| format!("cannot write the result file: {e}"))?;
    writeln!(out, "{line}").map_err(|e| e.to_string())?;
    Ok(outcome.correct())
}

fn print_outcome(out: &mut impl Write, o: &Outcome, cfg: &Config) -> std::io::Result<()> {
    let w = o.workload.name();
    writeln!(
        out,
        "# {w}: seed {} scale {} workers {} threads available {} {}",
        cfg.seed,
        cfg.scale_for(o.workload),
        charisma_benchmark::WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg.trace { "traced" } else { "untraced" },
    )?;
    if let Some(table) = &o.layers {
        writeln!(out, "# layer self time in the traced phase")?;
        writeln!(
            out,
            "# {:<28} {:>8} {:>12} {:>12} {:>12}",
            "span", "count", "total_s", "self_s", "self_us/call"
        )?;
        for (name, row) in &table.0 {
            writeln!(
                out,
                "# {name:<28} {:>8} {:>12.6} {:>12.6} {:>12.1}",
                row.count,
                row.total_ns as f64 / 1e9,
                row.self_ns as f64 / 1e9,
                row.self_ns as f64 / 1e3 / row.count.max(1) as f64
            )?;
        }
    }
    if let Some(overhead) = o.overhead_s {
        writeln!(
            out,
            "# tracing overhead: traced minus untraced phase, {overhead:.6} s per unit of work"
        )?;
    }
    if !o.probes_ms.is_empty() {
        let reference = charisma_benchmark::host::REFERENCE_MS;
        writeln!(
            out,
            "# host probe: {} runs, median {:.3} ms, quartiles {:?} ms; {}",
            o.probes_ms.len(),
            median(&o.probes_ms),
            quartiles(&o.probes_ms).unwrap_or_default(),
            if o.phase_scaled {
                format!("times are scaled to {reference} ms")
            } else {
                format!("set-up times are scaled to {reference} ms, timed-phase times are raw")
            }
        )?;
    }
    let (per_tail, passes) = match o.pass_ops {
        0 => (o.ops, String::new()),
        p => (p, format!(" in each of {} passes (the median)", o.ops / p)),
    };
    if let Some(rank) = tail_rank(per_tail) {
        writeln!(
            out,
            "# {} operations timed; op_ms_tail is rank {rank} of {per_tail}, p{:.1}, {} beyond it{passes}",
            o.ops,
            100.0 * rank as f64 / per_tail as f64,
            per_tail - rank
        )?;
    }
    for m in &o.metrics {
        writeln!(out, "{w} {} {} {}", m.name, m.value, m.unit)?;
    }
    writeln!(
        out,
        "{w} failed_op_ratio {} ratio",
        o.tally.failed as f64 / o.tally.attempted.max(1) as f64
    )
}

/// Run `w` in a fresh process; relay its output and return its result line.
fn child(cfg: &Config, w: Workload, seed: u64, echo: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    if echo {
        for l in lines {
            println!("{l}");
        }
    }
    let result = json::parse(last).map_err(|e| {
        format!(
            "the {} run printed no result ({}; exit {})",
            w.name(),
            e,
            out.status
        )
    })?;
    Ok(result)
}

fn run_children(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        let r = child(&args.cfg, w, args.cfg.seed, true)?;
        all_correct &= r.get("correct") == Some(&Value::Bool(true));
        attempted += r.get("attempted").and_then(Value::num).unwrap_or(0.0);
        failed += r.get("failed").and_then(Value::num).unwrap_or(0.0);
        if let Some(Value::Obj(ms)) = r.get("metrics") {
            for (name, m) in ms {
                let value = m.get("value").and_then(Value::num).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::str).unwrap_or("");
                metrics.push(format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json::quote(&format!("{}.{name}", w.name())),
                    json::quote(unit)
                ));
            }
        }
    }
    let line = format!(
        "{{\"correct\": {all_correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    std::fs::create_dir_all(&args.cfg.out_dir)
        .and_then(|()| std::fs::write(args.cfg.out_dir.join("results.json"), &line))
        .map_err(|e| format!("cannot write the results file: {e}"))?;
    println!("{line}");
    Ok(all_correct)
}

fn spread(args: &Args) -> Result<bool, String> {
    if args.cfg.trace {
        return Err("spread measures end-to-end metrics; drop --trace".into());
    }
    if args.runs < 2 {
        return Err("spread needs --runs 2 or more".into());
    }
    let mut all_correct = true;
    let mut within = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>14} {:>9} {:>9} {:>6}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound"
    );
    for &w in &args.workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..args.runs {
            let r = child(&args.cfg, w, args.cfg.seed + i as u64, false)?;
            all_correct &= r.get("correct") == Some(&Value::Bool(true));
            for (def, vs) in END_TO_END.iter().zip(&mut values) {
                let v = r
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::num)
                    .ok_or(format!("{} run lacks {}", w.name(), def.name))?;
                vs.push(v);
            }
        }
        for (def, vs) in END_TO_END.iter().zip(&values) {
            let med = median(vs);
            let (q1, q3) = quartiles(vs).unwrap_or((med, med));
            let max = vs.iter().copied().fold(f64::MIN, f64::max);
            let min = vs.iter().copied().fold(f64::MAX, f64::min);
            let bound = def.bound.unwrap_or(0.0);
            let iqr = (q3 - q1) / med;
            // set-up time is judged by its median alone, not its spread.
            let ok = def.name == "setup_s" || iqr <= bound / 3.0;
            within &= ok;
            println!(
                "{:<16} {:<12} {med:>14.6} {q1:>14.6} {q3:>14.6} {iqr:>9.4} {:>9.4} {bound:>6.2}{}",
                w.name(),
                def.name,
                (max - min) / med,
                if ok {
                    ""
                } else {
                    "  over a third of the bound"
                }
            );
        }
        for (def, vs) in END_TO_END.iter().zip(&values) {
            let runs: Vec<String> = vs.iter().map(|v| format!("{v:.6}")).collect();
            println!("# {} {} runs: {}", w.name(), def.name, runs.join(" "));
        }
    }
    println!(
        "# {} runs per workload, seeds {}..{}; every run correct: {all_correct}",
        args.runs,
        args.cfg.seed,
        args.cfg.seed + args.runs as u64 - 1
    );
    Ok(all_correct && within)
}
