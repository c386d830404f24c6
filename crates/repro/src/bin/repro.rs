//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale S] [--seed N] [--exp ID]...
//! ```
//!
//! `--scale 1.0` reproduces the full three-week population (minutes of
//! run time); the default 0.25 keeps the shapes with a faster run.
//! `--exp` selects sections: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//! table1 table2 table3 census modes combined strided (default: all).

use charisma_repro::{ablation, figures, run_pipeline};

fn main() {
    let mut scale = 0.25f64;
    let mut seed = 4994u64;
    let mut exps: Vec<String> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a number");
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--exp" => {
                exps.push(args.next().expect("--exp takes a section id"));
            }
            "--csv" => {
                csv_dir = Some(args.next().expect("--csv takes a directory"));
            }
            "--plots" => {
                exps.push("plots".into());
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale S] [--seed N] [--csv DIR] [--exp ID]...\n\
                     sections: fig1-fig9 table1-table3 census modes combined\n\
                     strided stackdist prefetch writeback"
                );
                return;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    let want = |id: &str| exps.is_empty() || exps.iter().any(|e| e == id);

    eprintln!("[repro] generating workload at scale {scale} (seed {seed})...");
    let start = std::time::Instant::now();
    let p = run_pipeline(scale, seed);
    eprintln!(
        "[repro] {} events, {} sessions, {} requests, {:.1} simulated hours, {:.1}s real",
        p.events.len(),
        p.stats.sessions,
        p.stats.requests,
        p.stats.end_time.as_secs_f64() / 3600.0,
        start.elapsed().as_secs_f64()
    );
    println!(
        "CHARISMA reproduction — scale {scale}, seed {seed} (counts scale with --scale; \
         percentages are comparable to the paper)\n"
    );

    let mut out = String::new();
    if want("fig1") || want("fig2") || want("table1") {
        p.report.render_jobs(&mut out);
    }
    if want("fig3") || want("census") {
        p.report.render_census(&mut out);
    }
    if want("fig4") {
        p.report.render_requests(&mut out);
    }
    if want("fig5") || want("fig6") {
        p.report.render_sequentiality(&mut out);
    }
    if want("table2") || want("table3") {
        p.report.render_regularity(&mut out);
    }
    if want("modes") {
        p.report.render_modes(&mut out);
    }
    if want("fig7") {
        p.report.render_sharing(&mut out);
    }
    println!("{out}");

    if want("fig8") {
        println!("{}", figures::render_figure8(&p));
    }
    if want("fig9") {
        // Buffer counts scale with the workload so the knee is visible at
        // any --scale; at scale 1.0 this is the paper's 0-25000 range.
        let buffers: Vec<usize> = [250, 500, 1000, 2000, 4000, 8000, 16000, 25000]
            .iter()
            .map(|&b| ((b as f64 * scale.min(1.0)).round() as usize).max(8))
            .collect();
        println!("{}", figures::render_figure9(&p, &[1, 5, 10, 20], &buffers));
    }
    if want("combined") {
        println!("{}", figures::render_combined(&p));
    }
    if want("strided") || want("collective") {
        let rows = ablation::strided_ablation(64, 512, 128);
        println!("{}", ablation::render(&rows));
        let cold = ablation::strided_ablation_cold(64, 512, 128);
        println!(
            "{}",
            ablation::render_titled(
                &cold,
                "== same ablation, cold I/O-node caches (disk scheduling visible) =="
            )
        );
    }
    if want("stackdist") {
        println!("{}", figures::render_stackdist(&p));
    }
    if want("prefetch") {
        println!("{}", figures::render_prefetch(&p));
    }
    if want("writeback") {
        println!("{}", figures::render_writeback(&p));
    }
    if exps.iter().any(|e| e == "plots") {
        println!("{}", figures::render_plots(&p));
    }

    if let Some(dir) = csv_dir {
        use charisma_core::export::{export_csv, summary_csv};
        std::fs::create_dir_all(&dir).expect("create csv dir");
        let mut files = export_csv(&p.report);
        files.push(summary_csv(&p.report));
        for f in &files {
            let path = format!("{dir}/{}.csv", f.name);
            std::fs::write(&path, &f.contents).expect("write csv");
        }
        eprintln!("[repro] wrote {} CSV files to {dir}/", files.len());
    }
}
