//! Text rendering of the cache-simulation figures (the characterization
//! figures render through `charisma_core::report`).

use std::fmt::Write as _;

use charisma_cachesim::{IoCacheResult, Policy};

use crate::Pipeline;

/// Render Figure 8: compute-node cache per-job hit-rate CDF for 1/10/50
/// buffers.
pub fn render_figure8(p: &Pipeline) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== Figure 8: compute-node caching (per-job hit rates) =="
    )
    .unwrap();
    for buffers in [1usize, 10, 50] {
        let r = p.figure8(buffers);
        let rates = r.job_hit_rates();
        writeln!(
            out,
            "  {buffers:>2} buffer(s): {} jobs, overall hit rate {:4.1}%",
            rates.len(),
            100.0 * r.hit_rate()
        )
        .unwrap();
        // CDF at the paper's interesting thresholds.
        writeln!(
            out,
            "     jobs at 0%: {:4.1}%  (paper ~30%)   jobs >75%: {:4.1}%  (paper ~40%)",
            100.0 * r.fraction_of_jobs_at_zero(),
            100.0 * r.fraction_of_jobs_above(0.75)
        )
        .unwrap();
        let mut line = String::from("     hit-rate CDF:");
        for pct in [0u32, 25, 50, 75, 90, 100] {
            let frac = rates
                .iter()
                .filter(|&&x| x * 100.0 <= f64::from(pct) + 1e-9)
                .count() as f64
                / rates.len().max(1) as f64;
            write!(line, "  ≤{pct}%:{:4.0}%", 100.0 * frac).unwrap();
        }
        writeln!(out, "{line}").unwrap();
    }
    writeln!(
        out,
        "  (paper: three clumps; one buffer nearly as good as many)"
    )
    .unwrap();
    out
}

/// Render Figure 9: I/O-node cache hit rate vs total buffers.
pub fn render_figure9(p: &Pipeline, io_nodes: &[usize], buffers: &[usize]) -> String {
    let mut out = String::new();
    writeln!(out, "== Figure 9: I/O-node caching ==").unwrap();
    let results = p.figure9(io_nodes, buffers, &[Policy::Lru, Policy::Fifo]);
    for &policy in &[Policy::Lru, Policy::Fifo] {
        writeln!(
            out,
            "  {policy:?} hit rate (rows: I/O nodes; cols: total buffers)"
        )
        .unwrap();
        let mut header = String::from("    io\\buf");
        for &b in buffers {
            write!(header, " {b:>7}").unwrap();
        }
        writeln!(out, "{header}").unwrap();
        for &n in io_nodes {
            let mut line = format!("    {n:>6}");
            for &b in buffers {
                let r = find(&results, n, b, policy);
                write!(line, " {:>6.1}%", 100.0 * r.hit_rate()).unwrap();
            }
            writeln!(out, "{line}").unwrap();
        }
    }
    // The knee: buffers needed to reach 90% (paper: LRU ~4000, FIFO ~20000,
    // at the machine's 10 I/O nodes).
    for &policy in &[Policy::Lru, Policy::Fifo] {
        let knee = buffers
            .iter()
            .find(|&&b| find(&results, 10, b, policy).hit_rate() >= 0.90);
        writeln!(
            out,
            "  {policy:?}: 90% reached at {} total buffers (paper: {})",
            knee.map(|b| b.to_string())
                .unwrap_or_else(|| "not reached".into()),
            if policy == Policy::Lru {
                "~4000"
            } else {
                "~20000"
            }
        )
        .unwrap();
    }
    out
}

fn find(
    results: &[IoCacheResult],
    io_nodes: usize,
    buffers: usize,
    policy: Policy,
) -> IoCacheResult {
    *results
        .iter()
        .find(|r| r.io_nodes == io_nodes && r.total_buffers == buffers && r.policy == policy)
        .expect("config present in sweep")
}

/// Render the §4.8 combined experiment.
pub fn render_combined(p: &Pipeline) -> String {
    let r = p.combined();
    let mut out = String::new();
    writeln!(
        out,
        "== Combined compute + I/O-node caching (paper §4.8) =="
    )
    .unwrap();
    writeln!(
        out,
        "  I/O-node hit rate, no compute cache:   {:5.1}%",
        100.0 * r.io_only_hit_rate
    )
    .unwrap();
    writeln!(
        out,
        "  I/O-node hit rate, 1-buffer filtering: {:5.1}%",
        100.0 * r.combined_io_hit_rate
    )
    .unwrap();
    writeln!(
        out,
        "  reduction: {:4.1} points (paper: ~3)",
        100.0 * r.io_hit_rate_reduction()
    )
    .unwrap();
    writeln!(
        out,
        "  compute-node hit rate meanwhile: {:5.1}%",
        100.0 * r.compute_hit_rate
    )
    .unwrap();
    out
}

/// Render LRU block residency from Mattson stack distances: the whole
/// curve at 10 I/O nodes from one pass, plus the capacity needed for a
/// target residency. A block counts only if it was resident; Figure 9
/// also credits full-block writes to absent blocks (write-behind), so
/// these rates are not Figure 9's and sit well below it.
pub fn render_stackdist(p: &Pipeline) -> String {
    use charisma_cachesim::lru_profile;
    let mut out = String::new();
    writeln!(
        out,
        "== LRU block residency via stack distances (one pass, 10 I/O nodes) =="
    )
    .unwrap();
    writeln!(
        out,
        "  no write-behind credit: a residency curve, not a Figure 9 hit rate"
    )
    .unwrap();
    let profile = lru_profile(&p.events, &p.index, 10, 100_000);
    writeln!(
        out,
        "  {} block accesses, {} compulsory misses (ceiling {:.1}%)",
        profile.total,
        profile.cold,
        100.0 * profile.ceiling()
    )
    .unwrap();
    writeln!(out, "  buffers/io-node  block residency").unwrap();
    for per_node in [5usize, 25, 50, 100, 200, 400, 800, 1600, 2500] {
        writeln!(
            out,
            "  {:>15}  {:>6.1}%",
            per_node,
            100.0 * profile.hit_rate_at(per_node)
        )
        .unwrap();
    }
    for target in [0.80, 0.85] {
        match profile.capacity_for(target) {
            Some(c) => writeln!(
                out,
                "  {:.0}% block residency needs {} buffers/io-node ({} total)",
                100.0 * target,
                c,
                c * 10
            )
            .unwrap(),
            None => writeln!(
                out,
                "  {:.0}% block residency is above the compulsory-miss ceiling",
                100.0 * target
            )
            .unwrap(),
        }
    }
    out
}

/// Render the prefetching extension (§2.3's companion claim).
pub fn render_prefetch(p: &Pipeline) -> String {
    use charisma_cachesim::{prefetch_sim, Prefetcher};
    let mut out = String::new();
    writeln!(
        out,
        "== Extension: I/O-node prefetching (paper §2.3 context) =="
    )
    .unwrap();
    writeln!(
        out,
        "  {:<22} {:>9} {:>14} {:>12}",
        "prefetcher", "hit rate", "prefetch hits", "waste rate"
    )
    .unwrap();
    for (name, pf) in [
        ("none", Prefetcher::None),
        ("one-block lookahead", Prefetcher::OneBlockLookahead),
        ("stride-detecting", Prefetcher::Strided),
    ] {
        let r = prefetch_sim(&p.events, &p.index, 10, 50, pf);
        writeln!(
            out,
            "  {:<22} {:>8.1}% {:>14} {:>11.1}%",
            name,
            100.0 * r.hit_rate(),
            r.prefetch_hits,
            100.0 * r.waste_rate()
        )
        .unwrap();
    }
    writeln!(
        out,
        "  (Miller & Katz found prefetching helps where caching alone fails;\n   \
         the workload's sequential runs make lookahead cheap and effective)"
    )
    .unwrap();
    out
}

/// Render the write-absorption extension (§4.8's "combine several small
/// requests" mechanism, quantified).
pub fn render_writeback(p: &Pipeline) -> String {
    use charisma_cachesim::{writeback_sim, FlushPolicy};
    let mut out = String::new();
    writeln!(
        out,
        "== Extension: write-behind absorption (paper §4.8 mechanism) =="
    )
    .unwrap();
    writeln!(
        out,
        "  {:<24} {:>12} {:>12} {:>11} {:>10}",
        "policy", "block writes", "disk writes", "absorption", "peak dirty"
    )
    .unwrap();
    for (name, policy) in [
        ("write-through", FlushPolicy::WriteThrough),
        ("write-behind", FlushPolicy::WriteBehind),
        (
            "watermark 400/100",
            FlushPolicy::Watermark {
                high: 400,
                low: 100,
            },
        ),
    ] {
        let r = writeback_sim(&p.events, &p.index, 5000, policy);
        writeln!(
            out,
            "  {:<24} {:>12} {:>12} {:>10.2}x {:>10}",
            name,
            r.block_writes,
            r.disk_writes,
            r.absorption(),
            r.peak_dirty
        )
        .unwrap();
    }
    // The paper's concern is specifically the *small* requests (89.4 % of
    // writes, 3 % of bytes): measure their absorption in isolation.
    let small: Vec<charisma_trace::OrderedEvent> = p
        .events
        .iter()
        .filter(|e| match e.body {
            charisma_trace::record::EventBody::Write { bytes, .. } => bytes < 4000,
            _ => false,
        })
        .copied()
        .collect();
    let wt = writeback_sim(&small, &p.index, 5000, FlushPolicy::WriteThrough);
    let wb = writeback_sim(&small, &p.index, 5000, FlushPolicy::WriteBehind);
    writeln!(
        out,
        "  sub-4000-byte writes alone: {} requests -> {} disk writes under\n  \
         write-through vs {} under write-behind ({:.1}x absorption)",
        wt.write_requests,
        wt.disk_writes,
        wb.disk_writes,
        wb.absorption()
    )
    .unwrap();
    writeln!(
        out,
        "  (every disk write saved is a positioning delay avoided — the\n   \
         reason the paper wants buffers between small requests and RAIDs)"
    )
    .unwrap();
    out
}

/// Render the paper's figures as terminal plots (`repro --plots`).
pub fn render_plots(p: &Pipeline) -> String {
    use charisma_core::plot::{bar_chart, cdf_plot_log, cdf_plot_percent, line_plot_log};
    use charisma_core::sequential::Metric;
    use charisma_core::{census, jobs, sequential, sharing};

    let chars = &p.report.chars;
    let mut out = String::new();

    // Figure 1.
    let profile = jobs::concurrency_profile(chars);
    let rows: Vec<(String, f64)> = profile
        .iter()
        .enumerate()
        .map(|(k, f)| (format!("{k} jobs"), 100.0 * f))
        .collect();
    out.push_str(&bar_chart(
        "Figure 1: % of traced time at each concurrency level",
        &rows,
        "%",
    ));
    out.push('\n');

    // Figure 2.
    let rows: Vec<(String, f64)> = jobs::node_usage(chars)
        .into_iter()
        .map(|(n, pct)| (format!("{n} nodes"), pct))
        .collect();
    out.push_str(&bar_chart("Figure 2: % of jobs by node count", &rows, "%"));
    out.push('\n');

    // Figure 3.
    let sizes = census::size_cdf(chars);
    out.push_str(&cdf_plot_log(
        "Figure 3: CDF of file size at close",
        &[("files", &sizes)],
        10,
        10_000_000,
    ));
    out.push('\n');

    // Figure 4.
    out.push_str(&cdf_plot_log(
        "Figure 4: read request sizes (fraction of reads vs of data)",
        &[
            ("reads", &p.report.request_sizes.reads_by_count),
            ("data", &p.report.request_sizes.reads_by_bytes),
        ],
        10,
        2_000_000,
    ));
    out.push('\n');

    // Figures 5-6.
    for (title, metric) in [
        (
            "Figure 5: % of accesses sequential, per file",
            Metric::Sequential,
        ),
        (
            "Figure 6: % of accesses consecutive, per file",
            Metric::Consecutive,
        ),
    ] {
        let cdfs = sequential::cdfs(chars, metric);
        out.push_str(&cdf_plot_percent(
            title,
            &[
                ("read-only", &cdfs.read_only),
                ("write-only", &cdfs.write_only),
                ("read-write", &cdfs.read_write),
            ],
        ));
        out.push('\n');
    }

    // Figure 7.
    let sh = sharing::sharing_cdfs(chars);
    out.push_str(&cdf_plot_percent(
        "Figure 7: % of file shared between nodes (byte vs block)",
        &[
            ("RO bytes", &sh.read_bytes),
            ("RO blocks", &sh.read_blocks),
            ("WO bytes", &sh.write_bytes),
        ],
    ));
    out.push('\n');

    // Figure 8: per-job hit-rate CDF.
    let mut f8 = charisma_core::cdf::Cdf::new();
    for rate in p.figure8(1).job_hit_rates() {
        f8.add((rate * 100.0).round() as u64);
    }
    f8.seal();
    out.push_str(&cdf_plot_percent(
        "Figure 8: per-job compute-node hit rate (1 buffer)",
        &[("jobs", &f8)],
    ));
    out.push('\n');

    // Figure 9: hit rate vs buffers, LRU vs FIFO.
    let buffers: Vec<usize> = [250usize, 500, 1000, 2000, 4000, 8000, 16000, 25000]
        .iter()
        .map(|&b| ((b as f64 * p.scale.min(1.0)).round() as usize).max(8))
        .collect();
    let results = p.figure9(&[10], &buffers, &[Policy::Lru, Policy::Fifo]);
    let series: Vec<(&str, Vec<(u64, f64)>)> = [Policy::Lru, Policy::Fifo]
        .iter()
        .map(|&policy| {
            let pts: Vec<(u64, f64)> = buffers
                .iter()
                .map(|&b| (b as u64, find(&results, 10, b, policy).hit_rate()))
                .collect();
            (if policy == Policy::Lru { "LRU" } else { "FIFO" }, pts)
        })
        .collect();
    let series_refs: Vec<(&str, &[(u64, f64)])> = series
        .iter()
        .map(|(name, pts)| (*name, pts.as_slice()))
        .collect();
    out.push_str(&line_plot_log(
        "Figure 9: I/O-node hit rate vs total buffers (10 I/O nodes)",
        &series_refs,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_pipeline;

    #[test]
    fn figures_render() {
        let p = run_pipeline(0.02, 4994);
        let f8 = render_figure8(&p);
        assert!(f8.contains("Figure 8"));
        let f9 = render_figure9(&p, &[1, 10], &[100, 1000]);
        assert!(f9.contains("Lru"));
        assert!(f9.contains("Fifo"));
        let c = render_combined(&p);
        assert!(c.contains("reduction"));
    }
}
