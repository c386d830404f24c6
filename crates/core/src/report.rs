//! Render the full characterization as text — the same tables and curve
//! summaries the paper presents, with the paper's numbers alongside for
//! comparison.

use std::fmt::Write as _;

use charisma_trace::OrderedEvent;

use crate::analyze::{Analyzer, Characterization, SessionClass};
use crate::census;
use crate::intervals;
use crate::jobs;
use crate::jobstats;
use crate::modes;
use crate::requests::RequestSizes;
use crate::sequential::{self, Metric};
use crate::sharing;

/// A fully computed characterization report.
pub struct Report {
    /// The accumulated per-job / per-session state.
    pub chars: Characterization,
    /// Figure 4's curves.
    pub request_sizes: RequestSizes,
}

impl Report {
    /// Analyze an ordered event slice: [`Self::from_stream`] over it.
    pub fn from_events(events: &[OrderedEvent]) -> Report {
        Report::from_stream(events.iter().copied())
    }

    /// Analyze a *streaming* ordered event source in a single pass.
    ///
    /// The sharded pipeline's k-way merge yields events as an iterator;
    /// this entry point consumes it without materializing a `Vec` first.
    /// Events must arrive in rectified stream order.
    pub fn from_stream<I>(events: I) -> Report
    where
        I: IntoIterator<Item = OrderedEvent>,
    {
        let mut analyzer = Analyzer::new();
        let mut sizes = RequestSizes::new();
        for e in events {
            analyzer.push(&e);
            sizes.push(&e);
        }
        sizes.seal();
        Report {
            chars: analyzer.finish(),
            request_sizes: sizes,
        }
    }

    /// Render every §4 figure and table as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_jobs(&mut out);
        self.render_census(&mut out);
        self.render_requests(&mut out);
        self.render_sequentiality(&mut out);
        self.render_regularity(&mut out);
        self.render_modes(&mut out);
        self.render_sharing(&mut out);
        self.render_jobstats(&mut out);
        out
    }

    /// Figure 1, Figure 2, Table 1.
    pub fn render_jobs(&self, out: &mut String) {
        let c = &self.chars;
        writeln!(out, "== Jobs (paper §4.1) ==").unwrap();
        writeln!(out, "Figure 1: % of time at each job-concurrency level").unwrap();
        for (k, f) in jobs::concurrency_profile(c).iter().enumerate() {
            writeln!(out, "  {k} jobs: {:5.1}%", 100.0 * f).unwrap();
        }
        writeln!(out, "  (paper: >25% idle; ~35% of time more than one job)").unwrap();
        writeln!(out, "Figure 2: % of jobs by compute-node count").unwrap();
        for (n, pct) in jobs::node_usage(c) {
            writeln!(out, "  {n:>3} nodes: {pct:5.1}%").unwrap();
        }
        let t1 = jobs::files_per_job(c);
        writeln!(out, "Table 1: files opened per traced job").unwrap();
        writeln!(out, "  files  jobs   (paper)").unwrap();
        for (label, got, paper) in [
            ("1 ", t1[0], 71),
            ("2 ", t1[1], 15),
            ("3 ", t1[2], 24),
            ("4 ", t1[3], 120),
            ("5+", t1[4], 240),
        ] {
            writeln!(out, "  {label:>4}  {got:>5}   ({paper})").unwrap();
        }
    }

    /// §4.2 census and Figure 3.
    pub fn render_census(&self, out: &mut String) {
        let cen = census::census(&self.chars);
        writeln!(out, "== Files (paper §4.2) ==").unwrap();
        writeln!(out, "  opens            {:>7}   (paper ~64,000)", cen.total).unwrap();
        writeln!(
            out,
            "  write-only       {:>7}   (paper 44,500)",
            cen.write_only
        )
        .unwrap();
        writeln!(
            out,
            "  read-only        {:>7}   (paper 14,500)",
            cen.read_only
        )
        .unwrap();
        writeln!(
            out,
            "  read-write       {:>7}   (paper <2,300)",
            cen.read_write
        )
        .unwrap();
        writeln!(
            out,
            "  unaccessed       {:>7}   (paper ~2,500)",
            cen.unaccessed
        )
        .unwrap();
        writeln!(
            out,
            "  temporary        {:>6.2}%   (paper 0.61%)",
            100.0 * cen.temporary_fraction()
        )
        .unwrap();
        writeln!(
            out,
            "  MB written/WO file {:>6.2}  (paper 1.2)",
            cen.avg_bytes_written_wo / 1e6
        )
        .unwrap();
        writeln!(
            out,
            "  MB read/RO file    {:>6.2}  (paper 3.3)",
            cen.avg_bytes_read_ro / 1e6
        )
        .unwrap();
        let cdf = census::size_cdf(&self.chars);
        writeln!(out, "Figure 3: CDF of file size at close").unwrap();
        for (x, f) in cdf.log_samples(100, 10_000_000, 1) {
            writeln!(out, "  ≤{x:>9} B: {:5.1}%", 100.0 * f).unwrap();
        }
    }

    /// Figure 4.
    pub fn render_requests(&self, out: &mut String) {
        let rs = &self.request_sizes;
        writeln!(out, "== I/O request sizes (paper §4.3, Figure 4) ==").unwrap();
        writeln!(
            out,
            "  reads <4000B:       {:5.1}% of reads   (paper 96.1%)",
            100.0 * rs.small_read_fraction()
        )
        .unwrap();
        writeln!(
            out,
            "  data via those:     {:5.1}% of bytes   (paper 2.0%)",
            100.0 * rs.small_read_data_fraction()
        )
        .unwrap();
        writeln!(
            out,
            "  writes <4000B:      {:5.1}% of writes  (paper 89.4%)",
            100.0 * rs.small_write_fraction()
        )
        .unwrap();
        writeln!(
            out,
            "  data via those:     {:5.1}% of bytes   (paper 3%)",
            100.0 * rs.small_write_data_fraction()
        )
        .unwrap();
        writeln!(out, "  read-size CDF (count / bytes):").unwrap();
        for (x, f) in rs.reads_by_count.log_samples(100, 2_000_000, 1) {
            let fb = rs.reads_by_bytes.fraction_le(x);
            writeln!(out, "  ≤{x:>9} B: {:5.1}% / {:5.1}%", 100.0 * f, 100.0 * fb).unwrap();
        }
    }

    /// Figures 5 and 6.
    pub fn render_sequentiality(&self, out: &mut String) {
        writeln!(out, "== Sequentiality (paper §4.4, Figures 5-6) ==").unwrap();
        let seq = sequential::cdfs(&self.chars, Metric::Sequential);
        let con = sequential::cdfs(&self.chars, Metric::Consecutive);
        writeln!(
            out,
            "  fully sequential:  RO {:5.1}%  WO {:5.1}%  RW {:5.1}%",
            100.0 * seq.fully(SessionClass::ReadOnly),
            100.0 * seq.fully(SessionClass::WriteOnly),
            100.0 * seq.fully(SessionClass::ReadWrite),
        )
        .unwrap();
        writeln!(out, "    (paper: RO and WO mostly 100%; RW mostly not)").unwrap();
        writeln!(
            out,
            "  fully consecutive: RO {:5.1}%  WO {:5.1}%  RW {:5.1}%",
            100.0 * con.fully(SessionClass::ReadOnly),
            100.0 * con.fully(SessionClass::WriteOnly),
            100.0 * con.fully(SessionClass::ReadWrite),
        )
        .unwrap();
        writeln!(out, "    (paper: 29% of RO, 86% of WO)").unwrap();
    }

    /// Tables 2 and 3.
    pub fn render_regularity(&self, out: &mut String) {
        let t2 = intervals::interval_table(&self.chars);
        let t3 = intervals::request_size_table(&self.chars);
        writeln!(out, "== Regularity (paper §4.5, Tables 2-3) ==").unwrap();
        writeln!(out, "Table 2: distinct interval sizes per file").unwrap();
        let p2 = t2.percents();
        for (i, paper) in [36.5, 58.2, 4.0, 0.2, 1.0].iter().enumerate() {
            let label = if i == 4 { "4+".into() } else { i.to_string() };
            writeln!(
                out,
                "  {label:>2}: {:>6} files {:5.1}%  (paper {paper}%)",
                t2.rows[i], p2[i]
            )
            .unwrap();
        }
        writeln!(
            out,
            "  1-interval files consecutive: {:5.1}% (paper >99%)",
            100.0 * intervals::one_interval_consecutive_fraction(&self.chars)
        )
        .unwrap();
        writeln!(out, "Table 3: distinct request sizes per file").unwrap();
        let p3 = t3.percents();
        for (i, paper) in [3.9, 40.0, 51.4, 3.9, 0.8].iter().enumerate() {
            let label = if i == 4 { "4+".into() } else { i.to_string() };
            writeln!(
                out,
                "  {label:>2}: {:>6} files {:5.1}%  (paper {paper}%)",
                t3.rows[i], p3[i]
            )
            .unwrap();
        }
    }

    /// §4.6.
    pub fn render_modes(&self, out: &mut String) {
        let u = modes::mode_usage(&self.chars);
        writeln!(out, "== I/O modes (paper §4.6) ==").unwrap();
        for (m, &k) in u.counts.iter().enumerate() {
            writeln!(out, "  mode {m}: {k} files").unwrap();
        }
        writeln!(
            out,
            "  mode 0 share: {:5.2}% (paper >99%)",
            100.0 * u.mode0_fraction()
        )
        .unwrap();
    }

    /// Per-job I/O concentration (companion-TR view).
    pub fn render_jobstats(&self, out: &mut String) {
        let stats = jobstats::job_io(&self.chars);
        writeln!(out, "== Per-job I/O (companion TR view) ==").unwrap();
        writeln!(
            out,
            "  traced jobs with I/O: {}   total data moved: {:.1} MB",
            stats.jobs.len(),
            stats.total_bytes() as f64 / 1e6
        )
        .unwrap();
        for k in [1usize, 5, 20] {
            writeln!(
                out,
                "  busiest {k:>2} job(s) carry {:5.1}% of all bytes",
                100.0 * stats.top_k_byte_share(k)
            )
            .unwrap();
        }
        writeln!(
            out,
            "  median per-job I/O intensity: {:.1} KB/s over the job lifetime",
            stats.median_intensity() / 1e3
        )
        .unwrap();
    }

    /// Figure 7.
    pub fn render_sharing(&self, out: &mut String) {
        let cdfs = sharing::sharing_cdfs(&self.chars);
        writeln!(out, "== Sharing (paper §4.7, Figure 7) ==").unwrap();
        let fully = |c: &crate::cdf::Cdf| {
            if c.total() == 0.0 {
                0.0
            } else {
                1.0 - c.fraction_le(99)
            }
        };
        let none = |c: &crate::cdf::Cdf| {
            if c.total() == 0.0 {
                0.0
            } else {
                c.fraction_le(0)
            }
        };
        writeln!(
            out,
            "  RO files 100% byte-shared:  {:5.1}% (paper 70%)",
            100.0 * fully(&cdfs.read_bytes)
        )
        .unwrap();
        writeln!(
            out,
            "  WO files 0% byte-shared:    {:5.1}% (paper 90%)",
            100.0 * none(&cdfs.write_bytes)
        )
        .unwrap();
        writeln!(
            out,
            "  RW files 100% byte-shared:  {:5.1}% (paper ~50%)",
            100.0 * fully(&cdfs.rw_bytes)
        )
        .unwrap();
        writeln!(
            out,
            "  RW files 100% block-shared: {:5.1}% (paper 93%)",
            100.0 * fully(&cdfs.rw_blocks)
        )
        .unwrap();
        writeln!(
            out,
            "  files concurrently shared between jobs: {} (paper 0)",
            sharing::concurrent_interjob_shares(&self.chars)
        )
        .unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_ipsc::SimTime;
    use charisma_trace::record::{AccessKind, EventBody};

    fn tiny_events() -> Vec<OrderedEvent> {
        let mut events = Vec::new();
        let t = |us: u64| SimTime::from_micros(us);
        events.push(OrderedEvent {
            time: t(0),
            node: u16::MAX,
            body: EventBody::JobStart {
                job: 1,
                nodes: 2,
                traced: true,
            },
        });
        events.push(OrderedEvent {
            time: t(1),
            node: 0,
            body: EventBody::Open {
                job: 1,
                file: 1,
                session: 1,
                mode: 0,
                access: AccessKind::Write,
                created: true,
            },
        });
        for k in 0..5u64 {
            events.push(OrderedEvent {
                time: t(2 + k),
                node: 0,
                body: EventBody::Write {
                    session: 1,
                    offset: k * 1000,
                    bytes: 1000,
                },
            });
        }
        events.push(OrderedEvent {
            time: t(10),
            node: 0,
            body: EventBody::Close {
                session: 1,
                size: 5000,
            },
        });
        events.push(OrderedEvent {
            time: t(20),
            node: u16::MAX,
            body: EventBody::JobEnd { job: 1 },
        });
        events
    }

    #[test]
    fn report_renders_all_sections() {
        let events = tiny_events();
        let r = Report::from_events(&events);
        let text = r.render();
        for needle in [
            "Figure 1",
            "Figure 2",
            "Table 1",
            "Figure 3",
            "Figure 4",
            "Figures 5-6",
            "Table 2",
            "Table 3",
            "I/O modes",
            "Figure 7",
        ] {
            assert!(text.contains(needle), "missing section {needle}");
        }
    }

    #[test]
    fn report_reflects_the_data() {
        let events = tiny_events();
        let r = Report::from_events(&events);
        let text = r.render();
        assert!(text.contains("write-only             1"), "{text}");
    }
}
