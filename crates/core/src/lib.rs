//! Workload characterization — the paper's analysis layer.
//!
//! One streaming pass over a rectified trace ([`analyze()`]) builds
//! per-job and per-session state; the sub-modules then derive every table
//! and figure of the paper's §4:
//!
//! * [`jobs`] — Figure 1 (machine concurrency), Figure 2 (nodes per job),
//!   Table 1 (files opened per job);
//! * [`census`] — §4.2's file census and Figure 3 (file sizes at close);
//! * [`requests`] — Figure 4 (request sizes, by count and by data moved);
//! * [`sequential`] — Figures 5-6 (sequential and consecutive access);
//! * [`intervals`] — Tables 2-3 (distinct interval and request sizes);
//! * [`modes`] — §4.6 (I/O-mode usage);
//! * [`sharing`] — Figure 7 (byte- and block-level sharing between nodes);
//! * [`report`] — renders the whole characterization as text.
//!
//! The unit of the per-file statistics is the *open session* (one parallel
//! open of a path by one job), which is the paper's operational unit: its
//! ~64,000 "files" are opens observed during the traced period.

pub mod analyze;
pub mod cdf;
pub mod census;
pub mod export;
pub mod intervals;
pub mod jobs;
pub mod jobstats;
pub mod modes;
pub mod plot;
pub mod report;
pub mod requests;
pub mod sequential;
pub mod sharing;

pub use analyze::{analyze, Analyzer, Characterization, JobInfo, SessionStat};
pub use cdf::Cdf;
