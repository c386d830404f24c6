//! Per-job I/O statistics.
//!
//! The paper's companion technical report (PCS-TR94-211, reference \[21\] —
//! "More detail may be found in \[21\]") breaks the workload down by job:
//! how much I/O each job did, how concentrated the traffic was, and how
//! I/O-intensive jobs were relative to their lifetimes. This module
//! derives those views from the characterization, because they motivate
//! the paper's multiprogramming point: "a file system clearly must provide
//! high-performance access by many concurrent, presumably unrelated,
//! jobs".

use crate::analyze::{Characterization, IntMap};

/// Aggregated I/O facts for one job.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JobIo {
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Sessions the job opened.
    pub files: u32,
    /// Job lifetime, seconds.
    pub lifetime_s: f64,
    /// Compute nodes used.
    pub nodes: u16,
}

impl JobIo {
    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Total requests.
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Average I/O intensity over the job's lifetime, bytes/second.
    pub fn intensity(&self) -> f64 {
        self.bytes() as f64 / self.lifetime_s.max(1e-9)
    }
}

/// Per-job I/O table plus concentration summaries.
#[derive(Clone, Debug, Default)]
pub struct JobIoStats {
    /// Per-job aggregates (traced jobs with at least one session).
    pub jobs: IntMap<u32, JobIo>,
}

/// Build the per-job table from a characterization.
pub fn job_io(c: &Characterization) -> JobIoStats {
    let mut jobs: IntMap<u32, JobIo> = IntMap::default();
    for s in c.sessions.values() {
        let entry = jobs.entry(s.job).or_default();
        entry.reads += s.reads;
        entry.writes += s.writes;
        entry.bytes_read += s.bytes_read;
        entry.bytes_written += s.bytes_written;
        entry.files += 1;
    }
    for (id, io) in jobs.iter_mut() {
        if let Some(info) = c.jobs.get(id) {
            io.lifetime_s = (info.end - info.start).as_secs_f64();
            io.nodes = info.nodes;
        }
    }
    JobIoStats { jobs }
}

impl JobIoStats {
    /// Fraction of all moved bytes carried by the busiest `k` jobs
    /// (traffic concentration: a few jobs dominate I/O).
    pub fn top_k_byte_share(&self, k: usize) -> f64 {
        let mut volumes: Vec<u64> = self.jobs.values().map(|j| j.bytes()).collect();
        if volumes.is_empty() {
            return 0.0;
        }
        volumes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = volumes.iter().sum();
        let top: u64 = volumes.iter().take(k).sum();
        top as f64 / total.max(1) as f64
    }

    /// Total bytes moved by all jobs.
    pub fn total_bytes(&self) -> u64 {
        self.jobs.values().map(|j| j.bytes()).sum()
    }

    /// Jobs sorted by descending byte volume, as `(job, JobIo)`.
    pub fn by_volume(&self) -> Vec<(u32, JobIo)> {
        let mut v: Vec<(u32, JobIo)> = self.jobs.iter().map(|(&k, &j)| (k, j)).collect();
        v.sort_by(|a, b| b.1.bytes().cmp(&a.1.bytes()).then(a.0.cmp(&b.0)));
        v
    }

    /// Median per-job I/O intensity, bytes/second (0 if empty).
    pub fn median_intensity(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .jobs
            .values()
            .filter(|j| j.lifetime_s > 0.0)
            .map(|j| j.intensity())
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        rates.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        rates[rates.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use charisma_ipsc::SimTime;
    use charisma_trace::record::{AccessKind, EventBody};
    use charisma_trace::OrderedEvent;

    fn ev(t: u64, node: u16, body: EventBody) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::from_secs(t),
            node,
            body,
        }
    }

    fn job_events(job: u32, sid: u32, writes: u64, bytes_each: u32) -> Vec<OrderedEvent> {
        let base = u64::from(job) * 1000;
        let mut events = vec![
            ev(
                base,
                u16::MAX,
                EventBody::JobStart {
                    job,
                    nodes: 4,
                    traced: true,
                },
            ),
            ev(
                base + 1,
                0,
                EventBody::Open {
                    job,
                    file: sid,
                    session: sid,
                    mode: 0,
                    access: AccessKind::Write,
                    created: true,
                },
            ),
        ];
        for k in 0..writes {
            events.push(ev(
                base + 2 + k,
                0,
                EventBody::Write {
                    session: sid,
                    offset: k * u64::from(bytes_each),
                    bytes: bytes_each,
                },
            ));
        }
        events.push(ev(base + 100, u16::MAX, EventBody::JobEnd { job }));
        events
    }

    #[test]
    fn aggregates_per_job() {
        let mut events = job_events(1, 1, 10, 1000);
        events.extend(job_events(2, 2, 2, 500));
        let c = analyze(&events);
        let stats = job_io(&c);
        assert_eq!(stats.jobs.len(), 2);
        let j1 = &stats.jobs[&1];
        assert_eq!(j1.writes, 10);
        assert_eq!(j1.bytes_written, 10_000);
        assert_eq!(j1.files, 1);
        assert_eq!(j1.nodes, 4);
        assert!((j1.lifetime_s - 100.0).abs() < 1e-9);
        assert!(j1.intensity() > 0.0);
    }

    #[test]
    fn concentration_measures_dominance() {
        let mut events = job_events(1, 1, 100, 10_000); // 1 MB
        events.extend(job_events(2, 2, 1, 100)); // 100 B
        events.extend(job_events(3, 3, 1, 100));
        let c = analyze(&events);
        let stats = job_io(&c);
        assert!(stats.top_k_byte_share(1) > 0.99);
        assert!((stats.top_k_byte_share(10) - 1.0).abs() < 1e-12);
        let ranked = stats.by_volume();
        assert_eq!(ranked[0].0, 1, "job 1 dominates");
    }

    #[test]
    fn empty_characterization_is_benign() {
        let stats = job_io(&analyze(&[]));
        assert_eq!(stats.total_bytes(), 0);
        assert_eq!(stats.top_k_byte_share(5), 0.0);
        assert_eq!(stats.median_intensity(), 0.0);
    }
}
