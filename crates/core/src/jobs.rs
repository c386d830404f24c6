//! Job-mix analyses: Figure 1, Figure 2, Table 1.

use crate::analyze::Characterization;

/// Figure 1: fraction of the traced period spent with each number of jobs
/// running. Index = job count; value = fraction of time.
pub fn concurrency_profile(c: &Characterization) -> Vec<f64> {
    // Sweep over job start/end events.
    let mut edges: Vec<(u64, i32)> = Vec::with_capacity(c.jobs.len() * 2);
    for j in c.jobs.values() {
        edges.push((j.start.as_micros(), 1));
        edges.push((j.end.as_micros(), -1));
    }
    edges.sort_unstable();
    let horizon = c.horizon.as_micros();
    let mut level = 0i32;
    let mut last = 0u64;
    let mut time_at: Vec<u64> = vec![0; 16];
    for (t, d) in edges {
        let t = t.min(horizon);
        let idx = (level.max(0) as usize).min(time_at.len() - 1);
        time_at[idx] += t - last;
        last = t;
        level += d;
    }
    if last < horizon {
        time_at[0] += horizon - last;
    }
    let total: u64 = time_at.iter().sum();
    while time_at.len() > 1 && *time_at.last().expect("nonempty") == 0 {
        time_at.pop();
    }
    time_at
        .iter()
        .map(|&t| t as f64 / total.max(1) as f64)
        .collect()
}

/// Figure 2: percent of jobs using each number of compute nodes,
/// as `(nodes, percent)`, ascending by node count.
pub fn node_usage(c: &Characterization) -> Vec<(u16, f64)> {
    let mut counts: std::collections::BTreeMap<u16, usize> = std::collections::BTreeMap::new();
    for j in c.jobs.values() {
        *counts.entry(j.nodes).or_insert(0) += 1;
    }
    let total = c.jobs.len().max(1) as f64;
    counts
        .into_iter()
        .map(|(n, k)| (n, 100.0 * k as f64 / total))
        .collect()
}

/// Fraction of node-time used by jobs of each size (the "large parallel
/// jobs dominated node usage" claim), as `(nodes, fraction)`.
pub fn node_time_share(c: &Characterization) -> Vec<(u16, f64)> {
    // Node-microseconds, summed as integers so the shares do not depend
    // on the order the jobs are visited in.
    let mut usage: std::collections::BTreeMap<u16, u128> = std::collections::BTreeMap::new();
    for j in c.jobs.values() {
        let t = u128::from((j.end - j.start).as_micros()) * u128::from(j.nodes);
        *usage.entry(j.nodes).or_insert(0) += t;
    }
    let total = usage.values().sum::<u128>().max(1) as f64;
    usage
        .into_iter()
        .map(|(n, t)| (n, t as f64 / total))
        .collect()
}

/// Table 1: among traced jobs that opened at least one file, how many
/// opened 1, 2, 3, 4, and 5+ files. Returns `[n1, n2, n3, n4, n5plus]`.
pub fn files_per_job(c: &Characterization) -> [usize; 5] {
    let mut buckets = [0usize; 5];
    for j in c.jobs.values() {
        if !j.traced || j.files_opened == 0 {
            continue;
        }
        let idx = (j.files_opened as usize - 1).min(4);
        buckets[idx] += 1;
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, JobInfo};
    use charisma_ipsc::SimTime;

    fn job(nodes: u16, traced: bool, start: u64, end: u64, files: u32) -> JobInfo {
        JobInfo {
            nodes,
            traced,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            files_opened: files,
        }
    }

    fn chars(jobs: Vec<(u32, JobInfo)>) -> Characterization {
        let mut c = analyze(&[]);
        c.horizon = jobs
            .iter()
            .map(|(_, j)| j.end)
            .max()
            .unwrap_or(SimTime::ZERO);
        c.jobs = jobs.into_iter().collect();
        c
    }

    #[test]
    fn concurrency_profile_sums_to_one() {
        let c = chars(vec![
            (1, job(1, false, 0, 10, 0)),
            (2, job(2, false, 5, 20, 0)),
            (3, job(4, false, 30, 40, 0)),
        ]);
        let p = concurrency_profile(&c);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // 0..5 one job, 5..10 two, 10..20 one, 20..30 idle, 30..40 one.
        assert!((p[0] - 0.25).abs() < 1e-9);
        assert!((p[1] - 0.625).abs() < 1e-9);
        assert!((p[2] - 0.125).abs() < 1e-9);
    }

    #[test]
    fn idle_machine_is_all_level_zero() {
        let mut c = chars(vec![]);
        c.horizon = SimTime::from_secs(100);
        let p = concurrency_profile(&c);
        assert_eq!(p, vec![1.0]);
    }

    #[test]
    fn node_usage_percentages() {
        let c = chars(vec![
            (1, job(1, false, 0, 1, 0)),
            (2, job(1, false, 0, 1, 0)),
            (3, job(64, false, 0, 1, 0)),
            (4, job(128, false, 0, 1, 0)),
        ]);
        let u = node_usage(&c);
        assert_eq!(u[0], (1, 50.0));
        assert_eq!(u[1], (64, 25.0));
        assert_eq!(u[2], (128, 25.0));
    }

    #[test]
    fn node_time_dominated_by_large_jobs() {
        // One 128-node hour vs many 1-node minutes.
        let mut jobs = vec![(0u32, job(128, false, 0, 3600, 0))];
        for i in 1..30 {
            jobs.push((i, job(1, false, 0, 60, 0)));
        }
        let c = chars(jobs);
        let share = node_time_share(&c);
        let big = share.iter().find(|&&(n, _)| n == 128).expect("exists").1;
        assert!(big > 0.99);
    }

    #[test]
    fn files_per_job_buckets() {
        let c = chars(vec![
            (1, job(1, true, 0, 1, 1)),
            (2, job(1, true, 0, 1, 2)),
            (3, job(1, true, 0, 1, 4)),
            (4, job(1, true, 0, 1, 9)),
            (5, job(1, true, 0, 1, 200)),
            (6, job(1, true, 0, 1, 0)),  // no files: excluded
            (7, job(1, false, 0, 1, 3)), // untraced: excluded
        ]);
        assert_eq!(files_per_job(&c), [1, 1, 0, 1, 2]);
    }
}
