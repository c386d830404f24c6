//! Order statistics, process memory, and the benchmark's own seeded RNG.

/// Median of `values` (mean of the middle pair for an even count), or
/// `NaN` for none.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples a tail value must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Rank (1-based, nearest rank) of the tail value among `n` sorted
/// samples: p99, or lower when p99 would have fewer than [`TAIL_BEYOND`]
/// samples beyond it. `None` for fewer than `TAIL_BEYOND + 1` samples.
pub fn tail_rank(n: usize) -> Option<usize> {
    let p99 = (0.99 * n as f64).ceil() as usize;
    n.checked_sub(TAIL_BEYOND)
        .filter(|&r| r >= 1)
        .map(|r| r.min(p99))
}

/// The highest percentile, at most p99, of `values` that has at least
/// [`TAIL_BEYOND`] samples beyond it, or `NaN` for too few samples.
pub fn tail(values: &[f64]) -> f64 {
    match tail_rank(values.len()) {
        Some(rank) => sorted(values)[rank - 1],
        None => f64::NAN,
    }
}

/// The median of [`tail`] over each complete pass of `pass` consecutive
/// values, or [`tail`] of them all when `pass` is 0 or no pass is
/// complete.
pub fn pass_tail(values: &[f64], pass: usize) -> f64 {
    if pass == 0 || values.len() < pass {
        return tail(values);
    }
    let tails: Vec<f64> = values.chunks_exact(pass).map(tail).collect();
    median(&tails)
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads printed here match
/// the ones an external check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// SplitMix64: the benchmark draws its query mix and damage plan from
/// this, never from the system under test, so a change to the system's
/// RNG cannot change the inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        // 2000 samples: p99 is rank 1980, 20 beyond.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), 1980.0);
        // 1000 samples: p99 is rank 990, exactly 10 beyond.
        assert_eq!(tail_rank(1000), Some(990));
        // 30 samples: p99 would be the maximum, so rank 20 (p66.7).
        let v: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(tail(&v), 20.0);
        assert_eq!(tail_rank(11), Some(1));
        assert_eq!(tail_rank(10), None);
        assert!(tail(&[1.0; 10]).is_nan());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_slow_spell_in_one_pass_does_not_move_the_pass_tail() {
        // Three passes of 20: the tail of each is its 10th value, 10
        // beyond. A spell makes the middle pass ten times slower.
        let mut v: Vec<f64> = (0..60).map(|i| f64::from(i % 20 + 1)).collect();
        for x in &mut v[20..40] {
            *x *= 10.0;
        }
        assert_eq!(pass_tail(&v, 20), 10.0);
        // One tail over all 60 lands inside the spell.
        assert_eq!(pass_tail(&v, 0), tail(&v));
        assert_eq!(tail(&v), 100.0);
        // An incomplete last pass is left out; too few values for a pass
        // fall back to one tail.
        assert_eq!(pass_tail(&v[..50], 20), pass_tail(&v[..40], 20));
        assert_eq!(pass_tail(&v[..15], 20), tail(&v[..15]));
    }
}
