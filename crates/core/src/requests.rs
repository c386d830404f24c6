//! Figure 4: request sizes, by count and by data transferred.
//!
//! The analyzer's `SessionStat` does not retain individual requests, so
//! this module accumulates its CDFs in its own streaming pass — cheap, and
//! it keeps the per-session state small.

use charisma_trace::record::EventBody;
use charisma_trace::OrderedEvent;

use crate::analyze::IntMap;
use crate::cdf::Cdf;

/// Figure 4's four curves plus the paper's headline percentages.
///
/// Requests take few distinct sizes (48 in a seed-4994 trace of 365k
/// requests), so the stream is tallied as `size → count` per direction,
/// one hash lookup per request, and the curves are built once, when the
/// stream is sealed: the tally is sorted by size then, so the curves are
/// filled in ascending size order whatever order the map keeps.
#[derive(Clone, Debug)]
pub struct RequestSizes {
    /// CDF of read request sizes, weighted by count.
    pub reads_by_count: Cdf,
    /// CDF of read request sizes, weighted by bytes moved.
    pub reads_by_bytes: Cdf,
    /// CDF of write request sizes, weighted by count.
    pub writes_by_count: Cdf,
    /// CDF of write request sizes, weighted by bytes moved.
    pub writes_by_bytes: Cdf,
    /// Read requests per size, until sealed.
    reads: IntMap<u32, u64>,
    /// Write requests per size, until sealed.
    writes: IntMap<u32, u64>,
}

/// Move a size tally into its two curves, in ascending size order:
/// weight `n` by count and `size·n` by bytes. Integer weights below 2^53
/// sum exactly in `f64`, so the curves equal one sample per request bit
/// for bit.
fn fill(counts: IntMap<u32, u64>, by_count: &mut Cdf, by_bytes: &mut Cdf) {
    let mut counts: Vec<(u32, u64)> = counts.into_iter().collect();
    counts.sort_unstable();
    for (size, n) in counts {
        by_count.add_weighted(u64::from(size), n as f64);
        by_bytes.add_weighted(u64::from(size), f64::from(size) * n as f64);
    }
    by_count.seal();
    by_bytes.seal();
}

impl RequestSizes {
    /// Empty (unsealed) curves, for incremental accumulation via [`Self::push`].
    pub fn new() -> Self {
        RequestSizes {
            reads_by_count: Cdf::new(),
            reads_by_bytes: Cdf::new(),
            writes_by_count: Cdf::new(),
            writes_by_bytes: Cdf::new(),
            reads: IntMap::default(),
            writes: IntMap::default(),
        }
    }

    /// Account one event (reads and writes; everything else is ignored).
    pub fn push(&mut self, e: &OrderedEvent) {
        match e.body {
            EventBody::Read { bytes, .. } => *self.reads.entry(bytes).or_insert(0) += 1,
            EventBody::Write { bytes, .. } => *self.writes.entry(bytes).or_insert(0) += 1,
            _ => {}
        }
    }

    /// Seal the curves once the stream ends; fractions are valid after.
    pub fn seal(&mut self) {
        fill(
            std::mem::take(&mut self.reads),
            &mut self.reads_by_count,
            &mut self.reads_by_bytes,
        );
        fill(
            std::mem::take(&mut self.writes),
            &mut self.writes_by_count,
            &mut self.writes_by_bytes,
        );
    }

    /// Fraction of reads smaller than 4000 bytes (paper: 96.1 %).
    pub fn small_read_fraction(&self) -> f64 {
        self.reads_by_count.fraction_le(3999)
    }

    /// Fraction of read data moved by sub-4000-byte reads (paper: 2.0 %).
    pub fn small_read_data_fraction(&self) -> f64 {
        self.reads_by_bytes.fraction_le(3999)
    }

    /// Fraction of writes smaller than 4000 bytes (paper: 89.4 %).
    pub fn small_write_fraction(&self) -> f64 {
        self.writes_by_count.fraction_le(3999)
    }

    /// Fraction of written data moved by sub-4000-byte writes (paper: 3 %).
    pub fn small_write_data_fraction(&self) -> f64 {
        self.writes_by_bytes.fraction_le(3999)
    }
}

impl Default for RequestSizes {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_ipsc::SimTime;

    /// The sealed Figure 4 curves of `events`.
    fn request_sizes(events: &[OrderedEvent]) -> RequestSizes {
        let mut out = RequestSizes::new();
        for e in events {
            out.push(e);
        }
        out.seal();
        out
    }

    fn read(bytes: u32) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body: EventBody::Read {
                session: 1,
                offset: 0,
                bytes,
            },
        }
    }

    fn write(bytes: u32) -> OrderedEvent {
        OrderedEvent {
            time: SimTime::ZERO,
            node: 0,
            body: EventBody::Write {
                session: 1,
                offset: 0,
                bytes,
            },
        }
    }

    #[test]
    fn paper_shape_small_count_large_bytes() {
        // 96 small reads, 4 large ones carrying almost all data.
        let mut events: Vec<_> = (0..96).map(|_| read(512)).collect();
        events.extend((0..4).map(|_| read(1 << 20)));
        let rs = request_sizes(&events);
        assert!(rs.small_read_fraction() > 0.95);
        assert!(rs.small_read_data_fraction() < 0.02);
    }

    #[test]
    fn reads_and_writes_separate() {
        let events = vec![read(100), write(1 << 20)];
        let rs = request_sizes(&events);
        assert_eq!(rs.reads_by_count.total() as u64, 1);
        assert_eq!(rs.writes_by_count.total() as u64, 1);
        assert!(rs.small_read_fraction() > 0.99);
        assert!(rs.small_write_fraction() < 0.01);
    }

    #[test]
    fn tallied_curves_equal_one_sample_per_request() {
        let sizes = [
            512u32,
            4096,
            0,
            512,
            1 << 20,
            3999,
            4000,
            512,
            u32::MAX,
            4096,
        ];
        let events: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &b)| if i % 3 == 0 { write(b) } else { read(b) })
            .collect();
        let rs = request_sizes(&events);
        let mut want = [Cdf::new(), Cdf::new(), Cdf::new(), Cdf::new()];
        for e in &events {
            let (bytes, curves) = match e.body {
                EventBody::Read { bytes, .. } => (bytes, 0),
                EventBody::Write { bytes, .. } => (bytes, 2),
                _ => unreachable!(),
            };
            want[curves].add(u64::from(bytes));
            want[curves + 1].add_weighted(u64::from(bytes), f64::from(bytes));
        }
        let got = [
            &rs.reads_by_count,
            &rs.reads_by_bytes,
            &rs.writes_by_count,
            &rs.writes_by_bytes,
        ];
        for (got, want) in got.into_iter().zip(&mut want) {
            want.seal();
            let bits = |c: &Cdf| c.curve().map(|(v, f)| (v, f.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want));
            assert_eq!(got.total().to_bits(), want.total().to_bits());
        }
    }

    #[test]
    fn empty_stream_is_benign() {
        let rs = request_sizes(&[]);
        assert_eq!(rs.small_read_fraction(), 0.0);
        assert_eq!(rs.small_write_data_fraction(), 0.0);
    }
}
