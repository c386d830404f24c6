//! Spans recorded from the benchmark's side of each public call.
//!
//! Every request the benchmark makes (one query, one pipeline run, one
//! maintenance cycle, one set-up) is a root span with a fresh `req`; the
//! calls it makes into the system's layers are its children and share
//! that `req`. Spans are kept in memory and written out once, at exit.
//! A disabled [`Tracer`] reads no clock and records nothing, so the
//! untraced runs that produce the end-to-end numbers pay one branch per
//! span.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::json::quote;

/// Span names starting with this prefix are the benchmark's own
/// structure (requests, set-up); every other name is a layer call, named
/// `<crate>.<call>`.
pub const BENCH_PREFIX: &str = "bench.";

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique within one tracer, starting at 1.
    pub id: u64,
    /// The enclosing span, `None` for a request root.
    pub parent: Option<u64>,
    /// The request this span serves.
    pub req: u64,
    /// `<crate>.<call>` for layer calls, `bench.<what>` for structure.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    next_id: AtomicU64,
    next_req: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A tracer that records (`true`) or does nothing (`false`).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: enabled.then(Instant::now),
            next_id: AtomicU64::new(1),
            next_req: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Nanoseconds since the epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| {
            u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Open a request: a root span with a fresh `req`.
    pub fn request(&self, name: &'static str) -> Span<'_> {
        let req = if self.enabled() {
            self.next_req.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        self.open(name, None, req)
    }

    fn open(&self, name: &'static str, parent: Option<u64>, req: u64) -> Span<'_> {
        let (id, start_ns) = if self.enabled() {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        Span {
            tracer: self,
            id,
            parent,
            req,
            name,
            start_ns,
        }
    }

    /// Every finished span, in id order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// An open span; it is recorded when dropped.
#[derive(Debug)]
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

impl<'t> Span<'t> {
    /// Open a child span in the same request.
    pub fn child(&self, name: &'static str) -> Span<'t> {
        self.tracer.open(name, Some(self.id), self.req)
    }

    /// Run `f` inside a child span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.child(name);
        f()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled() {
            return;
        }
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            req: self.req,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        // A poisoned lock only means another recording thread panicked;
        // the vector itself is always whole.
        self.tracer
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are counted once).
pub fn self_times(spans: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerRow {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
}

/// Spans grouped by name.
#[derive(Clone, Debug, Default)]
pub struct LayerTable(pub BTreeMap<&'static str, LayerRow>);

impl LayerTable {
    /// Aggregate `spans` by name.
    pub fn new(spans: &[SpanRecord]) -> Self {
        let selfs = self_times(spans);
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for s in spans {
            let row = rows.entry(s.name).or_default();
            row.count += 1;
            row.self_ns += selfs[&s.id];
            row.total_ns += s.end_ns - s.start_ns;
        }
        LayerTable(rows)
    }

    /// The row for `name` (all zero when no such span ran).
    pub fn row(&self, name: &str) -> LayerRow {
        self.0.get(name).copied().unwrap_or_default()
    }

    /// Summed self time of `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.row(name).self_ns as f64 / 1e9
    }

    /// `work` divided by the summed self time of `name` (0 when it never ran).
    pub fn rate(&self, name: &str, work: f64) -> f64 {
        let s = self.self_s(name);
        if s > 0.0 {
            work / s
        } else {
            0.0
        }
    }

    /// Summed self time of every layer (non-`bench.`) span, seconds.
    pub fn layer_self_s(&self) -> f64 {
        self.0
            .iter()
            .filter(|(name, _)| !name.starts_with(BENCH_PREFIX))
            .map(|(_, r)| r.self_ns as f64 / 1e9)
            .sum()
    }
}

/// Write `spans` as JSON lines: `{id, parent, req, name, start_ns, end_ns}`.
pub fn write_jsonl(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"req\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.req,
            quote(s.name),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            req: 1,
            name: if parent.is_none() {
                "bench.op"
            } else {
                "store.scan"
            },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),  // overlaps 2: union is 10..60
            span(4, Some(1), 90, 120), // runs past the parent: clipped at 100
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30);
        let table = LayerTable::new(&spans);
        assert_eq!(table.row("store.scan").count, 3);
        assert_eq!(table.row("bench.op").self_ns, 40);
        assert!((table.layer_self_s() - 90e-9).abs() < 1e-15);
        assert_eq!(table.rate("store.absent", 5.0), 0.0);
    }

    #[test]
    fn children_share_the_request_and_a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(true);
        {
            let req = tracer.request("bench.op");
            req.time("store.scan", || ());
            let _second = tracer.request("bench.op");
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].req, spans[0].req);
        assert_ne!(spans[2].req, spans[0].req);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        off.request("bench.op").time("store.scan", || ());
        assert!(off.spans().is_empty());
    }
}
