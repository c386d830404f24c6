//! Frozen metric state: plain data, deterministic merge, JSON export.
//!
//! A [`MetricsSnapshot`] is what crosses shard boundaries and lands in
//! fixtures. Merging is associative and commutative (counters saturating
//! sum, gauges max, histograms bucket-wise sum), so the merged snapshot of
//! a sharded run is independent of worker scheduling. The JSON export is
//! BTreeMap-ordered and hand-rolled (no serde in an offline workspace);
//! [`MetricsSnapshot::to_core_json`] emits only the deterministic core,
//! while [`MetricsSnapshot::to_json`] appends wall-clock timings and rates
//! under a `"nondeterministic"` key.

use std::collections::BTreeMap;

use crate::metrics::bucket_floor;

/// A histogram frozen into plain data. `buckets` is sparse: only occupied
/// buckets appear, keyed by bucket index (see
/// [`bucket_index`](crate::bucket_index)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Occupied buckets: index → sample count.
    pub buckets: BTreeMap<u32, u64>,
}

impl HistogramSnapshot {
    /// Fold `other` into `self` (bucket-wise saturating sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (&idx, &n) in &other.buckets {
            let cell = self.buckets.entry(idx).or_insert(0);
            *cell = cell.saturating_add(n);
        }
    }
}

/// One span's accumulated wall-clock time. Nondeterministic by nature.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimingSnapshot {
    /// Times the span was entered.
    pub count: u64,
    /// Total wall-clock nanoseconds across all entries.
    pub total_ns: u64,
}

/// Every metric a registry knew at snapshot time.
///
/// `counters`, `gauges`, and `histograms` are the deterministic core: pure
/// functions of the simulation seed. `timings` and `rates` are wall-clock
/// derived and excluded from [`to_core_json`](Self::to_core_json).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counts, merged by saturating sum.
    pub counters: BTreeMap<String, u64>,
    /// High-water marks, merged by max.
    pub gauges: BTreeMap<String, u64>,
    /// Log2 histograms, merged bucket-wise.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Wall-clock span timings (nondeterministic).
    pub timings: BTreeMap<String, TimingSnapshot>,
    /// Derived wall-clock rates, e.g. records per second
    /// (nondeterministic).
    pub rates: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// An empty snapshot (identity element of [`merge`](Self::merge)).
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Fold `other` into `self`. Counters add (saturating), gauges take
    /// the max, histograms add bucket-wise, timings add, rates take the
    /// max. Every rule is associative and commutative, so any merge order
    /// over any partition of the same updates yields the same snapshot.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            let cell = self.counters.entry(k.clone()).or_insert(0);
            *cell = cell.saturating_add(v);
        }
        for (k, &v) in &other.gauges {
            let cell = self.gauges.entry(k.clone()).or_insert(0);
            *cell = (*cell).max(v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, t) in &other.timings {
            let cell = self.timings.entry(k.clone()).or_default();
            cell.count = cell.count.saturating_add(t.count);
            cell.total_ns = cell.total_ns.saturating_add(t.total_ns);
        }
        for (k, &v) in &other.rates {
            let cell = self.rates.entry(k.clone()).or_insert(0);
            *cell = (*cell).max(v);
        }
    }

    /// Set a counter directly (used when importing pre-counted results,
    /// e.g. cachesim summaries, into a snapshot).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Set a derived rate (nondeterministic section).
    pub fn set_rate(&mut self, name: &str, value: u64) {
        self.rates.insert(name.to_owned(), value);
    }

    /// True when no metric of any kind is present.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.timings.is_empty()
            && self.rates.is_empty()
    }

    /// The deterministic core as pretty JSON: counters, gauges,
    /// histograms — byte-identical for byte-identical simulations, which
    /// is what the `charisma-verify gates metrics` fixture diff relies on.
    pub fn to_core_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        self.write_core(&mut w);
        w.close_object();
        w.finish()
    }

    /// The full snapshot as pretty JSON. Deterministic core first, then
    /// wall-clock data under `"nondeterministic"` so consumers can hash
    /// everything above that key.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        self.write_core(&mut w);
        w.key("nondeterministic");
        w.open_object();
        w.key("timings");
        w.open_object();
        for (name, t) in &self.timings {
            w.key(name);
            w.open_object();
            w.field_u64("count", t.count);
            w.field_u64("total_ns", t.total_ns);
            w.close_object();
        }
        w.close_object();
        w.key("rates");
        w.open_object();
        for (name, &v) in &self.rates {
            w.field_u64(name, v);
        }
        w.close_object();
        w.close_object();
        w.close_object();
        w.finish()
    }

    fn write_core(&self, w: &mut JsonWriter) {
        w.key("counters");
        w.open_object();
        for (name, &v) in &self.counters {
            w.field_u64(name, v);
        }
        w.close_object();
        w.key("gauges");
        w.open_object();
        for (name, &v) in &self.gauges {
            w.field_u64(name, v);
        }
        w.close_object();
        w.key("histograms");
        w.open_object();
        for (name, h) in &self.histograms {
            w.key(name);
            w.open_object();
            w.field_u64("count", h.count);
            w.field_u64("sum", h.sum);
            w.key("buckets");
            w.open_object();
            for (&idx, &n) in &h.buckets {
                // Key buckets by their floor value, not their index: the
                // fixture then reads as "512": 3 (three samples in
                // [512, 1024)) instead of an opaque bucket number.
                w.field_u64(&bucket_floor(idx as usize).to_string(), n);
            }
            w.close_object();
            w.close_object();
        }
        w.close_object();
    }
}

/// Minimal pretty-printing JSON writer. Two-space indent, keys emitted in
/// caller order (callers iterate BTreeMaps, so output order is the sorted
/// key order), strings escaped per RFC 8259.
struct JsonWriter {
    out: String,
    indent: usize,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter {
            out: String::new(),
            indent: 0,
            need_comma: Vec::new(),
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.need_comma.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
            self.newline();
        }
    }

    fn open_object(&mut self) {
        self.out.push('{');
        self.indent += 1;
        self.need_comma.push(false);
    }

    fn close_object(&mut self) {
        self.indent -= 1;
        let had_entries = self.need_comma.pop().unwrap_or(false);
        if had_entries {
            self.newline();
        }
        self.out.push('}');
    }

    fn key(&mut self, key: &str) {
        self.pre_value();
        self.push_string(key);
        self.out.push_str(": ");
    }

    fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.counters.insert("a.requests".into(), 10);
        s.counters.insert("b.hits".into(), 3);
        s.gauges.insert("depth".into(), 7);
        let h = HistogramSnapshot {
            count: 2,
            sum: 1024,
            buckets: [(10u32, 2u64)].into_iter().collect(),
        };
        s.histograms.insert("service_us".into(), h);
        s.timings.insert(
            "generate".into(),
            TimingSnapshot {
                count: 1,
                total_ns: 5000,
            },
        );
        s.rates.insert("records_per_sec".into(), 123);
        s
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = sample();
        let mut b = MetricsSnapshot::new();
        b.counters.insert("a.requests".into(), 5);
        b.gauges.insert("depth".into(), 9);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters["a.requests"], 15);
        assert_eq!(ab.gauges["depth"], 9);
        a.merge(&MetricsSnapshot::new());
        assert_eq!(a, sample(), "empty snapshot is the merge identity");
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = HistogramSnapshot {
            count: 2,
            sum: 6,
            buckets: [(1u32, 1u64), (2, 1)].into_iter().collect(),
        };
        let b = HistogramSnapshot {
            count: 3,
            sum: 100,
            buckets: [(2u32, 2u64), (6, 1)].into_iter().collect(),
        };
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 106);
        assert_eq!(a.buckets[&1], 1);
        assert_eq!(a.buckets[&2], 3);
        assert_eq!(a.buckets[&6], 1);
    }

    #[test]
    fn core_json_omits_wall_clock_data() {
        let s = sample();
        let core = s.to_core_json();
        assert!(core.contains("a.requests"));
        assert!(core.contains("service_us"));
        assert!(!core.contains("nondeterministic"));
        assert!(!core.contains("generate"));
        assert!(!core.contains("records_per_sec"));
    }

    #[test]
    fn full_json_quarantines_wall_clock_data() {
        let s = sample();
        let full = s.to_json();
        let nd_at = full.find("\"nondeterministic\"").expect("nd key present");
        let timing_at = full.find("\"generate\"").expect("timing present");
        let rate_at = full.find("\"records_per_sec\"").expect("rate present");
        assert!(timing_at > nd_at && rate_at > nd_at);
        // Everything before the nondeterministic key equals the core,
        // minus the closing brace: the deterministic prefix is hashable.
        assert!(full.starts_with(s.to_core_json().trim_end_matches("\n}\n")));
    }

    #[test]
    fn json_is_stable_across_insertion_order() {
        let mut fwd = MetricsSnapshot::new();
        fwd.counters.insert("alpha".into(), 1);
        fwd.counters.insert("beta".into(), 2);
        let mut rev = MetricsSnapshot::new();
        rev.counters.insert("beta".into(), 2);
        rev.counters.insert("alpha".into(), 1);
        assert_eq!(fwd.to_json(), rev.to_json());
    }

    #[test]
    fn json_escapes_strings() {
        let mut s = MetricsSnapshot::new();
        s.counters.insert("weird\"\\name\n".into(), 1);
        let json = s.to_json();
        assert!(json.contains("weird\\\"\\\\name\\n"));
    }

    #[test]
    fn bucket_keys_are_floor_values() {
        let mut s = MetricsSnapshot::new();
        let h = HistogramSnapshot {
            count: 1,
            sum: 1000,
            buckets: [(10u32, 1u64)].into_iter().collect(),
        };
        s.histograms.insert("svc".into(), h);
        assert!(s.to_core_json().contains("\"512\": 1"));
    }

    #[test]
    fn empty_snapshot_renders_empty_objects() {
        let s = MetricsSnapshot::new();
        let core = s.to_core_json();
        assert!(core.contains("\"counters\": {}"));
        assert!(core.ends_with("}\n"));
    }
}
