//! Every workload at scale 0.01 with a short phase and few queries,
//! untraced and traced: every metric is reported with its unit, no
//! operation fails, and the span files are well formed.

use std::collections::HashMap;
use std::path::PathBuf;

use charisma_benchmark::json::{self, Value};
use charisma_benchmark::{run, Config, Workload, END_TO_END, PER_LAYER};

fn config(trace: bool) -> Config {
    Config {
        seed: 4994,
        seconds: 0.2,
        scale: Some(0.01),
        queries: 40,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(if trace {
            "smoke-traced"
        } else {
            "smoke-untraced"
        }),
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_and_no_failure() {
    for w in Workload::ALL {
        let name = w.name();
        let outcome = run(w, &config(false)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(outcome.tally.attempted > 0, "{name} checked nothing");
        assert_eq!(outcome.tally.failed, 0, "{name}: failed_op_ratio is not 0");
        let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let want: Vec<(&str, &str)> = END_TO_END.iter().map(|d| (d.name, d.unit)).collect();
        assert_eq!(got, want, "{name}");
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{name}: {} is {}", m.name, m.value);
        }
        let line = json::parse(&outcome.result_json()).expect("the result line is JSON");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{name}");
        assert_eq!(line.get("failed").and_then(Value::num), Some(0.0), "{name}");
    }
}

#[test]
fn traced_runs_report_every_layer_and_write_nested_spans() {
    for w in Workload::ALL {
        let name = w.name();
        let cfg = config(true);
        let outcome = run(w, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(outcome.tally.failed, 0, "{name}: failed_op_ratio is not 0");
        let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let want: Vec<(&str, &str)> = PER_LAYER.iter().map(|d| (d.name, d.unit)).collect();
        assert_eq!(got, want, "{name}");
        assert!(outcome.overhead_s.is_some(), "{name}: no tracing overhead");
        let table = outcome
            .layers
            .as_ref()
            .expect("a traced run has a layer table");
        assert!(table.0.keys().any(|k| !k.starts_with("bench.")), "{name}");

        let path = cfg.out_dir.join(format!("{name}.trace.jsonl"));
        let text = std::fs::read_to_string(&path).expect("the span file exists");
        // (parent, req, start, end) by id.
        let mut spans: HashMap<u64, (Option<u64>, u64, i128, i128)> = HashMap::new();
        for line in text.lines() {
            let v = json::parse(line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
            let num = |k: &str| v.get(k).and_then(Value::num).expect("numeric field");
            assert!(v.get("name").and_then(Value::str).is_some());
            let parent = v.get("parent").and_then(Value::num).map(|p| p as u64);
            let span = (
                parent,
                num("req") as u64,
                num("start_ns") as i128,
                num("end_ns") as i128,
            );
            assert!(
                span.2 <= span.3,
                "{name}: span ends before it starts: {line}"
            );
            spans.insert(num("id") as u64, span);
        }
        assert!(!spans.is_empty(), "{name}: empty span file");
        let mut covered: HashMap<u64, i128> = HashMap::new();
        for (parent, req, start, end) in spans.values() {
            let Some(p) = parent else { continue };
            let (_, p_req, p_start, p_end) = spans[p];
            assert_eq!(*req, p_req, "{name}: a child left its parent's request");
            assert!(
                p_start <= *start && *end <= p_end,
                "{name}: a child outlives its parent"
            );
            *covered.entry(*p).or_default() += end - start;
        }
        for (id, (_, _, start, end)) in &spans {
            let self_ns = end - start - covered.get(id).copied().unwrap_or(0);
            assert!(self_ns >= 0, "{name}: span {id} has negative self time");
        }
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let Value::Obj(members) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |key: &str| match doc.get(key) {
        Some(Value::Arr(items)) => items.clone(),
        other => panic!("{key} is not a list: {other:?}"),
    };
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::str).unwrap_or("").to_string();

    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let want: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, want);
    assert!(workloads.iter().all(|(_, why)| why.len() <= 200));

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (v, def) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(v, "name"), def.name);
        assert_eq!(field(v, "unit"), def.unit);
        assert_eq!(field(v, "better"), def.better.as_str());
        assert_eq!(
            v.get("bound").and_then(Value::num),
            def.bound,
            "{}",
            def.name
        );
    }
    let layers = list("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (v, def) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(v, "name"), def.name);
        assert_eq!(field(v, "unit"), def.unit);
        assert_eq!(field(v, "better"), def.better.as_str());
    }
}
