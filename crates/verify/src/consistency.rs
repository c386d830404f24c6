//! Cross-artifact consistency: code-side metric registrations vs the
//! checked-in snapshot fixtures.
//!
//! The metrics-snapshot gate (`charisma-verify gates metrics`) catches
//! drift by *running* the pipeline; this module catches the same drift
//! statically.
//! Every `registry.counter("…")` / `.gauge` / `.histogram` /
//! `.set_counter` call in the simulation and workload crates is extracted
//! from the token stream, dynamic names built with `format!` become glob
//! patterns (`cfs.requests.mode{m}` → `cfs.requests.mode*`), and the
//! resulting set is reconciled against the union of
//! `metrics_snapshot.json` and `metrics_snapshot_chaos.json`:
//!
//! * a registered name no fixture pins → `CH010` at the registration site
//!   (the fixture is stale; regenerate with `charisma-verify gates
//!   metrics --write` / `gates chaos --write`);
//! * a fixture name no registration produces → `CH010` at the fixture
//!   line (dead weight in the pinned namespace);
//! * a registration whose name the lexer cannot resolve to a string
//!   literal → `CH010` at the call site, because a name the analyzer
//!   cannot see is a name no gate can pin.
//!
//! Two escape hatches, both deliberately narrow and listed here rather
//! than in any config file, so widening them is a reviewed code change:
//! [`OPTIONAL_METRICS`] and [`OPTIONAL_METRIC_PREFIXES`].

use std::collections::BTreeMap;

use crate::lex::{lex, test_item_ranges, TokKind};
use crate::lint::{mark_test_tokens, Finding, Rule};

/// Registration methods on the metrics registry/snapshot whose first
/// string argument is a metric name. `set_rate` is deliberately absent:
/// rates live in the snapshot's nondeterministic section, which no
/// fixture pins.
const REGISTRATION_METHODS: &[&str] = &["counter", "gauge", "histogram", "set_counter"];

/// Metrics registered only on paths the canonical gate runs never take,
/// so they legitimately appear in no fixture:
///
/// * `faults.shard_retries` — written only when a shard worker actually
///   panics and is retried; the canonical chaos plan injects I/O and
///   message faults, not worker deaths.
pub const OPTIONAL_METRICS: &[&str] = &["faults.shard_retries"];

/// Metric-name prefixes exempt from the fixture-coverage requirement:
///
/// * `cachesim.` — the cache simulators expose `record_metrics` as an
///   opt-in sink; the pinned pipeline characterizes the trace without
///   running them, so their namespace is exercised by unit tests instead
///   of the snapshot fixtures.
pub const OPTIONAL_METRIC_PREFIXES: &[&str] = &["cachesim."];

/// One metric registration site found in code.
#[derive(Clone, Debug)]
pub struct MetricReg {
    /// Workspace-relative path of the registering file.
    pub file: String,
    /// 1-based line of the registration call.
    pub line: usize,
    /// The metric name, with `format!` holes replaced by `*`.
    pub pattern: String,
    /// Whether `pattern` contains a wildcard.
    pub wildcard: bool,
}

/// Turn a (possibly `format!`) name literal into a match pattern:
/// `{…}` holes become `*`.
fn globify(name: &str) -> (String, bool) {
    let mut out = String::new();
    let mut wildcard = false;
    let mut depth = 0usize;
    for c in name.chars() {
        match c {
            '{' => {
                depth += 1;
                if depth == 1 {
                    out.push('*');
                    wildcard = true;
                }
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    (out, wildcard)
}

/// Does `text` match `pattern`, where `*` spans any (possibly empty)
/// substring?
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let mut parts = pattern.split('*');
    let Some(first) = parts.next() else {
        return pattern == text;
    };
    if !text.starts_with(first) {
        return false;
    }
    let mut pos = first.len();
    let mut rest: Vec<&str> = parts.collect();
    let Some(last) = rest.pop() else {
        // No `*` in the pattern: exact match required.
        return text.len() == pos;
    };
    for mid in rest {
        match text[pos..].find(mid) {
            Some(p) => pos += p + mid.len(),
            None => return false,
        }
    }
    text.len() >= pos + last.len() && text.ends_with(last)
}

/// Extract every metric registration from one file's source.
///
/// Returns the registrations plus any `CH010` findings for calls whose
/// name is not statically extractable (no string literal among the first
/// argument tokens).
pub fn extract_metric_registrations(rel: &str, source: &str) -> (Vec<MetricReg>, Vec<Finding>) {
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let in_test = mark_test_tokens(toks.len(), &test_item_ranges(toks));
    let lines: Vec<&str> = source.lines().collect();
    let mut regs = Vec::new();
    let mut findings = Vec::new();

    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || !REGISTRATION_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        // Method call position only: `.counter(` — a definition site has
        // `fn` before it, a standalone function lacks the dot.
        if i == 0 || !toks[i - 1].is_punct(".") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        // The name is the first string literal in the argument head; a
        // window of 6 tokens covers both `("lit"` and `(&format!("lit…"`.
        match toks[i + 2..]
            .iter()
            .take(6)
            .find(|n| n.kind == TokKind::Str)
        {
            Some(s) => {
                let (pattern, wildcard) = globify(&s.text);
                regs.push(MetricReg {
                    file: rel.to_string(),
                    line: t.line,
                    pattern,
                    wildcard,
                });
            }
            None => findings.push(Finding {
                rule: Rule::Ch010,
                file: rel.to_string(),
                line: t.line,
                snippet: lines
                    .get(t.line.wrapping_sub(1))
                    .map_or_else(String::new, |l| l.trim().to_string()),
                message: format!(
                    "metric name passed to .{}() is not statically extractable: \
                     a name the analyzer cannot see is a name no snapshot fixture \
                     can pin; use a string literal or format! with a literal template",
                    t.text
                ),
            }),
        }
    }
    (regs, findings)
}

/// Metric names pinned by one canonical snapshot fixture, with the
/// 1-based line each name sits on.
///
/// The fixtures are canonical JSON from `obs`'s writer: section keys
/// (`"counters"`, `"gauges"`, `"histograms"`) at 2-space indent, metric
/// names at 4-space indent inside them, histogram bucket keys deeper —
/// so a line-shape parse is exact, no JSON parser needed.
pub fn fixture_metric_names(json: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (idx, line) in json.lines().enumerate() {
        if let Some(rest) = line.strip_prefix("  \"") {
            let name = rest.split('"').next().unwrap_or("");
            in_section = matches!(name, "counters" | "gauges" | "histograms");
        } else if in_section {
            if let Some(rest) = line.strip_prefix("    \"") {
                if let Some(name) = rest.split('"').next() {
                    out.push((name.to_string(), idx + 1));
                }
            } else if !line.starts_with("    ") && !line.starts_with("      ") {
                // Dedent past the metric level: the section is over.
                in_section = false;
            }
        }
    }
    out
}

fn is_optional(pattern: &str) -> bool {
    OPTIONAL_METRICS.contains(&pattern)
        || OPTIONAL_METRIC_PREFIXES
            .iter()
            .any(|px| pattern.starts_with(px))
}

/// Reconcile code registrations against the fixture-name union
/// (`name → (fixture file, line)`); every disagreement is a `CH010`.
pub fn check_metric_consistency(
    regs: &[MetricReg],
    fixture_names: &BTreeMap<String, (String, usize)>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for reg in regs {
        if is_optional(&reg.pattern) {
            continue;
        }
        let covered = if reg.wildcard {
            fixture_names.keys().any(|n| glob_match(&reg.pattern, n))
        } else {
            fixture_names.contains_key(&reg.pattern)
        };
        if !covered {
            findings.push(Finding {
                rule: Rule::Ch010,
                file: reg.file.clone(),
                line: reg.line,
                snippet: format!("registers `{}`", reg.pattern),
                message: format!(
                    "metric `{}` is registered in code but pinned by no snapshot \
                     fixture; regenerate with `charisma-verify gates metrics --write` \
                     (or `gates chaos --write` for faults.*)",
                    reg.pattern
                ),
            });
        }
    }
    for (name, (file, line)) in fixture_names {
        let covered = regs.iter().any(|r| {
            if r.wildcard {
                glob_match(&r.pattern, name)
            } else {
                &r.pattern == name
            }
        });
        if !covered {
            findings.push(Finding {
                rule: Rule::Ch010,
                file: file.clone(),
                line: *line,
                snippet: format!("pins `{name}`"),
                message: format!(
                    "metric `{name}` is pinned by the fixture but no longer \
                     registered anywhere in code; regenerate the fixture"
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globify_replaces_format_holes() {
        assert_eq!(
            globify("cfs.requests.mode{m}"),
            ("cfs.requests.mode*".into(), true)
        );
        assert_eq!(
            globify("workload.shard{shard:02}.jobs"),
            ("workload.shard*.jobs".into(), true)
        );
        assert_eq!(globify("plain.name"), ("plain.name".into(), false));
    }

    #[test]
    fn glob_match_spans_holes() {
        assert!(glob_match("cfs.requests.mode*", "cfs.requests.mode3"));
        assert!(glob_match("workload.shard*.jobs", "workload.shard07.jobs"));
        assert!(!glob_match(
            "workload.shard*.jobs",
            "workload.shard07.requests"
        ));
        assert!(glob_match("exact.name", "exact.name"));
        assert!(!glob_match("exact.name", "exact.name.more"));
    }

    #[test]
    fn fixture_parse_reads_metric_level_only() {
        let json = "{\n  \"counters\": {\n    \"a.b\": 1,\n    \"c.d\": 2\n  },\n  \
                    \"histograms\": {\n    \"h.x\": {\n      \"0\": 3\n    }\n  },\n  \
                    \"other\": {\n    \"ignored\": 0\n  }\n}\n";
        let names: Vec<String> = fixture_metric_names(json)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, ["a.b", "c.d", "h.x"]);
    }
}
