//! CH010: the metric names registered in code and the names pinned by the
//! snapshot fixtures agree, in both directions.
//!
//! The `metrics` gate catches drift by running the pipeline; this test
//! catches it from source text. Every `.counter("…")`, `.gauge`,
//! `.histogram` and `.set_counter` call in the library code of the
//! simulation and workload crates yields a name, with `format!` holes
//! read as wildcards (`cfs.requests.mode{m}` → `cfs.requests.mode*`). The
//! names are reconciled against the union of `metrics_snapshot.json` and
//! `metrics_snapshot_chaos.json`:
//!
//! * a registered name no fixture pins fails (regenerate with
//!   `charisma-verify gates metrics --write`, or `gates chaos --write` for
//!   `faults.*`);
//! * a pinned name nothing registers fails (dead weight in the fixture);
//! * a registration whose name is not a string literal fails, because a
//!   name this test cannot see is a name no fixture can pin.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Crates whose metric registrations the fixtures pin.
const METRIC_CRATES: &[&str] = &[
    "ipsc", "cfs", "cachesim", "trace", "obs", "store", "workload", "serve", "tier",
];

/// Registry and snapshot calls whose first argument is a metric name.
const REGISTRATION_CALLS: &[&str] = &[".counter(", ".gauge(", ".histogram(", ".set_counter("];

/// Metrics registered only on paths the canonical gate runs never take,
/// so they legitimately appear in no fixture:
///
/// * `faults.shard_retries` — written only when a shard worker actually
///   panics and is retried; the canonical chaos plan injects I/O and
///   message faults, not worker deaths.
const OPTIONAL_METRICS: &[&str] = &["faults.shard_retries"];

/// One registration site: `file:line` and the name pattern it registers.
struct Registration {
    site: String,
    pattern: String,
    wildcard: bool,
}

impl Registration {
    fn covers(&self, name: &str) -> bool {
        if self.wildcard {
            glob_match(&self.pattern, name)
        } else {
            self.pattern == name
        }
    }
}

/// Turn a (possibly `format!`) name literal into a match pattern: `{…}`
/// holes become `*`.
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
fn glob_match(pattern: &str, text: &str) -> bool {
    let mut parts = pattern.split('*');
    let first = parts.next().unwrap_or("");
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

/// A file's library code: `//` comments blanked (line numbers kept) and
/// everything from its `#[cfg(test)]` on dropped. A registering file must
/// keep its tests in one trailing module, or the cut could hide library
/// code; a second `#[cfg(test)]` in such a file is a complaint.
fn library_text(file: &str, source: &str, complaints: &mut Vec<String>) -> String {
    let text: Vec<&str> = source
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect();
    let text = text.join("\n");
    let registers = REGISTRATION_CALLS.iter().any(|call| text.contains(call));
    if registers && text.matches("#[cfg(test)]").count() > 1 {
        complaints.push(format!(
            "{file}: more than one #[cfg(test)]; this check reads library code up to \
             the first, so keep the tests in one trailing module"
        ));
    }
    match text.find("#[cfg(test)]") {
        Some(cut) => text[..cut].to_string(),
        None => text,
    }
}

/// The registrations in one file's library text. A call whose first
/// argument holds no string literal — before its first `,` or `)` — is a
/// complaint.
fn registrations(
    file: &str,
    text: &str,
    regs: &mut Vec<Registration>,
    complaints: &mut Vec<String>,
) {
    for call in REGISTRATION_CALLS {
        for (at, _) in text.match_indices(call) {
            let site = format!("{file}:{}", text[..at].matches('\n').count() + 1);
            // `("lit"` or `(&format!("lit{hole}")`, possibly on the next line.
            let args = &text[at + call.len()..];
            let head = &args[..args.find([',', ')']).unwrap_or(args.len())];
            match head.find('"') {
                Some(open) => {
                    let literal = args[open + 1..].split('"').next().unwrap_or("");
                    let (pattern, wildcard) = globify(literal);
                    regs.push(Registration {
                        site,
                        pattern,
                        wildcard,
                    });
                }
                None => complaints.push(format!(
                    "{site}: metric name passed to {call}…) is not statically \
                     extractable: use a string literal or format! with a literal template"
                )),
            }
        }
    }
}

/// Metric names pinned by one canonical snapshot fixture, with the
/// 1-based line each name sits on.
///
/// The fixtures are canonical JSON from `obs`'s writer: section keys
/// (`"counters"`, `"gauges"`, `"histograms"`) at 2-space indent, metric
/// names at 4-space indent inside them, histogram bucket keys deeper —
/// so a line-shape parse is exact, no JSON parser needed.
fn fixture_metric_names(json: &str) -> Vec<(String, usize)> {
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
            } else if !line.starts_with("    ") {
                // Dedent past the metric level: the section is over.
                in_section = false;
            }
        }
    }
    out
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(rs_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

#[test]
fn registered_metric_names_match_the_snapshot_fixtures() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut regs = Vec::new();
    let mut complaints = Vec::new();
    for krate in METRIC_CRATES {
        let root = crates.join(krate);
        for path in rs_files(&root.join("src")) {
            let source = std::fs::read_to_string(&path).expect("read source");
            let rel = path.strip_prefix(&root).expect("under the crate");
            let file = format!("crates/{krate}/{}", rel.display());
            let text = library_text(&file, &source, &mut complaints);
            registrations(&file, &text, &mut regs, &mut complaints);
        }
    }

    // Name → the first `fixture:line` pinning it.
    let mut pinned: BTreeMap<String, String> = BTreeMap::new();
    for fixture in ["metrics_snapshot.json", "metrics_snapshot_chaos.json"] {
        let json = std::fs::read_to_string(crates.join("verify/fixtures").join(fixture))
            .expect("read fixture");
        for (name, line) in fixture_metric_names(&json) {
            pinned
                .entry(name)
                .or_insert_with(|| format!("crates/verify/fixtures/{fixture}:{line}"));
        }
    }

    for reg in regs
        .iter()
        .filter(|r| !OPTIONAL_METRICS.contains(&r.pattern.as_str()))
    {
        if !pinned.keys().any(|name| reg.covers(name)) {
            complaints.push(format!(
                "{}: metric `{}` is registered in code but pinned by no snapshot \
                 fixture; regenerate with `charisma-verify gates metrics --write` \
                 (or `gates chaos --write` for faults.*)",
                reg.site, reg.pattern
            ));
        }
    }
    for (name, site) in &pinned {
        if !regs.iter().any(|r| r.covers(name)) {
            complaints.push(format!(
                "{site}: metric `{name}` is pinned by the fixture but no longer \
                 registered anywhere in code; regenerate the fixture"
            ));
        }
    }
    assert!(
        complaints.is_empty(),
        "CH010 metric-name drift:\n{}",
        complaints.join("\n")
    );
}

#[test]
fn format_holes_become_wildcards() {
    assert_eq!(
        globify("workload.shard{shard:02}.jobs"),
        ("workload.shard*.jobs".into(), true)
    );
    assert_eq!(globify("plain.name"), ("plain.name".into(), false));
    assert!(glob_match("workload.shard*.jobs", "workload.shard07.jobs"));
    assert!(!glob_match(
        "workload.shard*.jobs",
        "workload.shard07.requests"
    ));
    assert!(!glob_match("exact.name", "exact.name.more"));
}
