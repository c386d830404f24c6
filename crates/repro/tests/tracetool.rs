//! `tracetool` on a truncated trace: every reading command must report
//! the trace file error and exit 1, never panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tracetool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .args(args)
        .output()
        .expect("tracetool runs")
}

/// A scratch directory of this test process's own.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("charisma-tracetool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

#[test]
fn a_truncated_trace_fails_every_reading_command_without_a_panic() {
    let dir = scratch_dir();
    let whole = dir.join("whole.trace");
    let gen = tracetool(&["gen", "--scale", "0.01", "-o", path_str(&whole)]);
    assert!(gen.status.success(), "gen failed: {gen:?}");
    let bytes = std::fs::read(&whole).expect("read trace");
    assert!(bytes.len() > 5000, "the trace is longer than the cut");
    let cut = dir.join("cut.trace");
    std::fs::write(&cut, &bytes[..5000]).expect("write truncated trace");

    let csv_dir = dir.join("csv");
    let commands: [&[&str]; 4] = [
        &["info", path_str(&cut)],
        &["analyze", path_str(&cut)],
        &["csv", path_str(&cut), "-o", path_str(&csv_dir)],
        &["validate", path_str(&cut)],
    ];
    for args in commands {
        let out = tracetool(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // The reading commands name the error on stderr.
    for command in ["info", "analyze"] {
        let out = tracetool(&[command, path_str(&cut)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("trace file corrupt"), "{command}: {stderr}");
    }
    let missing = tracetool(&["analyze", path_str(&dir.join("missing.trace"))]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&missing.stderr).contains("panicked"));

    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
