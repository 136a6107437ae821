//! `report` argument handling: CLI misuse is a typed error with exit code
//! 2, never a stray file named after a misspelt flag's value.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn empty_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create working dir");
    dir
}

/// Runs `report` in `dir` and asserts it refused with code 2, naming
/// `culprit`, without writing anything there.
fn assert_refused(dir: &Path, args: &[&str], culprit: &str) {
    let out: Output = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "report {args:?}: {stderr}");
    assert!(stderr.contains(culprit), "report {args:?}: {stderr}");
    let written: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list working dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert!(written.is_empty(), "report {args:?} wrote {written:?}");
}

#[test]
fn unknown_flag_exits_2_and_writes_nothing() {
    let dir = empty_dir("report_cli_unknown_flag");
    assert_refused(&dir, &["--seed", "42"], "--seed");
}

#[test]
fn second_positional_argument_exits_2_and_writes_nothing() {
    let dir = empty_dir("report_cli_second_positional");
    assert_refused(&dir, &["a.md", "b.md"], "b.md");
}

#[test]
fn unknown_format_exits_2_before_any_side_mode_writes() {
    let dir = empty_dir("report_cli_format_with_side_mode");
    assert_refused(
        &dir,
        &[
            "--format",
            "bogus",
            "--trace-gen",
            "3",
            "--trace-jobs",
            "5",
            "--trace-path",
            "t.jsonl",
        ],
        "bogus",
    );
}

#[test]
fn unknown_format_alone_exits_2() {
    let dir = empty_dir("report_cli_format_alone");
    assert_refused(&dir, &["--format", "bogus"], "bogus");
}

/// `report --watch 25` prints the monitor's per-tick lines (rates, stall
/// shares, alerts). They are pinned byte for byte against a golden, so a
/// change that moves any printed number fails here rather than passing a
/// run-twice diff. Regenerate after an intentional change with
/// `MUX_BLESS=1 cargo test -p mux-bench --test report_cli`.
#[test]
fn watch_output_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--watch", "25"])
        .output()
        .expect("run report");
    assert!(
        out.status.success(),
        "report --watch 25: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = String::from_utf8(out.stdout).expect("utf-8 output");
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/report_watch25.txt");
    if std::env::var_os("MUX_BLESS").is_some() {
        std::fs::write(&golden, &body).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", golden.display()));
    assert_eq!(
        body, want,
        "report --watch 25 drifted from its golden (MUX_BLESS=1 to accept)"
    );
}

/// `report --replay` of a journal line nested 50 000 arrays deep: the
/// reader stops at its nesting limit, so the run exits 1 naming the
/// corrupt journal instead of overflowing its stack and dying from a
/// signal.
#[test]
fn replay_of_a_deeply_nested_journal_exits_1_with_a_typed_error() {
    let dir = empty_dir("report_cli_deep_journal");
    let depth = 50_000;
    let line = format!(
        "{{\"seq\":0,\"tick\":0,\"now\":0.0,\"event\":\"x\",\"p\":{}{}}}\n",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    std::fs::write(dir.join("deep.jsonl"), line).expect("write journal");
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--replay", "deep.jsonl"])
        .current_dir(&dir)
        .output()
        .expect("run report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "killed by a signal? {stderr}");
    assert!(
        stderr.contains("deep.jsonl: corrupt journal: line 1: invalid JSON")
            && stderr.contains("recursion limit exceeded"),
        "{stderr}"
    );
}
