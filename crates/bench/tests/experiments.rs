//! The six paper-experiment binaries' `--quick` text stdout, pinned byte for
//! byte under the workspace's `tests/golden/experiments/<bin>.quick.txt`.
//!
//! A refactor of how the experiments are set up must leave every table
//! unchanged.  Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p pdfws-bench --test experiments` and review
//! the diff.  The paper-scale stdout (`<bin>.paper.txt`) is too slow for a
//! debug test; CI diffs it from release builds.
//!
//! The job-stream binary is pinned the same way: its `--quick` table under
//! `tests/golden/job_stream_quick.txt` and its `--quick --json` per-job
//! records under `tests/golden/job_stream_quick.jsonl`, which fix both the
//! record writer's bytes and the order jobs were admitted in.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The binaries that render the experiments behind claims C1–C6.
const BINS: &[(&str, &str)] = &[
    (
        "class_a_bandwidth_limited",
        env!("CARGO_BIN_EXE_class_a_bandwidth_limited"),
    ),
    ("class_b_neutral", env!("CARGO_BIN_EXE_class_b_neutral")),
    ("coarse_vs_fine", env!("CARGO_BIN_EXE_coarse_vs_fine")),
    ("fig1_mergesort", env!("CARGO_BIN_EXE_fig1_mergesort")),
    (
        "power_and_multiprogramming",
        env!("CARGO_BIN_EXE_power_and_multiprogramming"),
    ),
    ("table_configs", env!("CARGO_BIN_EXE_table_configs")),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn golden(bin: &str) -> PathBuf {
    golden_dir()
        .join("experiments")
        .join(format!("{bin}.quick.txt"))
}

/// Compare `text` with the golden file at `path`, or rewrite the file under
/// `UPDATE_GOLDEN=1`.
fn check_golden(what: &str, text: &str, path: &Path) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, text).expect("write golden stdout");
        return;
    }
    let pinned = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        text, pinned,
        "{what} stdout changed (UPDATE_GOLDEN=1 to regenerate)"
    );
}

#[test]
fn quick_stdout_matches_the_golden_files() {
    // Start every binary first, then collect: the runs are independent.
    let children: Vec<_> = BINS
        .iter()
        .map(|&(bin, exe)| {
            let child = Command::new(exe)
                .args(["--quick", "--threads", "2"])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
            (bin, child)
        })
        .collect();
    for (bin, child) in children {
        let out = child.wait_with_output().expect("binary runs");
        assert!(out.status.success(), "{bin} --quick exited {}", out.status);
        let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        check_golden(&format!("{bin} --quick"), &text, &golden(bin));
    }
}

#[test]
fn job_stream_quick_table_and_records_match_the_golden_files() {
    let exe = env!("CARGO_BIN_EXE_job_stream");
    let runs = [
        (&["--quick", "--threads", "2"][..], "job_stream_quick.txt"),
        (
            &["--quick", "--threads", "2", "--json"][..],
            "job_stream_quick.jsonl",
        ),
    ];
    let children: Vec<_> = runs
        .iter()
        .map(|&(args, file)| {
            let child = Command::new(exe)
                .args(args)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| panic!("cannot run job_stream: {e}"));
            (args, file, child)
        })
        .collect();
    for (args, file, child) in children {
        let out = child.wait_with_output().expect("job_stream runs");
        let what = format!("job_stream {}", args.join(" "));
        assert!(out.status.success(), "{what} exited {}", out.status);
        let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        check_golden(&what, &text, &golden_dir().join(file));
    }
}
