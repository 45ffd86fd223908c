//! The six paper-experiment binaries' `--quick` text stdout, pinned byte for
//! byte under the workspace's `tests/golden/experiments/<bin>.quick.txt`.
//!
//! A refactor of how the experiments are set up must leave every table
//! unchanged.  Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p pdfws-bench --test experiments` and review
//! the diff.  The paper-scale stdout (`<bin>.paper.txt`) is too slow for a
//! debug test; CI diffs it from release builds.

use std::path::PathBuf;
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

fn golden(bin: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/experiments")
        .join(format!("{bin}.quick.txt"))
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
        let path = golden(bin);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &text).expect("write golden stdout");
            continue;
        }
        let pinned = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert_eq!(
            text, pinned,
            "{bin} --quick stdout changed (UPDATE_GOLDEN=1 to regenerate)"
        );
    }
}
