//! The experiment binaries' command line: [`Cli::parse_from`] directly, and
//! the built binaries as processes.
//!
//! Every binary's `--help` text is pinned byte for byte under the workspace's
//! `tests/golden/help/` — regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p pdfws-bench --test cli` and review the diff.

use pdfws_bench::{Cli, CliError, OutputMode};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Every experiment binary with its path as Cargo built it for this test.
const BINS: &[(&str, &str)] = &[
    (
        "class_a_bandwidth_limited",
        env!("CARGO_BIN_EXE_class_a_bandwidth_limited"),
    ),
    ("class_b_neutral", env!("CARGO_BIN_EXE_class_b_neutral")),
    ("coarse_vs_fine", env!("CARGO_BIN_EXE_coarse_vs_fine")),
    ("fig1_mergesort", env!("CARGO_BIN_EXE_fig1_mergesort")),
    ("job_stream", env!("CARGO_BIN_EXE_job_stream")),
    (
        "power_and_multiprogramming",
        env!("CARGO_BIN_EXE_power_and_multiprogramming"),
    ),
    ("replicate", env!("CARGO_BIN_EXE_replicate")),
    ("serve", env!("CARGO_BIN_EXE_serve")),
    ("table_configs", env!("CARGO_BIN_EXE_table_configs")),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"))
}

fn golden_help(bin: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/help")
        .join(format!("{bin}.txt"))
}

#[test]
fn help_output_matches_the_golden_files() {
    for &(bin, exe) in BINS {
        let out = run(exe, &["--help"]);
        assert!(out.status.success(), "{bin} --help exited {}", out.status);
        let text = String::from_utf8(out.stdout).expect("help is UTF-8");
        let path = golden_help(bin);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &text).expect("write golden help");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert_eq!(
            text, golden,
            "{bin} --help changed (UPDATE_GOLDEN=1 to regenerate)"
        );
    }
}

/// Extra flags shaped like `replicate`'s: one single-valued, one repeatable,
/// one switch.
const EXTRA: &[(&str, &str)] = &[
    ("--out <dir>", "write artifacts under <dir>"),
    ("--claim <id>", "(repeatable) run only the named claims"),
    ("--list-claims", "print the claim ids, then exit"),
];

fn parse(args: &[&str]) -> Result<Cli, CliError> {
    Cli::parse_from(args.iter().copied(), EXTRA)
}

/// The message of an `Invalid` outcome (panics on anything else).
fn invalid(args: &[&str]) -> String {
    match parse(args) {
        Err(CliError::Invalid(message)) => message,
        other => panic!("{args:?} should be invalid, got {other:?}"),
    }
}

#[test]
fn parse_from_reads_every_uniform_and_extra_flag() {
    let cli = parse(&[
        "--quick",
        "--threads",
        "3",
        "--workload",
        "mergesort:n=4096",
        "--workload=spmv",
        "--memsys=legacy",
        "--csv",
        "--trace",
        "out.json",
        "--trace-summary",
        "--out",
        "dir",
        "--claim",
        "a",
        "--claim=b",
        "--list-claims",
    ])
    .expect("a well-formed line parses");
    assert!(cli.quick);
    assert_eq!(cli.threads, 3);
    let workloads: Vec<String> = cli.workloads.iter().map(|s| s.canonical()).collect();
    assert_eq!(workloads, ["mergesort:n=4096", "spmv"]);
    assert_eq!(
        cli.memsys.as_ref().map(|s| s.canonical()).as_deref(),
        Some("legacy")
    );
    assert_eq!(cli.output, OutputMode::Csv);
    assert_eq!(cli.trace.path, Some(PathBuf::from("out.json")));
    assert!(cli.trace.summary);
    assert_eq!(cli.value("--out"), Some("dir"));
    assert_eq!(cli.values("--claim"), ["a", "b"]);
    assert!(cli.has("--list-claims"));
    assert!(!cli.has("--json"));
}

#[test]
fn parse_from_defaults_without_flags() {
    let cli = parse(&[]).expect("an empty line parses");
    assert!(!cli.quick && cli.threads >= 1 && cli.workloads.is_empty());
    assert_eq!(cli.memsys, None);
    assert_eq!(cli.output, OutputMode::Text);
    assert!(!cli.trace.enabled());
    assert_eq!(cli.value("--out"), None);
    assert!(cli.values("--claim").is_empty());
}

#[test]
fn parse_from_rejects_malformed_lines() {
    for (args, needle) in [
        (&["--quik"][..], "unknown argument '--quik'"),
        (&["--quick", "stray"][..], "unknown argument 'stray'"),
        (&["--memsys"][..], "--memsys needs a value"),
        (&["--trace", "--quick"][..], "got the flag '--quick'"),
        (&["--trace=--quick"][..], "got the flag '--quick'"),
        (&["--quick=1"][..], "--quick takes no value"),
        (&["--csv", "--json"][..], "mutually exclusive"),
        (
            &["--threads", "abc"][..],
            "--threads needs a non-negative integer, got 'abc'",
        ),
        (&["--threads", "-2"][..], "got '-2'"),
        (
            &["--memsys", "legacy", "--memsys", "bus"][..],
            "--memsys given more than once",
        ),
        (
            &["--out", "a", "--out", "b"][..],
            "--out given more than once",
        ),
        (
            &["--workload", "nonsense:zzz=1"][..],
            "unknown workload 'nonsense'",
        ),
        (&["--memsys", "nope"][..], "nope"),
        (&["--cache", "exact"][..], "unknown argument '--cache'"),
    ] {
        let message = invalid(args);
        assert!(
            message.contains(needle),
            "{args:?}: '{message}' lacks '{needle}'"
        );
    }
}

#[test]
fn bin_specific_flags_belong_to_their_binary() {
    assert_eq!(
        parse(&["--out", "dir"]).unwrap().value("--out"),
        Some("dir")
    );
    for args in [
        &["--out", "dir"][..],
        &["--claim", "c1"][..],
        &["--no-shed"][..],
    ] {
        match Cli::parse_from(args.iter().copied(), &[]) {
            Err(CliError::Invalid(message)) => assert!(message.contains("unknown argument")),
            other => panic!("{args:?} accepted by a binary without the flag: {other:?}"),
        }
    }
}

#[test]
fn help_and_list_win_anywhere_on_the_line() {
    assert_eq!(parse(&["--quik", "--help"]).unwrap_err(), CliError::Help);
    assert_eq!(parse(&["--trace", "-h"]).unwrap_err(), CliError::Help);
    assert_eq!(parse(&["--list", "--help"]).unwrap_err(), CliError::Help);
    assert_eq!(
        parse(&["--csv", "--json", "--list"]).unwrap_err(),
        CliError::List
    );
    // A value that merely starts like one is not a request.
    assert_eq!(
        invalid(&["--list-claims=x"]),
        "--list-claims takes no value"
    );
}

fn exe(bin: &str) -> &'static str {
    BINS.iter()
        .find(|(name, _)| *name == bin)
        .map(|(_, exe)| *exe)
        .expect("known binary")
}

#[test]
fn malformed_command_lines_exit_2_with_a_message() {
    for (bin, args) in [
        ("table_configs", &["--quik"][..]),
        ("class_b_neutral", &["--trace", "--quick"][..]),
        ("serve", &["--workload", "nonsense:zzz=1", "--quick"][..]),
        ("serve", &["--threads", "abc", "--quick"][..]),
        // Well-formed flags the serving tier rejects as a configuration.
        ("serve", &["--jobs", "0"][..]),
        ("serve", &["--arrivals", "closed"][..]),
        // Flags of the removed cache-mode axis.
        ("fig1_mergesort", &["--cache", "exact", "--quick"][..]),
        ("replicate", &["--validate-cache", "--list-claims"][..]),
    ] {
        let out = run(exe(bin), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
    }
}

#[test]
fn a_flag_is_never_taken_as_a_trace_path() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-trace-probe");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create probe dir");
    let out = Command::new(exe("class_b_neutral"))
        .args(["--trace", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("run class_b_neutral");
    assert_eq!(out.status.code(), Some(2));
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read probe dir").collect();
    assert!(left.is_empty(), "files written: {left:?}");
}

#[test]
fn a_closed_stdout_pipe_ends_the_process_quietly() {
    for (bin, args) in [
        ("table_configs", &[][..]),
        ("fig1_mergesort", &["--list"][..]),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(exe(bin))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(out.status.success(), "{bin} {args:?} exited {}", out.status);
    }
}

#[test]
fn a_single_program_study_notes_the_workloads_it_ignores() {
    let exe = exe("power_and_multiprogramming");
    let one = run(exe, &["--quick", "--workload", "mergesort:n=4096"]);
    let two = run(
        exe,
        &[
            "--quick",
            "--workload",
            "mergesort:n=4096",
            "--workload",
            "spmv:rows=512",
        ],
    );
    assert!(one.status.success() && two.status.success());
    assert_eq!(one.stdout, two.stdout, "the second spec changed the study");
    let note = "note: both parts study one program; ignoring --workload spmv:rows=512\n";
    let (one_err, two_err) = (
        String::from_utf8_lossy(&one.stderr),
        String::from_utf8_lossy(&two.stderr),
    );
    assert!(!one_err.contains("ignoring"), "{one_err}");
    assert!(two_err.contains(note), "{two_err}");
}

#[test]
fn the_power_down_title_names_the_program_studied() {
    let out = run(
        exe("power_and_multiprogramming"),
        &["--quick", "--threads", "2", "--workload", "spmv:rows=512"],
    );
    assert!(out.status.success(), "exited {}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let title = stdout.lines().next().expect("a title line");
    assert_eq!(
        title,
        "# Cache power-down: run time relative to the fully-powered L2 (8 cores, spmv:rows=512)"
    );
}

/// Every file under `dir`, as (path relative to `dir`, contents), sorted.
fn files_under(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(at) = stack.pop() {
        for entry in std::fs::read_dir(&at).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let contents = std::fs::read(&path).expect("read file");
                files.push((path.strip_prefix(dir).unwrap().to_path_buf(), contents));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn replicate_traces_run_on_the_suites_memory_system() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("replicate-memsys-traces");
    let traces = |name: &str, extra: &[&str]| {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let mut args = vec!["--quick", "--threads", "2", "--out", dir.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = run(exe("replicate"), &args);
        assert!(
            out.status.success(),
            "replicate {args:?} exited {}",
            out.status
        );
        files_under(&dir.join("traces"))
    };
    let (default, legacy) = (
        traces("default", &[]),
        traces("legacy", &["--memsys", "legacy"]),
    );
    assert!(!default.is_empty(), "no traces written");
    let names =
        |files: &[(PathBuf, Vec<u8>)]| files.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    assert_eq!(names(&default), names(&legacy));
    // Every claim's traced cell runs on the model, so each timeline differs.
    for (d, l) in default.iter().zip(&legacy) {
        assert!(d.1 != l.1, "{} ignores --memsys", d.0.display());
    }
}
