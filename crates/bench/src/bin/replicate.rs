//! The one-command replication pipeline: run every paper claim end to end and
//! emit durable artifacts.
//!
//! ```text
//! cargo run --release -p pdfws-bench --bin replicate -- --quick --out target/replication
//! cargo run --release -p pdfws-bench --bin replicate -- --claim c1-fig1-mpki
//! cargo run --release -p pdfws-bench --bin replicate -- --list-claims
//! ```
//!
//! Runs the [`ReplicationSuite::paper`] suite (`--quick` for CI problem
//! sizes, paper-scale otherwise) and prints the claim ↔ result matrix.  With
//! `--out <dir>` it also writes the artifact tree:
//!
//! ```text
//! <dir>/REPLICATION.md      the generated paper-claim ↔ result matrix
//! <dir>/claim_status.csv    claim,status — the column CI diffs
//! <dir>/claims.jsonl        one JSON object per claim (observed numbers, specs)
//! <dir>/claims/<id>/*.{csv,jsonl,md}   each claim's figures (plus raw records)
//! ```
//!
//! Exits non-zero iff any claim evaluates to `Deviation`, so CI (and any
//!"fast path" PR) trips the moment a paper-shaped result flips.

use pdfws_bench::{outln, Cli};
use pdfws_report::{cache_mode_validation_figure, ClaimStatus, ReplicationSuite, SuiteConfig};
use std::path::{Component, Path, PathBuf};

fn main() {
    let cli = Cli::parse(
        "replicate",
        "Run the paper-claim replication suite and emit REPLICATION.md + per-claim artifacts",
        &[
            ("--out <dir>", "write REPLICATION.md, claim_status.csv, claims.jsonl and per-claim artifacts under <dir>"),
            ("--claim <id>", "(repeatable) run only the named claims"),
            ("--list-claims", "print the suite's claim ids and titles, then exit"),
            ("--validate-cache", "also emit the sampled-vs-exact cache-mode validation figure under <out>/validation/ (runs the Figure-1 sweep in every cache mode)"),
        ],
    );
    let quick = cli.quick;
    let threads = cli.threads;
    let out_dir = cli.value("--out").map(PathBuf::from);
    // The claims pin their own spec strings; --workload is validated (a typo
    // must still abort with the registry's message) and then ignored.
    cli.ignore_workloads("the replication claims pin their own workload specs");

    let mut suite = ReplicationSuite::paper();
    if cli.has("--list-claims") {
        for claim in suite.claims() {
            outln!("{:<24}  {}", claim.id, claim.title);
        }
        return;
    }
    let claim_filter = cli.values("--claim");
    if !claim_filter.is_empty() {
        let unknown = suite.retain_ids(claim_filter);
        if !unknown.is_empty() {
            eprintln!(
                "error: unknown claim id(s) {} (try --list-claims)",
                unknown.join(", ")
            );
            std::process::exit(2);
        }
    }

    let cache = cli.cache.clone();
    eprintln!(
        "# replicating {} claim(s), {} mode, cache={}, {} sweep threads",
        suite.claims().len(),
        if quick { "quick" } else { "paper-scale" },
        cache,
        threads,
    );
    // `--cache analytic` re-prices every claim from per-task reuse-distance
    // profiles — the CI-cheap way to regression-check the matrix at paper
    // scale.
    let mut cfg = SuiteConfig::new(quick).threads(threads).cache(cache);
    if let Some(spec) = cli.memsys.clone() {
        // The whole suite re-runs under the selected model (e.g. `--memsys
        // legacy` compares the claims against the pre-memsys formula).
        cfg = cfg.memsys(spec);
    }
    let mut report = suite
        .run(cfg, |claim| eprintln!("# running {} ...", claim.id))
        .unwrap_or_else(|e| {
            eprintln!("error: replication suite failed: {e}");
            std::process::exit(2);
        });
    if out_dir.is_some() {
        // One summarized timeline figure per claim, written under traces/<id>/
        // and linked from the generated REPLICATION.md.
        eprintln!("# attaching per-claim execution timelines ...");
        report.attach_traces();
    }

    // The claim ↔ result matrix, with observed numbers, always goes to the
    // log so a CI failure is diagnosable from stdout alone.
    for r in &report.results {
        outln!(
            "{:<28} {:>10}   {} = {:.6}, {} = {:.6}   ({})",
            r.id,
            r.status.to_string(),
            r.expectation.lhs,
            r.observation.lhs,
            r.expectation.rhs,
            r.observation.rhs,
            r.expectation,
        );
    }

    // `--validate-cache`: price the Figure-1 sweep in every cache mode and
    // render the side-by-side MPKI figure (the human-readable companion of
    // the tolerance contract in tests/cache_modes.rs).
    let validation = if cli.has("--validate-cache") {
        eprintln!("# building the cache-mode validation figure ...");
        match cache_mode_validation_figure(quick, threads) {
            Ok(figure) => Some(figure),
            Err(e) => {
                eprintln!("error: cache-mode validation sweep failed: {e}");
                std::process::exit(2);
            }
        }
    } else {
        None
    };

    if let Some(dir) = out_dir {
        let mut artifacts = report.artifacts_in(&paper_path_from(&dir));
        if let Some(figure) = &validation {
            artifacts.push_figure("validation", figure);
        }
        match artifacts.write_to(&dir) {
            Ok(written) => eprintln!(
                "# wrote {} artifact(s) under {}",
                written.len(),
                dir.display()
            ),
            Err(e) => {
                eprintln!("error: writing artifacts under {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    } else if let Some(figure) = &validation {
        // No artifact directory: the figure still reaches the log.
        outln!("\n{}", figure.to_markdown());
    }

    let deviations = report
        .results
        .iter()
        .filter(|r| r.status == ClaimStatus::Deviation)
        .count();
    if deviations > 0 {
        eprintln!("# {deviations} claim(s) DEVIATE from the paper expectation");
        std::process::exit(1);
    }
    eprintln!("# all claims confirmed");
}

/// The path under which the generated `REPLICATION.md` (living inside
/// `out_dir`) can reach the repository's `PAPER.md`, so its anchor links
/// resolve from where the artifact is actually opened.  For a plain relative
/// `out_dir` (the normal `--out target/replication`) that is one `../` per
/// directory component; for absolute or `..`-containing paths, fall back to
/// the absolute path of `PAPER.md` in the invocation directory.
fn paper_path_from(out_dir: &Path) -> String {
    let plain_relative = out_dir.is_relative()
        && out_dir
            .components()
            .all(|c| matches!(c, Component::Normal(_) | Component::CurDir));
    if plain_relative {
        let depth = out_dir
            .components()
            .filter(|c| matches!(c, Component::Normal(_)))
            .count();
        return format!("{}PAPER.md", "../".repeat(depth));
    }
    match std::env::current_dir() {
        Ok(cwd) => cwd.join("PAPER.md").display().to_string(),
        Err(_) => "PAPER.md".to_string(),
    }
}
