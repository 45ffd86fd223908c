//! Experiment F1: Figure 1 — parallel merge sort under PDF vs. WS on the default
//! configurations, 1–32 cores.
//!
//! Left panel: L2 misses per 1000 instructions.  Right panel: speedup over the
//! one-core sequential run.
//!
//! ```text
//! cargo run --release -p pdfws-bench --bin fig1_mergesort              # paper-scale
//! cargo run --release -p pdfws-bench --bin fig1_mergesort -- --quick   # smoke test
//! cargo run --release -p pdfws-bench --bin fig1_mergesort -- --threads 4
//! cargo run --release -p pdfws-bench --bin fig1_mergesort -- --workload mergesort:n=4096
//! cargo run --release -p pdfws-bench --bin fig1_mergesort -- --csv     # CSV blocks
//! cargo run --release -p pdfws-bench --bin fig1_mergesort -- --json    # JSONL rows
//! cargo run --release -p pdfws-bench --bin fig1_mergesort -- --list    # spec grammars
//! ```
//!
//! `--workload <spec>` (repeatable) replaces the default merge sort with any
//! registered workload spec, so the same harness draws Figure-1-shaped panels
//! for arbitrary programs.

use pdfws_bench::{
    emit_tables, emit_trace, figure1_tables_from, paper_core_counts, scaled, sizes, sweep_reports,
    Cli,
};
use pdfws_core::prelude::*;
use pdfws_workloads::MergeSort;

fn main() {
    let cli = Cli::parse(
        "fig1_mergesort",
        "Figure 1: merge sort L2 MPKI + speedup under PDF vs WS (plus the per-spec work-migration table), 1-32 cores",
        &[],
    );
    let n_keys = scaled(sizes::MERGESORT_KEYS, cli.quick);
    let workloads = cli.workloads_or(|| vec![MergeSort::new(n_keys).into_instance()]);
    let specs: Vec<SchedulerSpec> = ["pdf", "ws", "ws:steal=half", "hybrid", "static"]
        .iter()
        .map(|s| s.parse().expect("built-in specs parse"))
        .collect();
    let cores = paper_core_counts();
    for workload in &workloads {
        eprintln!(
            "# {}: {:.1} MiB of data{}, {} sweep threads",
            workload.spec.canonical(),
            workload.data_bytes as f64 / (1024.0 * 1024.0),
            if cli.quick { " [quick mode]" } else { "" },
            cli.threads
        );
    }
    // One grid feeds both the Figure-1 panels (pdf/ws) and the per-spec
    // migrations table for every requested workload — no cell is simulated
    // twice, each DAG is built once, and all (workload × cores × spec) cells
    // execute on the shared worker pool.
    let reports = sweep_reports(&cli, &workloads, &cores, &specs);
    for report in &reports {
        let (mpki, speedup) = figure1_tables_from(report, &cores);
        // Work migrations per scheduler spec (steal events / cross-core
        // placements), including two parameterized variants of the same policy.
        let migrations = report.migrations_table(&cores, &specs);
        emit_tables(&cli, &[&mpki, &speedup, &migrations]);
    }
    // --trace / --trace-summary: one representative timeline per spec at the
    // largest swept core count.
    for workload in &workloads {
        emit_trace(
            &cli,
            workload,
            *cores.last().expect("core axis nonempty"),
            &specs,
        );
    }
}
