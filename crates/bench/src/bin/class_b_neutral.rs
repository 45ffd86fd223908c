//! Experiment E-classB: application classes where PDF and WS perform about the
//! same — programs with limited exploitable data reuse (parallel scan/map) and
//! programs that are not limited by off-chip bandwidth (compute-bound kernel).
//! PDF's constructive sharing still shrinks the working set (relevant for the
//! power / multiprogramming findings) but does not change the running time much.
//!
//! ```text
//! cargo run --release -p pdfws-bench --bin class_b_neutral [-- --quick] [--threads N]
//! cargo run --release -p pdfws-bench --bin class_b_neutral -- --workload scan:n=1048576
//! ```
//!
//! `--workload <spec>` (repeatable) replaces the default two-workload axis;
//! `--list` prints the spec grammars.

use pdfws_bench::{
    compare_pdf_ws_all, comparison_table, emit_tables, emit_trace, outln, scaled, sizes, Cli,
    ComparisonRow,
};
use pdfws_core::prelude::*;
use pdfws_workloads::{ComputeKernel, ParallelScan};

fn main() {
    let cli = Cli::parse(
        "class_b_neutral",
        "Class B: limited-reuse and compute-bound programs where PDF and WS are expected to tie",
        &[],
    );
    let cores = [8usize, 16, 32];

    let workloads = cli.workloads_or(|| {
        vec![
            ParallelScan::new(scaled(sizes::SCAN_N, cli.quick)).into_instance(),
            ComputeKernel::new(scaled(sizes::COMPUTE_ITEMS, cli.quick)).into_instance(),
        ]
    });
    eprintln!(
        "# running {} workloads x {:?} cores on {} threads ...",
        workloads.len(),
        cores,
        cli.threads
    );
    let rows: Vec<ComparisonRow> = compare_pdf_ws_all(&cli, &workloads, &cores);

    let table = comparison_table(
        "Class B: limited reuse / not bandwidth-bound (PDF vs WS, expected to tie)",
        &rows,
    );
    emit_tables(&cli, &[&table]);

    let max_gap = rows
        .iter()
        .map(|r| (r.relative_speedup - 1.0).abs())
        .fold(0.0f64, f64::max);
    if cli.text_output() {
        outln!(
            "Largest |relative speedup - 1| across class-B cells: {:.3} (paper: roughly the same execution times)",
            max_gap
        );
    }

    // --trace / --trace-summary: a PDF-vs-WS timeline of the first workload at
    // the headline core count.
    if let Some(workload) = workloads.first() {
        emit_trace(&cli, workload, 32, &SchedulerSpec::paper_pair());
    }
}
