//! Experiment E-classA: bandwidth-limited irregular and parallel
//! divide-and-conquer programs — the classes where the paper reports a 1.3–1.6×
//! relative speedup for PDF over WS and a 13–41 % reduction in off-chip traffic.
//!
//! ```text
//! cargo run --release -p pdfws-bench --bin class_a_bandwidth_limited [-- --quick] [--threads N]
//! cargo run --release -p pdfws-bench --bin class_a_bandwidth_limited -- --workload spmv:rows=65536
//! ```
//!
//! `--workload <spec>` (repeatable) replaces the default six-workload axis;
//! `--list` prints the spec grammars.

use pdfws_bench::{
    compare_pdf_ws_all, comparison_table, emit_tables, emit_trace, outln, scaled, sizes, Cli,
    ComparisonRow,
};
use pdfws_core::prelude::*;
use pdfws_workloads::{HashJoin, LuDecomposition, MatMul, MergeSort, QuickSort, SpMv};

fn main() {
    let cli = Cli::parse(
        "class_a_bandwidth_limited",
        "Class A: divide-and-conquer + bandwidth-limited irregular programs, PDF vs WS (the paper's 1.3-1.6x / 13-41% claims)",
        &[],
    );
    let cores = [8usize, 16, 32];

    let workloads = cli.workloads_or(|| {
        vec![
            MergeSort::new(scaled(sizes::MERGESORT_KEYS, cli.quick)).into_instance(),
            QuickSort::new(scaled(sizes::MERGESORT_KEYS, cli.quick)).into_instance(),
            MatMul::new(if cli.quick { 128 } else { sizes::MATRIX_N }).into_instance(),
            LuDecomposition::new(if cli.quick { 128 } else { sizes::MATRIX_N }).into_instance(),
            SpMv::new(scaled(sizes::SPMV_ROWS, cli.quick)).into_instance(),
            HashJoin::new(scaled(sizes::HASHJOIN_BUILD, cli.quick)).into_instance(),
        ]
    });
    eprintln!(
        "# running {} workloads x {:?} cores on {} threads ...",
        workloads.len(),
        cores,
        cli.threads
    );
    // One grid: all (workload x cores x scheduler) cells execute on the shared
    // worker pool, each workload's DAG built once.
    let rows: Vec<ComparisonRow> = compare_pdf_ws_all(&cli, &workloads, &cores);

    let table = comparison_table(
        "Class A: divide-and-conquer + bandwidth-limited irregular (PDF vs WS)",
        &rows,
    );
    emit_tables(&cli, &[&table]);

    // Summary against the paper's headline numbers (at 32 cores) — prose, so
    // text mode only (--csv/--json stdout stays machine-parseable).
    let at32: Vec<&ComparisonRow> = rows.iter().filter(|r| r.cores == 32).collect();
    if cli.text_output() && !at32.is_empty() {
        let speedups: Vec<f64> = at32.iter().map(|r| r.relative_speedup).collect();
        let reductions: Vec<f64> = at32.iter().map(|r| r.traffic_reduction_percent).collect();
        outln!(
            "At 32 cores: relative speedup (pdf/ws) range {:.2}-{:.2} (paper: 1.3-1.6), \
             off-chip traffic reduction range {:.0}%-{:.0}% (paper: 13-41%)",
            speedups.iter().cloned().fold(f64::INFINITY, f64::min),
            speedups.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            reductions.iter().cloned().fold(f64::INFINITY, f64::min),
            reductions.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        );
    }

    // --trace / --trace-summary: a PDF-vs-WS timeline of the first workload at
    // the headline core count.
    if let Some(workload) = workloads.first() {
        emit_trace(&cli, workload, 32, &SchedulerSpec::paper_pair());
    }
}
