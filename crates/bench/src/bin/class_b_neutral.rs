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
//! The workloads and core axis are the `CLASS_B` setup of
//! `pdfws_report::experiments`, which claim C4 reads too.  `--workload
//! <spec>` (repeatable) replaces the default two-workload axis; `--list`
//! prints the spec grammars.

use pdfws_bench::{comparison_table, emit_tables, emit_trace, outln, sweep_reports, Cli};
use pdfws_report::experiments::CLASS_B;

fn main() {
    let cli = Cli::parse(
        "class_b_neutral",
        "Class B: limited-reuse and compute-bound programs where PDF and WS are expected to tie",
        &[],
    );
    let setup = CLASS_B.at(cli.quick);
    let (cores, specs) = (setup.cores, setup.specs());
    let workloads = cli.workloads_or(|| setup.instances());
    eprintln!(
        "# running {} workloads x {:?} cores on {} threads ...",
        workloads.len(),
        cores,
        cli.threads
    );
    let reports = sweep_reports(&cli, &workloads, cores, &specs);
    let table = comparison_table(
        "Class B: limited reuse / not bandwidth-bound (PDF vs WS, expected to tie)",
        &reports,
        cores,
    );
    emit_tables(&cli, &[&table]);

    // The first column is the relative speedup of every cell.
    let max_gap = table.series[0]
        .values
        .iter()
        .map(|rel| (rel - 1.0).abs())
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
        emit_trace(&cli, workload, setup.top_cores(), &specs);
    }
}
