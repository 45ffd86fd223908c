//! Experiment E-classA: bandwidth-limited irregular and parallel
//! divide-and-conquer programs — the classes where the paper reports a 1.3–1.6×
//! relative speedup for PDF over WS and a 13–41 % reduction in off-chip traffic.
//!
//! ```text
//! cargo run --release -p pdfws-bench --bin class_a_bandwidth_limited [-- --quick] [--threads N]
//! cargo run --release -p pdfws-bench --bin class_a_bandwidth_limited -- --workload spmv:rows=65536
//! ```
//!
//! The workloads and core axis are the `CLASS_A` setup of
//! `pdfws_report::experiments`; claim C3 reads its SpMV.  `--workload <spec>`
//! (repeatable) replaces the default six-workload axis; `--list` prints the
//! spec grammars.

use pdfws_bench::{comparison_table, emit_tables, emit_trace, outln, sweep_reports, Cli};
use pdfws_core::ExperimentReport;
use pdfws_report::experiments::CLASS_A;

fn main() {
    let cli = Cli::parse(
        "class_a_bandwidth_limited",
        "Class A: divide-and-conquer + bandwidth-limited irregular programs, PDF vs WS (the paper's 1.3-1.6x / 13-41% claims)",
        &[],
    );
    let setup = CLASS_A.at(cli.quick);
    let (cores, top, specs) = (setup.cores, setup.top_cores(), setup.specs());
    let workloads = cli.workloads_or(|| setup.instances());
    eprintln!(
        "# running {} workloads x {:?} cores on {} threads ...",
        workloads.len(),
        cores,
        cli.threads
    );
    // One grid: all (workload x cores x scheduler) cells execute on the shared
    // worker pool, each workload's DAG built once.
    let reports = sweep_reports(&cli, &workloads, cores, &specs);
    let table = comparison_table(
        "Class A: divide-and-conquer + bandwidth-limited irregular (PDF vs WS)",
        &reports,
        cores,
    );
    emit_tables(&cli, &[&table]);

    // Summary against the paper's headline numbers (at the top core count) —
    // prose, so text mode only (--csv/--json stdout stays machine-parseable).
    if cli.text_output() {
        let range = |f: fn(&ExperimentReport, usize) -> Option<f64>| {
            let (lo, hi) = (f64::INFINITY, f64::NEG_INFINITY);
            let values = reports.iter().map(|r| f(r, top).unwrap());
            values.fold((lo, hi), |(lo, hi), v| (lo.min(v), hi.max(v)))
        };
        let (speedup_lo, speedup_hi) = range(ExperimentReport::pdf_over_ws_speedup);
        let (traffic_lo, traffic_hi) = range(ExperimentReport::pdf_traffic_reduction_percent);
        outln!(
            "At {top} cores: relative speedup (pdf/ws) range {speedup_lo:.2}-{speedup_hi:.2} \
             (paper: 1.3-1.6), off-chip traffic reduction range {traffic_lo:.0}%-{traffic_hi:.0}% \
             (paper: 13-41%)"
        );
    }

    // --trace / --trace-summary: a PDF-vs-WS timeline of the first workload at
    // the headline core count.
    if let Some(workload) = workloads.first() {
        emit_trace(&cli, workload, top, &specs);
    }
}
