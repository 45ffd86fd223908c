//! Experiment E-coarse: coarse-grained (SMP-style) threading vs. fine-grained
//! threading under both schedulers.
//!
//! The paper: "most parallel benchmarks to date, written for SMPs, use such a
//! coarse-grained threading that they cannot exploit the constructive cache
//! behavior inherent in PDF.  We find that mechanisms to finely grain
//! multithreaded applications are crucial to achieving good performance on CMPs."
//!
//! By default this binary compares four variants at each core count — {fine,
//! coarse} merge sort and matmul under PDF, i.e. the workload specs
//! `mergesort:n=…`, `mergesort:coarse=32,n=…`, `matmul:n=…`,
//! `matmul:coarse=32,n=…` — reporting L2 MPKI and speedup.  `--workload
//! <spec>` (repeatable) replaces the variant list with any registered specs
//! (series are labelled by canonical spec string); `--list` prints the spec
//! grammars.
//!
//! ```text
//! cargo run --release -p pdfws-bench --bin coarse_vs_fine [-- --quick] [--threads N]
//! cargo run --release -p pdfws-bench --bin coarse_vs_fine -- \
//!     --workload mergesort:n=65536 --workload mergesort:coarse=8,n=65536
//! ```

use pdfws_bench::{emit_tables, emit_trace, outln, scaled, sizes, Cli};
use pdfws_core::prelude::*;
use pdfws_metrics::{Series, Table};
use pdfws_workloads::{MatMul, MergeSort};

fn main() {
    let cli = Cli::parse(
        "coarse_vs_fine",
        "Coarse-grained (SMP-style) vs fine-grained threading under PDF: L2 MPKI and speedup",
        &[],
    );
    let cores = [8usize, 16, 32];
    let x: Vec<String> = cores.iter().map(|c| c.to_string()).collect();

    let n_keys = scaled(sizes::MERGESORT_KEYS, cli.quick);
    let n = if cli.quick { 128 } else { sizes::MATRIX_N };

    let mut mpki_table = Table::new(
        "Coarse vs fine-grained threading under PDF: L2 misses per 1000 instructions",
        "cores",
        x.clone(),
    );
    let mut speedup_table = Table::new(
        "Coarse vs fine-grained threading under PDF: speedup over sequential",
        "cores",
        x,
    );

    let variants = cli.workloads_or(|| {
        vec![
            MergeSort::new(n_keys).into_instance(),
            MergeSort::new(n_keys).coarse_grained(32).into_instance(),
            MatMul::new(n).into_instance(),
            MatMul::new(n).coarse_grained(32).into_instance(),
        ]
    });

    // All variants go into one grid so every (variant x cores) cell runs on
    // the shared worker pool.
    eprintln!(
        "# running {} variants x {:?} cores on {} threads ...",
        variants.len(),
        cores,
        cli.threads
    );
    let grid = cli.grid(
        SweepGrid::new()
            .workloads(&variants)
            .cores(&cores)
            .specs(&[SchedulerSpec::pdf()]),
    );
    let reports = cli
        .runner()
        .run(&grid)
        .expect("default configurations exist")
        .into_reports();

    for (variant, report) in variants.iter().zip(&reports) {
        let mpki: Vec<f64> = cores
            .iter()
            .map(|&c| {
                report
                    .find(c, &SchedulerSpec::pdf())
                    .unwrap()
                    .metrics
                    .l2_mpki()
            })
            .collect();
        let speedup: Vec<f64> = cores
            .iter()
            .map(|&c| report.speedup(report.find(c, &SchedulerSpec::pdf()).unwrap()))
            .collect();
        mpki_table.push_series(Series::new(variant.spec.canonical(), mpki));
        speedup_table.push_series(Series::new(variant.spec.canonical(), speedup));
    }

    emit_tables(&cli, &[&mpki_table, &speedup_table]);
    if cli.text_output() {
        outln!(
            "Expected shape: the fine-grained variants scale and keep MPKI low; the coarse \
             variants lose both the load balance and the constructive-sharing benefit."
        );
    }

    // --trace / --trace-summary: one timeline per variant under PDF at the
    // largest swept core count, so the coarse/fine contrast is visible as
    // per-core slice density in Perfetto.
    for variant in &variants {
        emit_trace(
            &cli,
            variant,
            *cores.last().expect("core axis nonempty"),
            &[SchedulerSpec::pdf()],
        );
    }
}
