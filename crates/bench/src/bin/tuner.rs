//! Experiment E-tuner: search the scheduler-zoo spec grid (PDF variants, the
//! parameterized and priced WS variants, hierarchical stealing, the fixed and
//! adaptive hybrids) over a set of workloads and report, per workload, which
//! specs sit on the Pareto front of (makespan, L2 MPKI, migrations).
//!
//! ```text
//! cargo run --release -p pdfws-bench --bin tuner [-- --quick] [--threads N]
//! cargo run --release -p pdfws-bench --bin tuner -- --quick --out target/tuner
//! cargo run --release -p pdfws-bench --bin tuner -- --workload spmv:rows=8192
//! ```
//!
//! With `--out <dir>` the binary also writes `pareto.csv` (the row-per-cell
//! artifact pinned by `tests/tuner_pareto.rs` and CI) plus the per-workload
//! figure CSV/markdown pairs under `<dir>/figures/`.

use pdfws_bench::tuner::{
    pareto_csv, quick_workloads, rows_from_reports, tuner_figures, tuner_specs, TUNER_CORES,
};
use pdfws_bench::{emit_figures, emit_trace, outln, sweep_reports, Cli};
use pdfws_core::prelude::*;
use std::path::PathBuf;

fn main() {
    let cli = Cli::parse(
        "tuner",
        "Search the scheduler-spec grid and emit the per-workload Pareto front over (makespan, L2 MPKI, migrations)",
        &[(
            "--out <dir>",
            "write pareto.csv plus per-workload figure artifacts under <dir>",
        )],
    );
    let out_dir = cli.value("--out").map(PathBuf::from);

    let workloads = cli.workloads_or(|| {
        if cli.quick {
            quick_workloads()
        } else {
            vec![
                MergeSort::new(1 << 20).into_instance(),
                SpMv::new(1 << 17).into_instance(),
                ParallelScan::new(1 << 21).into_instance(),
            ]
        }
    });
    let specs = tuner_specs();
    eprintln!(
        "# tuning {} workloads x {} specs @ {TUNER_CORES} cores on {} threads ...",
        workloads.len(),
        specs.len(),
        cli.threads
    );
    let reports = sweep_reports(&cli, &workloads, &[TUNER_CORES], &specs);
    let rows = rows_from_reports(&reports, TUNER_CORES, &specs);
    let figures = tuner_figures(&rows);
    emit_figures(&cli, &figures);

    if cli.text_output() {
        for figure in &figures {
            let winners: Vec<&str> = rows
                .iter()
                .filter(|r| {
                    r.pareto
                        && figure.id == pdfws_report::slug(&format!("tuner-pareto-{}", r.workload))
                })
                .map(|r| r.scheduler.as_str())
                .collect();
            outln!("{}: Pareto front = {}", figure.caption, winners.join(", "));
        }
    }

    if let Some(dir) = out_dir {
        let mut artifacts = pdfws_report::ArtifactSet::new();
        artifacts.push("pareto.csv", pareto_csv(&rows));
        for figure in &figures {
            artifacts.push_figure("figures", figure);
        }
        match artifacts.write_to(&dir) {
            Ok(paths) => eprintln!(
                "# wrote {} artifact(s) under {}",
                paths.len(),
                dir.display()
            ),
            Err(e) => {
                eprintln!("error: writing artifacts under {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }

    // --trace / --trace-summary: a timeline of the full zoo on the first
    // workload.
    if let Some(workload) = workloads.first() {
        emit_trace(&cli, workload, TUNER_CORES, &specs);
    }
}
