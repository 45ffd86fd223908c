//! Experiment E-coarse: coarse-grained (SMP-style) threading vs. fine-grained
//! threading under both schedulers.
//!
//! The paper: "most parallel benchmarks to date, written for SMPs, use such a
//! coarse-grained threading that they cannot exploit the constructive cache
//! behavior inherent in PDF.  We find that mechanisms to finely grain
//! multithreaded applications are crucial to achieving good performance on CMPs."
//!
//! By default this binary compares four variants at each core count — {fine,
//! coarse} merge sort and matmul under PDF, the `COARSE_VS_FINE` setup of
//! `pdfws_report::experiments` (claim C5 reads its merge sorts) — reporting
//! L2 MPKI and speedup.  `--workload <spec>` (repeatable) replaces the
//! variant list with any registered specs (series are labelled by canonical
//! spec string); `--list` prints the spec grammars.
//!
//! ```text
//! cargo run --release -p pdfws-bench --bin coarse_vs_fine [-- --quick] [--threads N]
//! cargo run --release -p pdfws-bench --bin coarse_vs_fine -- \
//!     --workload mergesort:n=65536 --workload mergesort:coarse=8,n=65536
//! ```

use pdfws_bench::{emit_tables, emit_trace, outln, sweep_reports, Cli};
use pdfws_metrics::{Series, Table};
use pdfws_report::experiments::COARSE_VS_FINE;

fn main() {
    let cli = Cli::parse(
        "coarse_vs_fine",
        "Coarse-grained (SMP-style) vs fine-grained threading under PDF: L2 MPKI and speedup",
        &[],
    );
    let setup = COARSE_VS_FINE.at(cli.quick);
    let (cores, specs) = (setup.cores, setup.specs());
    let x: Vec<String> = cores.iter().map(|c| c.to_string()).collect();
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

    let variants = cli.workloads_or(|| setup.instances());
    eprintln!(
        "# running {} variants x {:?} cores on {} threads ...",
        variants.len(),
        cores,
        cli.threads
    );
    for report in sweep_reports(&cli, &variants, cores, &specs) {
        let runs: Vec<_> = cores
            .iter()
            .map(|&c| report.find(c, &specs[0]).expect("cell simulated"))
            .collect();
        let mpki = runs.iter().map(|run| run.metrics.l2_mpki()).collect();
        let speedup = runs.iter().map(|run| report.speedup(run)).collect();
        mpki_table.push_series(Series::new(report.workload.clone(), mpki));
        speedup_table.push_series(Series::new(report.workload.clone(), speedup));
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
        emit_trace(&cli, variant, setup.top_cores(), &specs);
    }
}
