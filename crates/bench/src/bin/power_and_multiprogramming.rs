//! Experiment E-power: the power-down and multiprogramming corollaries of PDF's
//! smaller working set.
//!
//! 1. *Cache power-down*: rerun merge sort under PDF and WS with 100 %, 50 % and
//!    25 % of the shared L2 powered on.  The paper's claim is that PDF's smaller
//!    working set lets segments be powered down "without increasing the running
//!    time" — so PDF's slowdown curve should stay much flatter than WS's, and the
//!    energy estimate (leakage ∝ powered capacity) should drop.
//! 2. *Multiprogramming*: rerun with a synthetic co-runner that periodically
//!    sweeps its own working set through the shared L2.  PDF's smaller working set
//!    is "more likely to remain in the cache across context switches", so its
//!    slowdown from the co-runner should be smaller.
//!
//! ```text
//! cargo run --release -p pdfws-bench --bin power_and_multiprogramming [-- --quick] [--threads N]
//! cargo run --release -p pdfws-bench --bin power_and_multiprogramming -- --workload spmv:rows=65536
//! ```
//!
//! `--workload <spec>` replaces the default merge sort (the first spec is
//! used; both parts study one program); `--list` prints the spec grammars.

use pdfws_bench::{emit_tables, emit_trace, outln, scaled, sizes, Cli};
use pdfws_cache_sim::power::{estimate_energy, EnergyModel};
use pdfws_cmp_model::{default_config, sweep::sweep_l2_fraction};
use pdfws_core::prelude::*;
use pdfws_metrics::{Series, Table};
use pdfws_workloads::MergeSort;

const CORES: usize = 8;

fn main() {
    let cli = Cli::parse(
        "power_and_multiprogramming",
        "PDF's smaller working set: L2 power-down slowdown/energy and co-runner (multiprogramming) slowdown",
        &[],
    );
    let n_keys = scaled(sizes::MERGESORT_KEYS, cli.quick);
    // Both parts study one program: instantiate only the first --workload
    // spec (or the default merge sort).
    let workload = match cli.workloads.first() {
        Some(spec) => WorkloadInstance::from_spec(spec),
        None => MergeSort::new(n_keys).into_instance(),
    };
    eprintln!("# workload: {}", workload.spec.canonical());
    let base_cfg = default_config(CORES).expect("8-core default configuration exists");

    // --- Part 1: powering down L2 segments -----------------------------------
    let fractions = [1.0, 0.5, 0.25];
    let configs = sweep_l2_fraction(&base_cfg, &fractions).expect("valid L2 fractions");
    let x: Vec<String> = fractions
        .iter()
        .map(|f| format!("{:.0}%", f * 100.0))
        .collect();
    let mut slowdown_table = Table::new(
        "Cache power-down: run time relative to the fully-powered L2 (8 cores, merge sort)",
        "powered_l2",
        x.clone(),
    );
    let mut energy_table = Table::new(
        "Cache power-down: estimated energy (mJ) at each powered fraction",
        "powered_l2",
        x,
    );

    // One experiment per powered fraction, both schedulers as sweep cells, and
    // the powered-fraction axis itself fanned out as runner cells — all
    // 5 configs × (baseline + 2 schedulers) simulations are independent, so
    // the whole part-1 table parallelizes (the DAG is built once up front and
    // shared by every cell).
    let threads = cli.threads;
    eprintln!("# power-down sweep on {threads} threads ...");
    let reports: Vec<ExperimentReport> = cli.runner().run_cells(configs.len(), |i| {
        cli.experiment(
            Experiment::new(workload.clone())
                .cores(CORES)
                .with_config(configs[i])
                .schedulers(&SchedulerSpec::paper_pair())
                .threads(1), // the outer run_cells already owns the worker pool
        )
        .run()
        .expect("experiment runs")
    });
    for spec in SchedulerSpec::paper_pair() {
        let mut cycles = Vec::new();
        let mut energies = Vec::new();
        for ((report, cfg), &fraction) in reports.iter().zip(&configs).zip(&fractions) {
            let run = report.find(CORES, &spec).unwrap();
            let energy = estimate_energy(
                &run.metrics.hierarchy,
                cfg,
                run.metrics.cycles,
                fraction,
                &EnergyModel::default(),
            );
            cycles.push(run.metrics.cycles as f64);
            energies.push(energy.total_mj());
        }
        let baseline = cycles[0];
        slowdown_table.push_series(Series::new(
            spec.canonical(),
            cycles.iter().map(|c| c / baseline).collect(),
        ));
        energy_table.push_series(Series::new(spec.canonical(), energies));
    }
    emit_tables(&cli, &[&slowdown_table, &energy_table]);

    // --- Part 2: multiprogramming (co-runner polluting the shared L2) --------
    let disturbance = Disturbance {
        period_cycles: 200_000,
        blocks_per_burst: 4_096,
        region_base_block: 1 << 34,
        region_blocks: 1 << 16,
    };
    let mut mp_table = Table::new(
        "Multiprogramming: slowdown when a co-runner periodically sweeps the shared L2 (8 cores)",
        "scenario",
        vec!["alone".to_string(), "with co-runner".to_string()],
    );
    // One experiment per scenario, both schedulers as cells of the same sweep.
    eprintln!("# multiprogramming sweep on {threads} threads ...");
    let alone = cli
        .experiment(
            Experiment::new(workload.clone())
                .cores(CORES)
                .schedulers(&SchedulerSpec::paper_pair())
                .threads(threads),
        )
        .run()
        .expect("experiment runs");
    let noisy = cli
        .experiment(
            Experiment::new(workload.clone())
                .cores(CORES)
                .schedulers(&SchedulerSpec::paper_pair())
                .options(SimOptions {
                    disturbance: Some(disturbance),
                    ..SimOptions::default()
                })
                .threads(threads),
        )
        .run()
        .expect("experiment runs");
    for spec in SchedulerSpec::paper_pair() {
        let alone_cycles = alone.find(CORES, &spec).unwrap().metrics.cycles as f64;
        let noisy_cycles = noisy.find(CORES, &spec).unwrap().metrics.cycles as f64;
        mp_table.push_series(Series::new(
            spec.canonical(),
            vec![1.0, noisy_cycles / alone_cycles],
        ));
    }
    emit_tables(&cli, &[&mp_table]);
    if cli.text_output() {
        outln!(
            "Expected shape: PDF's slowdown under reduced L2 and under the co-runner is smaller \
             than WS's, and powering down segments saves leakage energy."
        );
    }

    // --trace / --trace-summary: a PDF-vs-WS timeline of the studied workload
    // at the experiment's core count (the "alone" scenario).
    emit_trace(&cli, &workload, CORES, &SchedulerSpec::paper_pair());
}
