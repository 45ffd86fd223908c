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
//! The workload, core count, scheduler pair and powered-L2 fractions are the
//! `POWER` setup of `pdfws_report::experiments`; claim C6 reads its first and
//! last fraction.  `--workload <spec>` replaces the default merge sort (both
//! parts study one program, so only the first spec is used and the others
//! are noted on stderr as ignored); `--list` prints the spec grammars.

use pdfws_bench::{emit_tables, emit_trace, outln, Cli};
use pdfws_cache_sim::power::{estimate_energy, EnergyModel};
use pdfws_cmp_model::{default_config, sweep::sweep_l2_fraction};
use pdfws_core::prelude::*;
use pdfws_metrics::{Series, Table};
use pdfws_report::experiments::POWER;

fn main() {
    let cli = Cli::parse(
        "power_and_multiprogramming",
        "PDF's smaller working set: L2 power-down slowdown/energy and co-runner (multiprogramming) slowdown",
        &[],
    );
    let setup = POWER.at(cli.quick);
    let (cores, fractions, specs) = (setup.top_cores(), setup.l2_fractions, setup.specs());
    // Both parts study one program: instantiate only the first --workload
    // spec (or the default merge sort).
    cli.ignore_workloads(1, "both parts study one program");
    let workload = match cli.workloads.first() {
        Some(spec) => WorkloadInstance::from_spec(spec),
        None => setup.instances().remove(0),
    };
    eprintln!("# workload: {}", workload.spec.canonical());
    // Every grid of both parts sweeps this one workload at the top core count
    // under the setup's schedulers (plus `--memsys`), yielding one report.
    let grid = || {
        cli.grid(
            SweepGrid::new()
                .workload(workload.clone())
                .cores(&[cores])
                .specs(&specs),
        )
    };
    let one_report = |runner: SweepRunner, grid: SweepGrid| {
        runner
            .run(&grid)
            .expect("sweep runs")
            .into_reports()
            .remove(0)
    };
    let base_cfg = default_config(cores).expect("default configuration exists");

    // --- Part 1: powering down L2 segments -----------------------------------
    let configs = sweep_l2_fraction(&base_cfg, fractions).expect("valid L2 fractions");
    let x: Vec<String> = fractions
        .iter()
        .map(|f| format!("{:.0}%", f * 100.0))
        .collect();
    let mut slowdown_table = Table::new(
        format!(
            "Cache power-down: run time relative to the fully-powered L2 ({cores} cores, {})",
            workload.spec.canonical()
        ),
        "powered_l2",
        x.clone(),
    );
    let mut energy_table = Table::new(
        "Cache power-down: estimated energy (mJ) at each powered fraction",
        "powered_l2",
        x,
    );

    // One grid per powered fraction, both schedulers as sweep cells, and
    // the powered-fraction axis itself fanned out as runner cells — all
    // fractions × (baseline + 2 schedulers) simulations are independent, so
    // the whole part-1 table parallelizes (the DAG is built once up front and
    // shared by every cell).
    let threads = cli.threads;
    eprintln!("# power-down sweep on {threads} threads ...");
    let reports: Vec<ExperimentReport> = cli.runner().run_cells(configs.len(), |i| {
        // The outer run_cells already owns the worker pool.
        one_report(SweepRunner::sequential(), grid().with_config(configs[i]))
    });
    for spec in &specs {
        let cells = reports.iter().zip(&configs).zip(fractions);
        let (cycles, energies): (Vec<f64>, Vec<f64>) = cells
            .map(|((report, cfg), &fraction)| {
                let m = &report.find(cores, spec).unwrap().metrics;
                let energy = estimate_energy(
                    &m.hierarchy,
                    cfg,
                    m.cycles,
                    fraction,
                    &EnergyModel::default(),
                );
                (m.cycles as f64, energy.total_mj())
            })
            .unzip();
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
        format!("Multiprogramming: slowdown when a co-runner periodically sweeps the shared L2 ({cores} cores)"),
        "scenario",
        vec!["alone".to_string(), "with co-runner".to_string()],
    );
    // One grid per scenario, both schedulers as cells of the same sweep.
    eprintln!("# multiprogramming sweep on {threads} threads ...");
    let scenario =
        |disturbance| one_report(cli.runner(), grid().options(SimOptions { disturbance }));
    let (alone, noisy) = (scenario(None), scenario(Some(disturbance)));
    for spec in &specs {
        let alone_cycles = alone.find(cores, spec).unwrap().metrics.cycles as f64;
        let noisy_cycles = noisy.find(cores, spec).unwrap().metrics.cycles as f64;
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
    emit_trace(&cli, &workload, cores, &specs);
}
