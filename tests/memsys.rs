//! Integration tests for the memory-system substrate's two load-bearing
//! guarantees:
//!
//! 1. **The legacy model is the component model's limiting case.**  An
//!    infinite-width bus in front of an infinite-bandwidth DRAM controller
//!    whose open-row hit and row-miss latencies are both pinned to the flat
//!    memory latency must reproduce the legacy serializing-channel completion
//!    times *exactly*, on every workload the registry knows.  The engine
//!    drives both models down one path, issuing every transfer in
//!    simulated-time order, so the comparison is of prices alone.  This pins
//!    the refactor: the component model adds contention, it does not
//!    re-price uncontended misses.
//! 2. **Determinism across sweep parallelism.**  The discrete-event queue is
//!    ordered by `(time, core id)`, so a sweep's results are bit-identical
//!    whatever `--threads` value drives it.

use pdfws::cmp_model::MemSysParams;
use pdfws::prelude::*;
use pdfws::schedulers::simulate;
use pdfws::schedulers::SimOptions;
use proptest::prelude::*;

/// The infinite-capacity component configuration and its legacy counterpart,
/// both on an unbounded off-chip channel.
fn limiting_case_configs(cores: usize) -> (CmpConfig, CmpConfig) {
    let mut cfg = default_config(cores).expect("default configuration exists");
    cfg.offchip_bytes_per_cycle = f64::INFINITY;
    let mut legacy = cfg;
    legacy.memsys = MemSysParams::legacy();
    let mut pinned = cfg;
    pinned.memsys = MemSysParams {
        dram_hit_cycles: Some(cfg.memory_latency_cycles),
        dram_miss_cycles: Some(cfg.memory_latency_cycles),
        ..MemSysParams::bus_dram()
    };
    (legacy, pinned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Every registered workload (bare name = unit-test size), any scheduler
    // of the paper pair, several machine widths: the component model with
    // infinite capacity and flat latency completes in exactly the legacy
    // cycle count, with zero observed queuing.
    #[test]
    fn infinite_capacity_reproduces_legacy_on_every_registered_workload(
        workload_idx in 0usize..100,
        cores_idx in 0usize..3,
        sched_idx in 0usize..2,
    ) {
        let names = WorkloadRegistry::global().names();
        let name = &names[workload_idx % names.len()];
        let instance: WorkloadInstance =
            name.parse().expect("bare workload names instantiate");
        let cores = [2usize, 4, 8][cores_idx];
        let spec = if sched_idx == 0 { SchedulerSpec::pdf() } else { SchedulerSpec::ws() };
        let (legacy_cfg, pinned_cfg) = limiting_case_configs(cores);
        let legacy = simulate(&instance.dag, &legacy_cfg, &spec, &SimOptions::default());
        let pinned = simulate(&instance.dag, &pinned_cfg, &spec, &SimOptions::default());
        prop_assert_eq!(
            legacy.cycles, pinned.cycles,
            "{name} under {spec} at {cores} cores"
        );
        prop_assert_eq!(legacy.busy_cycles, pinned.busy_cycles);
        prop_assert_eq!(pinned.bus_queue_cycles, 0);
        prop_assert_eq!(pinned.dram_queue_cycles, 0);
        prop_assert_eq!(legacy.offchip_bytes(), pinned.offchip_bytes());
    }
}

#[test]
fn component_model_sweeps_are_bit_identical_across_thread_counts() {
    // A grid whose cells genuinely contend (a bandwidth-limited workload on a
    // narrow 2-bank machine) plus the default model: the event queue's
    // (time, id) ordering makes every cell a pure function of its inputs, so
    // the sweep must not depend on worker interleaving.
    let narrow: MemSysSpec = "bus:width=1,dram:banks=2".parse().unwrap();
    let grid = SweepGrid::new()
        .workload_str("spmv:rows=2048")
        .expect("spmv spec parses")
        .workload_str("mergesort:n=4096")
        .expect("mergesort spec parses")
        .cores(&[2, 8])
        .specs(&SchedulerSpec::paper_pair());
    for grid in [grid.clone(), grid.memsys(narrow)] {
        let sequential = SweepRunner::sequential().run(&grid).unwrap();
        for threads in [2usize, 4] {
            let parallel = SweepRunner::new(threads).run(&grid).unwrap();
            assert_eq!(
                parallel, sequential,
                "{threads} sweep threads changed component-model results"
            );
        }
    }
}

#[test]
fn memsys_spec_selects_the_model_end_to_end() {
    // The same experiment under the default component model and under
    // `--memsys legacy` must *disagree* on a contended workload (queuing is
    // real) while both remain self-consistent across reruns.
    let instance: WorkloadInstance = "spmv:rows=4096".parse().unwrap();
    let run = |memsys: Option<MemSysSpec>| {
        let mut grid = SweepGrid::new()
            .workload(instance.clone())
            .cores(&[8])
            .specs(&[SchedulerSpec::pdf()]);
        if let Some(spec) = memsys {
            grid = grid.memsys(spec);
        }
        let mut reports = SweepRunner::from_env().run(&grid).unwrap().into_reports();
        reports.remove(0)
    };
    let component = run(None);
    let legacy = run(Some("legacy".parse().unwrap()));
    let component_run = component.find(8, &SchedulerSpec::pdf()).unwrap();
    let legacy_run = legacy.find(8, &SchedulerSpec::pdf()).unwrap();
    // Same schedule, same traffic; different costing of that traffic.
    assert_eq!(
        component_run.metrics.offchip_bytes(),
        legacy_run.metrics.offchip_bytes()
    );
    assert!(component_run.metrics.bus_queue_cycles > 0);
    assert_eq!(legacy_run.metrics.bus_queue_cycles, 0);
    assert_ne!(component_run.metrics.cycles, legacy_run.metrics.cycles);
}
