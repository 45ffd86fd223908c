//! End-to-end tests of the public sweep API across crates: workloads named by
//! their spec strings, swept by `SweepGrid` and run by `SweepRunner`.

use pdfws::prelude::*;

/// The report of a one-workload grid.
fn run(grid: SweepGrid) -> ExperimentReport {
    SweepRunner::from_env()
        .run(&grid)
        .unwrap_or_else(|e| panic!("sweep fails: {e}"))
        .into_reports()
        .remove(0)
}

/// A grid over one workload spec string.
fn grid(spec: &str) -> SweepGrid {
    SweepGrid::new()
        .workload_str(spec)
        .unwrap_or_else(|e| panic!("'{spec}': {e}"))
}

#[test]
fn sweep_over_the_paper_core_counts_completes_for_a_small_mergesort() {
    let report = run(grid("mergesort:grain=2048,n=4096")
        .cores(&[1, 2, 4, 8, 16, 32])
        .specs(&SchedulerSpec::paper_pair()));
    assert_eq!(report.runs().len(), 12);
    for run in report.runs() {
        assert!(run.metrics.cycles > 0);
        assert_eq!(run.metrics.tasks, report.runs()[0].metrics.tasks);
        assert_eq!(
            run.metrics.instructions,
            report.runs()[0].metrics.instructions
        );
        assert!(report.speedup(run) > 0.0);
        assert!(run.metrics.utilization() <= 1.0 + 1e-9);
    }
}

#[test]
fn every_workload_class_runs_under_every_scheduler() {
    // Every registered name at its defaults, plus both coarse-grained variants.
    let specs = [
        "mergesort",
        "mergesort:coarse=4",
        "quicksort",
        "matmul",
        "matmul:coarse=4",
        "lu",
        "spmv",
        "hashjoin",
        "scan",
        "compute-kernel",
        "synthetic",
    ];
    for name in WorkloadRegistry::global().names() {
        assert!(specs.contains(&name.as_str()), "{name} is not swept");
    }
    for raw in specs {
        let spec: WorkloadSpec = raw.parse().unwrap();
        let instance = WorkloadInstance::from_spec(&spec);
        let tasks = instance.dag.len();
        let report = run(SweepGrid::new().workload(instance).cores(&[4]).specs(&[
            SchedulerSpec::pdf(),
            SchedulerSpec::ws(),
            SchedulerSpec::static_partition(),
        ]));
        // The report answers to the spec that named the workload.
        assert_eq!(report.workload, spec.canonical());
        for run in report.runs() {
            assert_eq!(run.metrics.tasks, tasks, "{raw} under {}", run.scheduler);
            assert!(run.metrics.cycles > 0, "{raw} under {}", run.scheduler);
        }
    }
}

#[test]
fn speedups_are_monotone_enough_for_an_embarrassingly_parallel_workload() {
    // The compute-bound kernel has negligible memory traffic, so speedup should
    // track core count closely for both schedulers.
    let report = run(grid("compute-kernel:grain=1024,items=8192").cores(&[1, 2, 4, 8]));
    for spec in SchedulerSpec::paper_pair() {
        let mut prev = 0.0;
        for &cores in &[1usize, 2, 4, 8] {
            let s = report.speedup(report.find(cores, &spec).unwrap());
            assert!(s + 1e-9 >= prev, "{spec} at {cores} cores: {s} < {prev}");
            assert!(
                s > 0.8 * cores as f64 / 1.6,
                "{spec} at {cores} cores: speedup {s}"
            );
            prev = s;
        }
    }
}

#[test]
fn baseline_is_the_one_core_configuration() {
    let report = run(grid("scan").cores(&[4]));
    assert_eq!(report.baseline_config.cores, 1);
    assert_eq!(report.baseline.cores, 1);
    assert_eq!(report.baseline.scheduler, "pdf");
}

#[test]
fn deterministic_reports_for_identical_experiments() {
    let a = run(grid("spmv").cores(&[2, 4]));
    let b = run(grid("spmv").cores(&[2, 4]));
    assert_eq!(a.runs(), b.runs());
    assert_eq!(a.baseline, b.baseline);
}
