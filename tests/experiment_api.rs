//! End-to-end tests of the public experiment API across crates.

use pdfws::prelude::*;

#[test]
fn sweep_over_the_paper_core_counts_completes_for_a_small_mergesort() {
    let report = Experiment::new(MergeSort::new(1 << 12).into_instance())
        .core_sweep(&[1, 2, 4, 8, 16, 32])
        .schedulers(&SchedulerSpec::paper_pair())
        .run()
        .expect("all default configurations exist");
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
    let workloads: Vec<WorkloadInstance> = vec![
        MergeSort::small().into_instance(),
        QuickSort::small().into_instance(),
        MatMul::small().into_instance(),
        LuDecomposition::small().into_instance(),
        SpMv::small().into_instance(),
        HashJoin::small().into_instance(),
        ParallelScan::small().into_instance(),
        ComputeKernel::small().into_instance(),
        SyntheticTree::small().into_instance(),
    ];
    for spec in workloads {
        let tasks = spec.dag.len();
        let name = spec.name.clone();
        let report = Experiment::new(spec)
            .cores(4)
            .schedulers(&[
                SchedulerSpec::pdf(),
                SchedulerSpec::ws(),
                SchedulerSpec::static_partition(),
            ])
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for run in report.runs() {
            assert_eq!(run.metrics.tasks, tasks, "{name} under {}", run.scheduler);
            assert!(run.metrics.cycles > 0, "{name} under {}", run.scheduler);
        }
    }
}

#[test]
fn speedups_are_monotone_enough_for_an_embarrassingly_parallel_workload() {
    // The compute-bound kernel has negligible memory traffic, so speedup should
    // track core count closely for both schedulers.
    let report = Experiment::new(ComputeKernel::new(1 << 13).into_instance())
        .core_sweep(&[1, 2, 4, 8])
        .run()
        .unwrap();
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
    let report = Experiment::new(ParallelScan::small().into_instance())
        .cores(4)
        .run()
        .unwrap();
    assert_eq!(report.baseline_config.cores, 1);
    assert_eq!(report.baseline.cores, 1);
    assert_eq!(report.baseline.scheduler, "pdf");
}

#[test]
fn deterministic_reports_for_identical_experiments() {
    let a = Experiment::new(SpMv::small().into_instance())
        .core_sweep(&[2, 4])
        .run()
        .unwrap();
    let b = Experiment::new(SpMv::small().into_instance())
        .core_sweep(&[2, 4])
        .run()
        .unwrap();
    assert_eq!(a.runs(), b.runs());
    assert_eq!(a.baseline, b.baseline);
}
