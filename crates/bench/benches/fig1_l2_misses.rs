//! Criterion bench for the Figure-1 pipeline: simulating parallel merge sort under
//! PDF and WS across core counts.  The measured quantity is harness run time (the
//! paper's metrics themselves are printed by the `fig1_mergesort` binary); keeping
//! it under Criterion catches performance regressions in the simulator that would
//! make the paper-scale experiments impractical.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdfws_cmp_model::default_config;
use pdfws_schedulers::{simulate, SchedulerSpec, SimOptions};
use pdfws_workloads::WorkloadSpec;
use std::hint::black_box;

fn bench_fig1(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_mergesort_sim");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    // A reduced instance so each iteration stays around tens of milliseconds; the
    // full-size figure is produced by the fig1_mergesort binary.
    let spec: WorkloadSpec = "mergesort:grain=2048,n=16384".parse().expect("valid spec");
    let dag = spec.build().build_dag();
    for &cores in &[1usize, 8, 32] {
        let cfg = default_config(cores).expect("default configuration");
        for spec in SchedulerSpec::paper_pair() {
            group.bench_with_input(BenchmarkId::new(spec.canonical(), cores), &cores, |b, _| {
                b.iter(|| {
                    let result = simulate(black_box(&dag), &cfg, &spec, &SimOptions::default());
                    black_box(result.l2_mpki())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
