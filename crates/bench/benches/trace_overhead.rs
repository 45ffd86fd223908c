//! Criterion bench: cost of the tracing layer on the simulation hot path.
//!
//! Three modes of the same engine run:
//!
//! * `off` — no sink attached (the default every sweep runs with);
//! * `null_sink` — a [`NullSink`] attached, so every emit point fires but the
//!   events are discarded;
//! * `event_trace` — the buffering [`EventTrace`] path `--trace` uses.
//!
//! Besides the Criterion numbers, this bench *asserts* the observability
//! budget: attaching a `NullSink` may cost at most 2 % of wall clock over the
//! untraced engine (min-of-N over alternating rounds, so a slow phase of the
//! host lands on both sides rather than on one).  Smoke runs
//! (`cargo bench -- --test`) skip the assertion — single unwarmed iterations
//! are pure noise.
//!
//! [`NullSink`]: pdfws_trace::NullSink
//! [`EventTrace`]: pdfws_trace::EventTrace

use criterion::{criterion_group, criterion_main, Criterion};
use pdfws_cmp_model::{default_config, CmpConfig};
use pdfws_schedulers::{
    make_policy, simulate, simulate_traced, SchedulerSpec, SimEngine, SimOptions,
};
use pdfws_task_dag::TaskDag;
use pdfws_trace::NullSink;
use pdfws_workloads::{SyntheticTree, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The workload every mode simulates: the same synthetic tree the
/// `simulator_throughput` bench tracks, so the two benches share a baseline.
fn tree_dag() -> TaskDag {
    SyntheticTree {
        depth: 6,
        fanout: 2,
        leaf_instructions: 2_000,
        leaf_private_bytes: 32 * 1024,
        shared_bytes: 256 * 1024,
        shared_fraction: 0.5,
        passes: 2,
    }
    .build_dag()
}

fn run_off(dag: &TaskDag, cfg: &CmpConfig, spec: &SchedulerSpec, options: &SimOptions) -> u64 {
    simulate(dag, cfg, spec, options).cycles
}

fn run_null(dag: &TaskDag, cfg: &CmpConfig, spec: &SchedulerSpec, options: &SimOptions) -> u64 {
    let policy = make_policy(spec, cfg.cores);
    let mut engine = SimEngine::new(dag, cfg, policy, options.clone());
    engine.set_trace_sink(Box::new(NullSink));
    engine.run().cycles
}

fn run_event(dag: &TaskDag, cfg: &CmpConfig, spec: &SchedulerSpec, options: &SimOptions) -> u64 {
    simulate_traced(dag, cfg, spec, options).0.cycles
}

/// Wall clock of one call.
fn wall(f: impl FnOnce() -> u64) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

fn bench_trace_overhead(c: &mut Criterion) {
    let dag = tree_dag();
    let cfg = default_config(8).expect("default configuration");
    let spec = SchedulerSpec::pdf();
    let options = SimOptions::default();

    let mut group = c.benchmark_group("trace_overhead");
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function("off", |b| {
        b.iter(|| black_box(run_off(&dag, &cfg, &spec, &options)))
    });
    group.bench_function("null_sink", |b| {
        b.iter(|| black_box(run_null(&dag, &cfg, &spec, &options)))
    });
    group.bench_function("event_trace", |b| {
        b.iter(|| black_box(run_event(&dag, &cfg, &spec, &options)))
    });
    group.finish();

    // The budget assertion.  `--test` smoke runs measure nothing meaningful,
    // so they only check that all three modes execute.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let rounds = 15;
    // Warm both paths once before timing.
    black_box(run_off(&dag, &cfg, &spec, &options));
    black_box(run_null(&dag, &cfg, &spec, &options));
    // Minimum wall clock over alternating rounds (off, null, off, null, …):
    // the minimum discards preemptions and cache warm-up, which only ever
    // inflate a sample.
    let (mut off, mut null) = (Duration::MAX, Duration::MAX);
    for _ in 0..rounds {
        off = off.min(wall(|| run_off(&dag, &cfg, &spec, &options)));
        null = null.min(wall(|| run_null(&dag, &cfg, &spec, &options)));
    }
    let ratio = null.as_secs_f64() / off.as_secs_f64();
    eprintln!("# trace overhead: off {off:?} vs null sink {null:?} ({ratio:.4}x)");
    assert!(
        ratio <= 1.02,
        "attaching a NullSink cost {:.2} % over the untraced engine (budget: 2 %)",
        (ratio - 1.0) * 100.0
    );
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
