//! Criterion bench: raw throughput of the simulation substrates.
//!
//! Tracks how many simulated memory references per second the cache hierarchy and
//! the execution engine sustain.  The hierarchy has three shapes: random 8-core
//! traffic, a 32-core line-stepped stream that misses the L1 on nearly every
//! reference, and a 32-core stream over four times the L2 that misses both
//! levels, like the L2-exceeding Figure-1 merge sort.  These are not paper results; they bound how
//! large the paper-scale experiments can be, so regressions here matter to every
//! other bench.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pdfws_cache_sim::CmpCacheHierarchy;
use pdfws_cmp_model::default_config;
use pdfws_schedulers::{simulate, simulate_sequential, SchedulerSpec, SimOptions};
use pdfws_workloads::{SyntheticTree, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_hierarchy_accesses(c: &mut Criterion) {
    let cfg = default_config(8).expect("default configuration");
    let mut rng = StdRng::seed_from_u64(3);
    let addrs: Vec<(usize, u64, bool)> = (0..100_000)
        .map(|_| {
            (
                rng.gen_range(0..8usize),
                rng.gen_range(0..1u64 << 24),
                rng.gen_bool(0.3),
            )
        })
        .collect();
    let mut group = c.benchmark_group("cache_hierarchy");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    group.bench_function("random_accesses_100k", |b| {
        b.iter(|| {
            let mut hier = CmpCacheHierarchy::new(&cfg);
            let mut offchip = 0u64;
            for &(core, addr, write) in &addrs {
                offchip += hier.access(core, addr, write).offchip_bytes;
            }
            black_box(offchip)
        })
    });
    group.finish();
}

/// One pass of the streaming pattern: every core alternately reads a line
/// another core wrote in the previous pass and writes a fresh line, stepping
/// one line per reference — merge sort's merge step at 32 cores, where
/// nearly every reference misses the L1 and the writes miss the L2.
fn stream_pass(hier: &mut CmpCacheHierarchy, pass: u64, accesses: u64) -> u64 {
    let cores = hier.cores() as u64;
    let line = hier.line_bytes();
    // Each core reads and writes `per_core` lines; one pass writes `region`.
    let per_core = accesses / cores / 2;
    let region = per_core * cores;
    let mut offchip = 0;
    for i in 0..accesses {
        let core = i % cores;
        let round = i / cores;
        let step = (round / 2) % per_core;
        // Even rounds read what a neighbour wrote in the previous pass, odd
        // rounds write this pass's output.
        let write = round % 2 == 1;
        let block = if write {
            (pass + 1) * region + core * per_core + step
        } else {
            pass * region + (core + 1) % cores * per_core + step
        };
        offchip += hier
            .access(core as usize, block * line, write)
            .offchip_bytes;
    }
    offchip
}

fn bench_hierarchy_stream(c: &mut Criterion) {
    const ACCESSES: u64 = 100_000;
    let cfg = default_config(32).expect("default configuration");
    let mut hier = CmpCacheHierarchy::new(&cfg);
    // Warm up until the L2 is full, so every timed pass is in steady state:
    // each write fill evicts (and back-invalidates) a line of an older pass.
    let l2_lines = (cfg.l2.capacity_bytes / cfg.l2.line_bytes) as u64;
    let mut pass = 0;
    while pass * ACCESSES / 2 <= 2 * l2_lines {
        stream_pass(&mut hier, pass, ACCESSES);
        pass += 1;
    }
    let mut group = c.benchmark_group("cache_hierarchy");
    group.throughput(Throughput::Elements(ACCESSES));
    group.sample_size(20);
    group.bench_function("stream_32core_100k", |b| {
        b.iter(|| {
            let offchip = stream_pass(&mut hier, pass, ACCESSES);
            pass += 1;
            black_box(offchip)
        })
    });
    group.finish();
}

/// Merge-sort-shaped traffic over a region of `region` lines: each core
/// steps one line per reference through its own slice, reading two lines for
/// every one it writes, and `cursor` carries each core's position from one
/// call to the next.  Over a region four times the L2, every slice wraps
/// only after the whole region has been swept, so nearly every reference
/// misses both levels and every L2 fill evicts.
fn l2_miss_pass(hier: &mut CmpCacheHierarchy, cursor: &mut u64, region: u64, accesses: u64) -> u64 {
    let cores = hier.cores() as u64;
    let line = hier.line_bytes();
    let per_core = region / cores;
    let mut offchip = 0;
    for i in 0..accesses {
        let core = i % cores;
        let step = *cursor + i / cores;
        let block = core * per_core + step % per_core;
        offchip += hier
            .access(core as usize, block * line, step % 3 == 2)
            .offchip_bytes;
    }
    *cursor += accesses / cores;
    offchip
}

fn bench_hierarchy_l2_misses(c: &mut Criterion) {
    const ACCESSES: u64 = 100_000;
    let cfg = default_config(32).expect("default configuration");
    let mut hier = CmpCacheHierarchy::new(&cfg);
    let region = 4 * (cfg.l2.capacity_bytes / cfg.l2.line_bytes) as u64;
    // One full sweep first, so the timed passes run with a full L2.
    let mut cursor = 0;
    l2_miss_pass(&mut hier, &mut cursor, region, region);
    let mut group = c.benchmark_group("cache_hierarchy");
    group.throughput(Throughput::Elements(ACCESSES));
    group.sample_size(20);
    group.bench_function("l2_miss_stream_32core", |b| {
        b.iter(|| black_box(l2_miss_pass(&mut hier, &mut cursor, region, ACCESSES)))
    });
    group.finish();
}

fn bench_engine_throughput(c: &mut Criterion) {
    let workload = SyntheticTree {
        depth: 6,
        fanout: 2,
        leaf_instructions: 2_000,
        leaf_private_bytes: 32 * 1024,
        shared_bytes: 256 * 1024,
        shared_fraction: 0.5,
        passes: 2,
    };
    let dag = workload.build_dag();
    let refs = dag.analyze().memory_accesses;
    let cfg = default_config(8).expect("default configuration");
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(refs));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for spec in SchedulerSpec::paper_pair() {
        group.bench_function(format!("synthetic_tree_{}", spec.canonical()), |b| {
            b.iter(|| black_box(simulate(&dag, &cfg, &spec, &SimOptions::default()).cycles))
        });
    }
    // The one-core baseline every sweep dedups and reruns constantly: with a
    // single busy core the engine's event heap holds one entry, so every step
    // re-keys it in place and this case isolates the rest of the step.
    let one_core = default_config(1).expect("one-core configuration");
    group.bench_function("sequential_baseline_1core", |b| {
        b.iter(|| black_box(simulate_sequential(&dag, &one_core, &SimOptions::default()).cycles))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hierarchy_accesses,
    bench_hierarchy_stream,
    bench_hierarchy_l2_misses,
    bench_engine_throughput
);
criterion_main!(benches);
