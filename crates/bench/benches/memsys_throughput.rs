//! Criterion bench: throughput of the component memory-system substrate.
//!
//! Tracks (1) how many transactions per second the bus + DRAM-controller
//! model sustains on its own, on mixed traffic and on the L2-miss stream of
//! a 32-core merge sort, and (2) what the component model costs the
//! execution engine relative to the legacy serializing-channel formula.  The
//! memory system sits on every simulated L2 miss, so a regression here slows
//! every paper-scale experiment.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pdfws_cmp_model::{default_config, MemSysParams};
use pdfws_memsys::MemSystem;
use pdfws_schedulers::{simulate, SchedulerSpec, SimOptions};
use pdfws_workloads::{SyntheticTree, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_transact_throughput(c: &mut Criterion) {
    let cfg = default_config(8).expect("default configuration");
    let resolved = MemSysParams::bus_dram().resolve(
        cfg.offchip_bytes_per_cycle,
        cfg.memory_latency_cycles,
        cfg.l2.line_bytes,
    );
    // A mix of streaming and scattered traffic from 8 requesters, issue times
    // loosely increasing like real engine traffic.
    let mut rng = StdRng::seed_from_u64(7);
    let mut at = 0u64;
    let txs: Vec<(usize, u64, u64)> = (0..100_000)
        .map(|i| {
            at += rng.gen_range(0..40);
            let block = if i % 4 == 0 {
                rng.gen_range(0..1u64 << 20)
            } else {
                (i as u64) * 3
            };
            (i % 8, block, at)
        })
        .collect();
    let mut group = c.benchmark_group("memsys");
    group.throughput(Throughput::Elements(txs.len() as u64));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    group.bench_function("transact_100k", |b| {
        b.iter(|| {
            let mut mem = MemSystem::new(&resolved);
            let mut total = 0u64;
            for &(core, block, at) in &txs {
                total += mem.transact(core, block, 64, at).total_cycles;
            }
            black_box(total)
        })
    });
    group.finish();
}

/// The L2-miss stream of the Figure-1 merge sort at 32 cores, replayed
/// without the caches: each core streams through three runs of its own
/// (two inputs, one output), one line per miss, so the controller sees 96
/// concurrent sequential streams; an output line's fill carries the dirty
/// victim it displaces (two lines).
fn bench_fig1_miss_replay(c: &mut Criterion) {
    const CORES: u64 = 32;
    let cfg = default_config(CORES as usize).expect("default configuration");
    let resolved = cfg.resolved_memsys();
    let line = cfg.l2.line_bytes as u64;
    let mut rng = StdRng::seed_from_u64(11);
    let mut at = 0u64;
    let txs: Vec<(usize, u64, u64, u64)> = (0..100_000u64)
        .map(|i| {
            at += rng.gen_range(0..12);
            let (core, k) = (i % CORES, i / CORES);
            let run = core * 3 + k % 3;
            let bytes = if k % 3 == 2 { 2 * line } else { line };
            (core as usize, (run << 24) + k / 3, bytes, at)
        })
        .collect();
    let mut group = c.benchmark_group("memsys");
    group.throughput(Throughput::Elements(txs.len() as u64));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    group.bench_function("fig1_miss_replay_32core_100k", |b| {
        b.iter(|| {
            let mut mem = MemSystem::new(&resolved);
            let mut total = 0u64;
            for &(core, block, bytes, at) in &txs {
                total += mem.transact(core, block, bytes, at).total_cycles;
            }
            black_box(total)
        })
    });
    group.finish();
}

fn bench_engine_under_each_model(c: &mut Criterion) {
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
    let bus_cfg = default_config(8).expect("default configuration");
    let mut legacy_cfg = bus_cfg;
    legacy_cfg.memsys = MemSysParams::legacy();
    legacy_cfg
        .validate()
        .expect("legacy configuration is valid");

    let mut group = c.benchmark_group("memsys_engine");
    group.throughput(Throughput::Elements(refs));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let spec = SchedulerSpec::pdf();
    for (name, cfg) in [("bus", &bus_cfg), ("legacy", &legacy_cfg)] {
        group.bench_function(format!("synthetic_tree_pdf_{name}"), |b| {
            b.iter(|| black_box(simulate(&dag, cfg, &spec, &SimOptions::default()).cycles))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_transact_throughput,
    bench_fig1_miss_replay,
    bench_engine_under_each_model
);
criterion_main!(benches);
