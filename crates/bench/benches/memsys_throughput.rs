//! Criterion bench: throughput of the component memory-system substrate.
//!
//! Tracks (1) how many transactions per second the bus + DRAM-controller
//! model sustains on its own, on mixed traffic and on the L2-miss stream of
//! a 32-core merge sort, (2) what the component model costs the execution
//! engine relative to the legacy serializing-channel formula, and (3) how
//! fast the event queue re-keys a yielding core among 32.  The memory system
//! sits on every simulated L2 miss, and the engine re-keys the queue once
//! per step, so a regression here slows every paper-scale experiment.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pdfws_cmp_model::{default_config, MemSysParams};
use pdfws_memsys::{EventQueue, MemSystem};
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

/// Re-keys per iteration of the event-queue rows.
const REKEYS: usize = 65_536;

/// The engine's per-step queue pattern at 32 cores: the top core is re-keyed
/// to the end of its step.  `round_robin_32` sends every re-key behind all
/// 31 other cores, as the fine-grain scheduler zoo does.  `mixed_32` draws
/// the rank the key lands at from the shape of the Figure-1 `pdf` cell at
/// 32 cores: 7 % go behind every other core and the rest land behind 0 to 9
/// of them, a mean rank of about 6.4 and a mean distance to the nearer end
/// of about 4.1.
fn bench_event_queue_rekey(c: &mut Criterion) {
    const CORES: usize = 32;
    let queue_at = |spacing: u64| {
        let mut q = EventQueue::new();
        for core in 0..CORES {
            q.push(core as u64 * spacing, core);
        }
        q
    };
    let mixed = mixed_rekey_times(CORES);
    let mut group = c.benchmark_group("memsys");
    group.throughput(Throughput::Elements(REKEYS as u64));
    group.sample_size(100);
    let start = queue_at(1);
    group.bench_function("event_queue_rekey_round_robin_32", |b| {
        b.iter(|| {
            let mut q = start.clone();
            for _ in 0..REKEYS {
                let (time, core) = q.peek().expect("32 cores queued");
                q.replace_top(time + CORES as u64, core);
            }
            black_box(q.peek())
        })
    });
    let start = queue_at(MIXED_SPACING);
    group.bench_function("event_queue_rekey_mixed_32", |b| {
        b.iter(|| {
            let mut q = start.clone();
            for &time in &mixed {
                let (_, core) = q.peek().expect("32 cores queued");
                q.replace_top(time, core);
            }
            black_box(q.peek())
        })
    });
    group.finish();
}

/// Time between the initial cores of the mixed row, and the delay of a
/// re-key that goes behind every other core.
const MIXED_SPACING: u64 = 1 << 36;

/// The re-key times of the mixed row, found on a sorted model of the queue:
/// a key at rank `r` takes the midpoint of the times it lands between.
fn mixed_rekey_times(cores: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(13);
    let mut model: Vec<(u64, usize)> = (0..cores)
        .map(|core| (core as u64 * MIXED_SPACING, core))
        .collect();
    (0..REKEYS)
        .map(|_| {
            let (top, core) = model.remove(0);
            let rank = if rng.gen_range(0..100u32) < 7 {
                cores - 1
            } else {
                rng.gen_range(0..10usize)
            };
            let after = if rank == 0 { top } else { model[rank - 1].0 };
            let time = match model.get(rank) {
                Some(&(before, _)) => after + (before - after) / 2,
                None => after + MIXED_SPACING,
            };
            assert!(
                time > after && model.get(rank).is_none_or(|&(before, _)| time < before),
                "rank {rank} has no room left between its neighbours"
            );
            model.insert(rank, (time, core));
            time
        })
        .collect()
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
    bench_event_queue_rekey,
    bench_engine_under_each_model
);
criterion_main!(benches);
