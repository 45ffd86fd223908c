//! Byte-for-byte pin of the engine across its pricing and off-chip layers.
//!
//! One small merge sort runs on a shrunken hierarchy (so every cell misses,
//! writes back and queues) under every combination of off-chip model
//! {bus+DRAM, legacy} × co-runner {none, a `Disturbance`} × scheduler
//! {pdf, ws, adaptive, static}.  Each
//! cell prints its named result fields, the sums of the windowed trace
//! counters, the count of each event kind and a 64-bit FNV-1a hash of the
//! `{:?}` rendering of its whole event sequence, so every emitted event is
//! pinned; `adaptive` exercises the policy-feedback path and `static` the
//! migration events.  A second block
//! pins the fine-grained regime: a reduced `synthetic` parallel-for at 32
//! cores under the eight scheduler specs of simbench's `zoo-finegrain`, where
//! every step stops at the next core's event and the priced-steal spec's
//! backoff wakes put duplicate keys in the event queue.  Any change to
//! how a reference is priced, how off-chip traffic queues, or how the event
//! loop orders cores shows up as a golden diff — regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test engine_modes` and review it.

use pdfws::prelude::*;
use pdfws::schedulers::{simulate_traced, Disturbance};
use pdfws::task_dag::TaskDag;
use pdfws::trace::TraceEvent;
use pdfws_cmp_model::{default_config, CmpConfig, MemSysParams};
use std::collections::BTreeMap;
use std::fmt::Write;

const CORES: usize = 4;

/// Core count of the fine-grained block (simbench's `zoo-finegrain` runs 8
/// and 32; 32 is where a step most often stops at another core's event).
const ZOO_CORES: usize = 32;

/// simbench's `zoo-finegrain` scheduler specs, `ws-random` seeded with 1.
const ZOO_SPECS: [&str; 8] = [
    "pdf",
    "ws",
    "ws:steal=half",
    "ws:victim=random,seed=1",
    "ws:victim=hier,cluster=4",
    "ws:steal_cycles=64,fail_backoff=128",
    "hybrid",
    "adaptive",
];

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Simulate one traced cell and append its result fields, the sums of its
/// windowed trace counters and its event fingerprint under `== {header}`;
/// returns the trace's DRAM queue-cycle sum.
///
/// The window sums must add up to the run: their L1 and L2 misses equal the
/// hierarchy's totals, their DRAM queue cycles the run's, and without a
/// co-runner (whose bursts are counted as accesses too) their accesses equal
/// the program's references.
fn render_cell(
    out: &mut String,
    header: &str,
    dag: &TaskDag,
    config: &CmpConfig,
    spec: &SchedulerSpec,
    options: &SimOptions,
) -> u64 {
    let (r, events) = simulate_traced(dag, config, spec, options);
    let (mut accesses, mut l1_misses, mut l2_misses) = (0u64, 0u64, 0u64);
    let (mut bus_busy, mut dram_depth) = (0u64, 0u64);
    let mut kinds = BTreeMap::new();
    for event in &events {
        *kinds.entry(event.kind()).or_insert(0u64) += 1;
        match *event {
            TraceEvent::CacheWindow {
                accesses: a,
                l1_misses: l1,
                l2_misses: l2,
                ..
            } => {
                accesses += a;
                l1_misses += l1;
                l2_misses += l2;
            }
            TraceEvent::BusOccupancy { busy_cycles, .. } => bus_busy += busy_cycles,
            TraceEvent::DramQueueDepth { depth, .. } => dram_depth += depth,
            _ => {}
        }
    }
    let hierarchy_l1: u64 = r.hierarchy.l1.iter().map(|c| c.misses()).sum();
    assert_eq!(l1_misses, hierarchy_l1, "{header}: trace-sum L1 misses");
    assert_eq!(
        l2_misses,
        r.hierarchy.l2.misses(),
        "{header}: trace-sum L2 misses"
    );
    if options.disturbance.is_none() {
        assert_eq!(accesses, r.memory_accesses, "{header}: trace-sum accesses");
    }
    assert_eq!(
        dram_depth, r.dram_queue_cycles,
        "{header}: trace-sum DRAM queue cycles"
    );
    writeln!(out, "== {header}").unwrap();
    writeln!(
        out,
        "cycles={} instructions={} references={} tasks={}",
        r.cycles, r.instructions, r.memory_accesses, r.tasks
    )
    .unwrap();
    writeln!(out, "busy_cycles={:?}", r.busy_cycles).unwrap();
    writeln!(
        out,
        "queue: offchip={} bus={} dram={}",
        r.offchip_queue_cycles, r.bus_queue_cycles, r.dram_queue_cycles
    )
    .unwrap();
    writeln!(
        out,
        "migrations={} steal_cycles={}",
        r.migrations, r.steal_cycles
    )
    .unwrap();
    writeln!(out, "hierarchy={:?}", r.hierarchy).unwrap();
    writeln!(
        out,
        "trace sums: accesses={accesses} l1_misses={l1_misses} \
         l2_misses={l2_misses} bus_busy={bus_busy} dram_depth={dram_depth}"
    )
    .unwrap();
    let counts: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
    writeln!(out, "events: {}", counts.join(" ")).unwrap();
    writeln!(
        out,
        "events fnv1a={:016x}",
        fnv1a(format!("{events:?}").as_bytes())
    )
    .unwrap();
    dram_depth
}

fn render_grid() -> String {
    let workload = WorkloadInstance::from_spec(&"mergesort:n=2048".parse().unwrap());
    let mut base = default_config(CORES).expect("default configuration");
    // A hierarchy far smaller than the sort's data: misses, dirty victims
    // and off-chip queuing in every cell.
    base.l1.capacity_bytes = 2 * 1024;
    base.l1.associativity = 2;
    base.l2.capacity_bytes = 8 * 1024;
    base.l2.associativity = 4;
    base.validate().expect("shrunken configuration is valid");
    let disturbance = Disturbance {
        period_cycles: 3_000,
        blocks_per_burst: 32,
        region_base_block: 1 << 30,
        region_blocks: 256,
    };
    let mut out = String::new();
    // DRAM queue cycles the bus+DRAM co-runner cells' traces show.
    let mut corunner_dram = 0;
    for memsys in ["bus", "legacy"] {
        for corunner in [None, Some(disturbance)] {
            for scheduler in ["pdf", "ws", "adaptive", "static"] {
                let mut config = base;
                if memsys == "legacy" {
                    config.memsys = MemSysParams::legacy();
                }
                let options = SimOptions {
                    disturbance: corunner,
                };
                let spec: SchedulerSpec = scheduler.parse().unwrap();
                let co = if corunner.is_some() {
                    "co-runner"
                } else {
                    "alone"
                };
                let header = format!("memsys={memsys} {co} scheduler={scheduler}");
                let dram = render_cell(&mut out, &header, &workload.dag, &config, &spec, &options);
                if memsys == "bus" && corunner.is_some() {
                    corunner_dram += dram;
                }
            }
        }
    }
    assert!(
        corunner_dram > 0,
        "a saturated bus with DRAM behind it must show DRAM queuing in its trace"
    );
    // The fine-grained regime (see the module docs).
    let zoo = WorkloadInstance::from_spec(
        &"synthetic:depth=3,fanout=16,leaf-instr=200,private-bytes=64,shared-bytes=4096,\
          shared-fraction=0.25,passes=1"
            .parse()
            .unwrap(),
    );
    let config = default_config(ZOO_CORES).expect("32-core configuration");
    for scheduler in ZOO_SPECS {
        let spec: SchedulerSpec = scheduler.parse().unwrap();
        let header = format!("zoo cores={ZOO_CORES} scheduler={scheduler}");
        render_cell(
            &mut out,
            &header,
            &zoo.dag,
            &config,
            &spec,
            &SimOptions::default(),
        );
    }
    out
}

#[test]
fn engine_mode_grid_matches_the_golden_file() {
    let text = render_grid();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/engine_modes.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden grid");
        return;
    }
    assert_eq!(
        text,
        include_str!("golden/engine_modes.txt"),
        "engine mode grid changed (UPDATE_GOLDEN=1 to regenerate)"
    );
}
