//! Property-based integration tests: scheduler/engine invariants that must hold
//! for arbitrary fork-join workloads on arbitrary (valid) machine shapes.

use pdfws::cmp_model::default_config;
use pdfws::schedulers::{simulate, SchedulerSpec, SimOptions};
use pdfws::task_dag::builder::SpTree;
use pdfws::task_dag::AccessPattern;
use proptest::prelude::*;

/// Random series-parallel trees whose leaves carry compute and a mix of private
/// and shared memory ranges.
fn workload_strategy() -> impl Strategy<Value = SpTree> {
    let leaf = (1u64..3_000, 0u64..3, 1u64..64).prop_map(|(instr, kind, blocks)| {
        let accesses = match kind {
            0 => vec![],
            1 => vec![AccessPattern::range_read(instr * 4096, blocks * 64)],
            _ => vec![
                AccessPattern::range_read(0, blocks * 64), // shared region at 0
                AccessPattern::range_write(instr * 4096, blocks * 64),
            ],
        };
        SpTree::leaf_with_accesses("leaf", instr, accesses)
    });
    leaf.prop_recursive(3, 40, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(SpTree::Seq),
            prop::collection::vec(inner, 1..4).prop_map(SpTree::Par),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_scheduler_executes_all_work_exactly_once(
        tree in workload_strategy(),
        cores in prop::sample::select(vec![1usize, 2, 3, 8]),
    ) {
        let dag = tree.into_dag().unwrap();
        let cfg = default_config(cores).unwrap();
        for spec in [
            SchedulerSpec::pdf(),
            SchedulerSpec::ws(),
            SchedulerSpec::static_partition(),
            "hybrid:threshold=4".parse().unwrap(),
            "ws:steal=half,victim=hier,cluster=1".parse().unwrap(),
        ] {
            let r = simulate(&dag, &cfg, &spec, &SimOptions::default());
            prop_assert_eq!(r.tasks, dag.len());
            prop_assert_eq!(r.instructions, dag.work());
            prop_assert_eq!(r.memory_accesses, dag.analyze().memory_accesses);
            // The makespan is bounded below by the span and above by the work plus
            // all memory stall time (each reference costs at most memory latency
            // plus the worst-case bandwidth queueing recorded by the engine).
            prop_assert!(r.cycles >= dag.span());
            let stall_bound = r.memory_accesses * cfg.memory_latency_cycles + r.offchip_queue_cycles;
            prop_assert!(r.cycles <= dag.work() + stall_bound);
        }
    }

    #[test]
    fn parallel_runs_are_never_slower_than_sequential_by_more_than_overheads(
        tree in workload_strategy(),
    ) {
        let dag = tree.into_dag().unwrap();
        let cfg = default_config(4).unwrap();
        let seq_cfg = default_config(1).unwrap();
        let seq = simulate(&dag, &seq_cfg, &SchedulerSpec::pdf(), &SimOptions::default());
        for spec in SchedulerSpec::paper_pair() {
            let par = simulate(&dag, &cfg, &spec, &SimOptions::default());
            // Greedy scheduling on more cores with the same or larger L2 should not
            // lose more than 2x to cache/bandwidth interference on these tiny inputs.
            prop_assert!(par.cycles <= seq.cycles * 2, "{}: {} vs {}", spec, par.cycles, seq.cycles);
        }
    }

    #[test]
    fn l2_misses_never_exceed_memory_accesses(
        tree in workload_strategy(),
        cores in prop::sample::select(vec![1usize, 4]),
    ) {
        let dag = tree.into_dag().unwrap();
        let cfg = default_config(cores).unwrap();
        let r = simulate(&dag, &cfg, &SchedulerSpec::ws(), &SimOptions::default());
        prop_assert!(r.hierarchy.l2_misses() <= r.memory_accesses);
        prop_assert!(r.hierarchy.memory_fills <= r.hierarchy.l2.misses());
        let l1_total = r.hierarchy.l1_total();
        prop_assert_eq!(l1_total.accesses(), r.memory_accesses);
        prop_assert!(r.offchip_bytes() >= r.hierarchy.memory_fills * 64);
    }
}
