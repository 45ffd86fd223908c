//! Free-steal equivalence battery for the priced-steal engine path.
//!
//! `steal_cycles=0,fail_backoff=0` must be *bit-identical* to the default
//! free-steal model: a zero price never arms a wake event, never shifts a
//! dispatch, never perturbs the victim scan.  The whole `SimResult` — cycles,
//! per-core busy vectors, cache-hierarchy counters, migrations — is compared,
//! not just the makespan, for every registered workload (small instance) ×
//! core count × deque-based policy family.

use pdfws::prelude::*;
use pdfws::schedulers::simulate;
use pdfws::task_dag::TaskDag;
use proptest::prelude::*;

/// A small instance of every registered workload.  The name list is asserted
/// against the global registry so adding a workload without extending this
/// battery fails loudly.
fn small_workloads() -> Vec<(&'static str, TaskDag)> {
    vec![
        ("compute-kernel", ComputeKernel::small().build_dag()),
        ("hashjoin", HashJoin::small().build_dag()),
        ("lu", LuDecomposition::small().build_dag()),
        ("matmul", MatMul::small().build_dag()),
        ("mergesort", MergeSort::small().build_dag()),
        ("quicksort", QuickSort::small().build_dag()),
        ("scan", ParallelScan::small().build_dag()),
        ("spmv", SpMv::small().build_dag()),
        ("synthetic", SyntheticTree::small().build_dag()),
    ]
}

#[test]
fn the_battery_covers_every_registered_workload() {
    let covered: Vec<&str> = small_workloads().iter().map(|(n, _)| *n).collect();
    assert_eq!(
        WorkloadRegistry::global().names(),
        covered,
        "extend small_workloads() in this file when registering a new workload"
    );
}

/// Simulate `spec` and blank the scheduler string: explicit-zero prices
/// legitimately canonicalise to a different spec string than the bare policy,
/// and the string is the one field allowed to differ.
fn run_normalized(dag: &TaskDag, cores: usize, spec: &str) -> SimResult {
    let cfg = default_config(cores).unwrap();
    let spec: SchedulerSpec = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
    let mut r = simulate(dag, &cfg, &spec, &SimOptions::default());
    r.scheduler = String::new();
    r
}

/// (free-steal spec, same spec with explicit zero prices) for every
/// deque-based policy family, including parameterized variants.
const ZERO_PRICE_PAIRS: &[(&str, &str)] = &[
    ("ws", "ws:steal_cycles=0,fail_backoff=0"),
    (
        "ws:steal=half",
        "ws:steal=half,steal_cycles=0,fail_backoff=0",
    ),
    (
        "ws:victim=random,seed=7",
        "ws:victim=random,seed=7,steal_cycles=0,fail_backoff=0",
    ),
    (
        "ws:victim=hier,cluster=2",
        "ws:victim=hier,cluster=2,steal_cycles=0,fail_backoff=0",
    ),
    ("hybrid", "hybrid:steal_cycles=0,fail_backoff=0"),
    (
        "hybrid:threshold=2",
        "hybrid:threshold=2,steal_cycles=0,fail_backoff=0",
    ),
    ("adaptive", "adaptive:steal_cycles=0,fail_backoff=0"),
];

// The exhaustive sweep: every registered workload × core count × policy pair.
// Exhaustive rather than sampled because the input space is small and the
// property is exact equality — there is nothing to shrink.
#[test]
fn zero_priced_stealing_is_bit_identical_to_the_free_steal_model() {
    for (name, dag) in small_workloads() {
        for cores in [2, 4, 8] {
            for (free, priced) in ZERO_PRICE_PAIRS {
                let a = run_normalized(&dag, cores, free);
                let b = run_normalized(&dag, cores, priced);
                assert_eq!(
                    a, b,
                    "{name} @ {cores} cores: '{priced}' diverged from '{free}'"
                );
                assert_eq!(a.steal_cycles, 0, "{name}: free steals charged cycles");
            }
        }
    }
}

// A non-zero price must actually be visible: at any core count where the free
// run migrates work, the priced run charges at least one quantum (and every
// charge is a multiple of the price).
#[test]
fn nonzero_steal_prices_are_charged_in_quanta() {
    let dag = MergeSort::small().build_dag();
    for cores in [2, 4, 8] {
        let free = run_normalized(&dag, cores, "ws");
        let priced = run_normalized(&dag, cores, "ws:steal_cycles=64");
        if free.migrations == 0 {
            continue;
        }
        assert!(
            priced.steal_cycles > 0,
            "{cores} cores: priced run charged nothing despite {} free-run steals",
            free.migrations
        );
        assert_eq!(
            priced.steal_cycles % 64,
            0,
            "charges come in 64-cycle quanta"
        );
        assert_eq!(
            priced.steal_cycles / 64,
            priced.migrations,
            "every migration must be charged exactly once"
        );
    }
}

// Steal prices are capped at 2^32 cycles in every deque-based family: the
// cap itself parses and runs without wrapping the clock; one cycle more is a
// typed spec error naming the limit.
#[test]
fn steal_prices_above_the_cap_are_spec_errors() {
    for family in ["ws", "hybrid", "adaptive"] {
        for key in ["steal_cycles", "fail_backoff"] {
            let at_cap = format!("{family}:{key}=4294967296");
            assert!(at_cap.parse::<SchedulerSpec>().is_ok(), "{at_cap}");
            for over in ["4294967297", "18446744073709551615"] {
                let spec = format!("{family}:{key}={over}");
                let err = spec.parse::<SchedulerSpec>().expect_err(&spec).to_string();
                assert!(
                    err.contains(&format!("'{key}' must be at most 4294967296 cycles")),
                    "{spec}: {err}"
                );
            }
        }
    }
    let dag = SyntheticTree::small().build_dag();
    let priced = run_normalized(&dag, 8, "ws:steal_cycles=4294967296");
    assert!(priced.migrations > 0, "the capped run must steal");
    assert_eq!(priced.steal_cycles, priced.migrations * (1 << 32));
    assert!(
        priced.cycles > 1 << 32,
        "makespan {} wrapped",
        priced.cycles
    );
    let backoff = run_normalized(&dag, 8, "ws:fail_backoff=4294967296");
    assert_eq!(backoff.tasks, dag.len());
    assert!(
        backoff.cycles >= dag.span(),
        "makespan {} wrapped",
        backoff.cycles
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The property behind the exhaustive table, fuzzed over the WS option
    // space: *any* ws variant with explicit zero prices equals its free-steal
    // twin on a fixed workload.
    #[test]
    fn any_zero_priced_ws_variant_matches_its_free_twin(
        victim in prop::sample::select(vec!["round-robin", "random", "hier"]),
        steal in prop::sample::select(vec!["one", "half"]),
        seed in 0u64..100,
        cluster in 1u64..5,
        cores in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        let mut params = vec![format!("victim={victim}"), format!("steal={steal}")];
        if victim == "random" {
            params.push(format!("seed={seed}"));
        }
        if victim == "hier" {
            params.push(format!("cluster={cluster}"));
        }
        let free = format!("ws:{}", params.join(","));
        let priced = format!("{free},steal_cycles=0,fail_backoff=0");
        let dag = ParallelScan::small().build_dag();
        let a = run_normalized(&dag, cores, &free);
        let b = run_normalized(&dag, cores, &priced);
        prop_assert_eq!(a, b, "'{}' diverged from '{}'", priced, free);
    }
}
