//! Cross-crate tests for the `SchedulerSpec` API: `FromStr`/`Display`
//! round-trips (property-tested), error reporting, registry extension, the
//! sequential-baseline equivalence, and spec threading through the experiment
//! builders.

use pdfws::prelude::*;
use pdfws::schedulers::{simulate, simulate_sequential};
use pdfws::task_dag::builder::SpTree;
use proptest::prelude::*;
use std::sync::Arc;

/// Build a valid spec string for one of the built-in policies from raw fuzz
/// input.  `mask` selects which optional parameters appear; `a`/`b` supply
/// values; `order` scrambles the parameter order (round-tripping must not
/// depend on it).
fn spec_string(policy: usize, mask: u8, a: u64, b: u64, order: bool) -> String {
    let mut params: Vec<String> = Vec::new();
    // The work-stealing option block shared by `ws`, `hybrid` and `adaptive`:
    // victim strategy (with its dependent seed/cluster parameters),
    // granularity, and the steal prices.
    let ws_params = |params: &mut Vec<String>, mask: u8| {
        if mask & 1 != 0 {
            let victim = ["round-robin", "random", "hier"][(a % 3) as usize];
            params.push(format!("victim={victim}"));
            // `seed` requires victim=random, `cluster` requires victim=hier.
            if mask & 4 != 0 && victim == "random" {
                params.push(format!("seed={}", b % 10_000));
            }
            if mask & 4 != 0 && victim == "hier" {
                params.push(format!("cluster={}", 1 + b % 8));
            }
        }
        if mask & 2 != 0 {
            let steal = ["one", "half"][(b % 2) as usize];
            params.push(format!("steal={steal}"));
        }
        if mask & 8 != 0 {
            params.push(format!("steal_cycles={}", a % 512));
        }
        if mask & 16 != 0 {
            params.push(format!("fail_backoff={}", b % 512));
        }
    };
    let name = match policy % 5 {
        0 => "pdf",
        1 => {
            ws_params(&mut params, mask);
            "ws"
        }
        2 => "static",
        3 => {
            if mask & 32 != 0 {
                params.push(format!("threshold={}", a % 128));
            }
            ws_params(&mut params, mask);
            "hybrid"
        }
        _ => {
            if mask & 32 != 0 {
                params.push(format!("threshold={}", a % 128));
                params.push(format!("window={}", 1 + a % 8192));
                params.push(format!("step={}", b % 16));
                // A valid band: lo <= hi by construction, both positive.
                let lo = 1 + a % 4;
                params.push(format!("lo={lo}"));
                params.push(format!("hi={}", lo + b % 8));
            }
            ws_params(&mut params, mask);
            "adaptive"
        }
    };
    if order {
        params.reverse();
    }
    if params.is_empty() {
        name.to_string()
    } else {
        format!("{name}:{}", params.join(","))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn specs_round_trip_through_display_and_from_str(
        policy in prop::sample::select((0usize..5).collect::<Vec<_>>()),
        mask in prop::sample::select((0u8..64).collect::<Vec<_>>()),
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
        order in prop::sample::select(vec![false, true]),
    ) {
        let raw = spec_string(policy, mask, a, b, order);
        let spec: SchedulerSpec = raw.parse().unwrap_or_else(|e| panic!("'{raw}': {e}"));
        // Display -> FromStr is the identity on the parsed value...
        let redisplayed: SchedulerSpec = spec.to_string().parse().unwrap();
        prop_assert_eq!(&redisplayed, &spec);
        // ...and the canonical form is a fixed point of another round trip.
        prop_assert_eq!(redisplayed.to_string(), spec.to_string());
        // Parameter order in the input must not matter.
        let scrambled: SchedulerSpec = spec_string(policy, mask, a, b, !order).parse().unwrap();
        prop_assert_eq!(scrambled, spec);
    }
}

#[test]
fn unknown_policy_errors_name_the_alternatives() {
    let err = "fifo-magic".parse::<SchedulerSpec>().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("unknown scheduler policy 'fifo-magic'"),
        "{msg}"
    );
    for known in ["pdf", "ws", "static", "hybrid"] {
        assert!(msg.contains(known), "{msg} should list '{known}'");
    }
}

#[test]
fn unknown_and_malformed_parameter_errors_are_helpful() {
    let err = "ws:window=4".parse::<SchedulerSpec>().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("'ws' has no parameter 'window'"), "{msg}");
    assert!(msg.contains("victim"), "{msg} should list the known keys");

    let err = "ws:victim".parse::<SchedulerSpec>().unwrap_err();
    assert!(err.to_string().contains("expected key=value"), "{err}");

    let err = "hybrid:threshold=-1".parse::<SchedulerSpec>().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("invalid value '-1'"), "{msg}");
    assert!(msg.contains("unsigned integer"), "{msg}");
}

/// A compute-only workload: on one core *every* greedy policy executes the
/// same total work with no cache effects, so each registered policy must
/// reproduce the sequential baseline's makespan exactly.
fn compute_only_dag() -> pdfws::task_dag::TaskDag {
    SpTree::Par(
        (0..32)
            .map(|i| SpTree::leaf(&format!("leaf{i}"), 2_000))
            .collect(),
    )
    .into_dag()
    .unwrap()
}

#[test]
fn every_registered_policy_matches_the_sequential_baseline_on_one_core() {
    let dag = compute_only_dag();
    let cfg = default_config(1).unwrap();
    let baseline = simulate_sequential(&dag, &cfg, &SimOptions::default());
    assert_eq!(
        baseline.scheduler,
        SchedulerSpec::sequential_baseline().to_string()
    );
    // Every built-in policy (pinned explicitly: the global registry is
    // mutable and another test in this binary registers a custom policy, so
    // iterating names() would make this test's scope order-dependent), plus
    // parameterized variants.
    for builtin in ["pdf", "ws", "static", "hybrid", "adaptive"] {
        assert!(
            Registry::global().names().contains(&builtin.to_string()),
            "built-in '{builtin}' missing from the registry"
        );
    }
    let specs: Vec<SchedulerSpec> = [
        "pdf",
        "ws",
        "static",
        "hybrid",
        "adaptive",
        "ws:victim=random,steal=half,seed=3",
        "ws:victim=hier,cluster=2",
        // On one core there is no victim to steal from, so even non-zero
        // prices must leave the sequential schedule untouched.
        "ws:steal_cycles=64,fail_backoff=128",
        "hybrid:threshold=1",
        "adaptive:threshold=1,window=512,step=2,lo=0.5,hi=4",
    ]
    .iter()
    .map(|n| n.parse().unwrap_or_else(|e| panic!("{n}: {e}")))
    .collect();
    for spec in specs {
        let r = simulate(&dag, &cfg, &spec, &SimOptions::default());
        assert_eq!(
            r.cycles, baseline.cycles,
            "{spec} diverged from the sequential baseline on one core"
        );
        assert_eq!(r.instructions, baseline.instructions, "{spec}");
    }
}

#[test]
fn experiments_distinguish_two_variants_of_the_same_policy() {
    let steal_one = SchedulerSpec::ws();
    let steal_half: SchedulerSpec = "ws:steal=half".parse().unwrap();
    let grid = SweepGrid::new()
        .workload_str("mergesort:grain=2048,n=4096")
        .unwrap()
        .cores(&[4])
        .specs(&[steal_one.clone(), steal_half.clone()]);
    let sweep = SweepRunner::from_env().run(&grid).unwrap();
    let report = &sweep.reports()[0];
    assert_eq!(report.runs().len(), 2);
    let one = report.find(4, &steal_one).unwrap();
    let half = report.find(4, &steal_half).unwrap();
    // The report carries the full spec string for each cell.
    assert_eq!(one.metrics.scheduler, "ws");
    assert_eq!(half.metrics.scheduler, "ws:steal=half");
    // And the parameter is really live: coarser steals -> fewer steal events.
    assert!(
        half.metrics.migrations <= one.metrics.migrations,
        "steal=half should not out-steal steal=one: {} vs {}",
        half.metrics.migrations,
        one.metrics.migrations
    );
}

#[test]
fn custom_policies_register_and_run_through_the_experiment_api() {
    use pdfws::schedulers::{PolicyFactory, SchedulerPolicy};
    use pdfws::task_dag::{TaskDag, TaskId};

    /// A global FIFO queue: ready tasks run in the order they became ready.
    struct FifoPolicy {
        name: String,
        queue: std::collections::VecDeque<TaskId>,
    }
    impl SchedulerPolicy for FifoPolicy {
        fn name(&self) -> String {
            self.name.clone()
        }
        fn init(&mut self, _dag: &TaskDag) {
            self.queue.clear();
        }
        fn task_ready(&mut self, task: TaskId, _enabling_core: Option<usize>) {
            self.queue.push_back(task);
        }
        fn next_task(&mut self, _core: usize) -> Option<TaskId> {
            self.queue.pop_front()
        }
        fn ready_count(&self) -> usize {
            self.queue.len()
        }
    }
    struct FifoFactory;
    impl SpecFamily for FifoFactory {
        fn name(&self) -> &'static str {
            "test-fifo"
        }
        fn doc(&self) -> &'static str {
            "global FIFO queue (test policy)"
        }
        fn params(&self) -> &'static [ParamSpec] {
            &[]
        }
    }
    impl PolicyFactory for FifoFactory {
        fn build(&self, spec: &SchedulerSpec, _cores: usize) -> Box<dyn SchedulerPolicy> {
            Box::new(FifoPolicy {
                name: spec.canonical(),
                queue: std::collections::VecDeque::new(),
            })
        }
    }

    Registry::global().register(Arc::new(FifoFactory));
    let spec: SchedulerSpec = "test-fifo".parse().expect("registered name parses");
    let grid = SweepGrid::new()
        .workload_str("scan")
        .unwrap()
        .cores(&[2])
        .specs(std::slice::from_ref(&spec));
    let sweep = SweepRunner::from_env().run(&grid).unwrap();
    let run = sweep.reports()[0].find(2, &spec).unwrap();
    assert_eq!(run.metrics.scheduler, "test-fifo");
    assert!(run.metrics.cycles > 0);
}
