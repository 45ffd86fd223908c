//! Cross-crate battery for the `adaptive` scheduler: the monotone tuning rule
//! (property-tested), sweep determinism across runner thread counts, and the
//! headline regression — a phase-changing workload on which online tuning
//! strictly beats every fixed policy it interpolates between.

use pdfws::prelude::*;
use pdfws::schedulers::adaptive::{tuned_threshold, window_pressure};
use pdfws::schedulers::{simulate, WindowFeedback};
use pdfws::task_dag::builder::DagBuilder;
use pdfws::task_dag::{AccessPattern, TaskDag};
use pdfws::workloads::layout::AddressSpace;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // The tuning rule the module docs promise: for any fixed band and step,
    // higher observed pressure never lowers the threshold.
    #[test]
    fn tuned_threshold_is_monotone_in_pressure(
        current in 1usize..10_000,
        step in 0usize..64,
        // The vendored proptest has no f64 range strategy: draw pressures and
        // band edges in integer milli-units and scale down.
        lo_milli in 10u64..10_000,
        band_milli in 0u64..10_000,
        p1_milli in 0u64..2_000_000,
        p2_milli in 0u64..2_000_000,
    ) {
        let lo = lo_milli as f64 / 1000.0;
        let hi = lo + band_milli as f64 / 1000.0;
        let (p1, p2) = (p1_milli as f64 / 1000.0, p2_milli as f64 / 1000.0);
        let (low_p, high_p) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let at_low = tuned_threshold(current, low_p, lo, hi, step);
        let at_high = tuned_threshold(current, high_p, lo, hi, step);
        prop_assert!(
            at_low <= at_high,
            "pressure {low_p} -> threshold {at_low}, pressure {high_p} -> threshold {at_high}"
        );
        // And one window moves the threshold by at most one step, floored at 1.
        for t in [at_low, at_high] {
            prop_assert!(t >= current.saturating_sub(step).max(1));
            prop_assert!(t <= current.saturating_add(step));
        }
    }

    // The pressure signal itself is monotone in both of its inputs: more L2
    // misses or more migrations never read as *less* scheduling pressure.
    #[test]
    fn window_pressure_is_monotone_in_misses_and_migrations(
        instructions in 1u64..1_000_000,
        misses in 0u64..10_000,
        migrations in 0u64..10_000,
        extra in 1u64..1_000,
    ) {
        let fb = |l2_misses, migrations| WindowFeedback {
            cycles: 4096,
            instructions,
            l2_misses,
            migrations,
        };
        let base = window_pressure(&fb(misses, migrations));
        prop_assert!(window_pressure(&fb(misses + extra, migrations)) > base);
        prop_assert!(window_pressure(&fb(misses, migrations + extra)) > base);
    }
}

// The adaptive policy's feedback loop runs through the engine's windowed
// sampling, which is quantization-independent — so a sweep over adaptive
// specs must stay bit-identical no matter how many runner threads execute it.
#[test]
fn adaptive_sweeps_are_deterministic_across_runner_threads() {
    let specs: Vec<SchedulerSpec> = [
        "adaptive",
        "adaptive:threshold=4,window=512,step=2,lo=0.25,hi=8",
        "adaptive:victim=hier,cluster=4,steal_cycles=64,fail_backoff=32",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    let grid = SweepGrid::new()
        .workload_str("synthetic")
        .unwrap()
        .workload_str("spmv")
        .unwrap()
        .cores(&[4, 8])
        .specs(&specs);
    let sequential = SweepRunner::new(1)
        .run(&grid)
        .expect("adaptive sweep runs")
        .into_reports();
    for threads in [2, 4] {
        let parallel = SweepRunner::new(threads)
            .run(&grid)
            .expect("adaptive sweep runs")
            .into_reports();
        assert_eq!(parallel, sequential, "{threads} runner threads diverged");
    }
}

/// A two-phase program built to make any *fixed* policy lose one phase.
///
/// Phase A — constructive sharing: `groups` shared buffers, each read in full
/// by several tasks.  The depth-first global queue co-schedules a group's
/// readers, so one buffer is hot at a time; work stealing scatters the groups
/// across deques and thrashes the shared L2.
///
/// Phase B — private reuse: `chains` of fork-join diamonds, each diamond
/// re-reading its chain's private buffer.  Per-core deques keep a chain (and
/// its buffer) on one core; the global queue lets cores poach diamond halves
/// from lower-ranked chains, bouncing buffers between private L1s.
fn phase_change_dag() -> TaskDag {
    let (groups, per_group, group_bytes) = (4usize, 4usize, 128 * 1024u64);
    let (chains, links, chain_bytes) = (12usize, 10usize, 16 * 1024u64);
    let mut space = AddressSpace::new();
    let mut b = DagBuilder::new();
    let root = b.task("root").instructions(20).build();
    let barrier = b.task("barrier").instructions(20).build();
    for g in 0..groups {
        let region = space.alloc(group_bytes);
        for t in 0..per_group {
            let task = b
                .task(format_args!("share[{g},{t}]"))
                .instructions(500)
                .accesses(vec![AccessPattern::RepeatedRange {
                    base: region.base,
                    len: group_bytes,
                    passes: 1,
                    write: false,
                }])
                .build();
            b.edge(root, task);
            b.edge(task, barrier);
        }
    }
    let done = b.task("done").instructions(20).build();
    for c in 0..chains {
        let region = space.alloc(chain_bytes);
        let half = chain_bytes / 2;
        let mut prev = barrier;
        for l in 0..links {
            let fork = b
                .task(format_args!("fork[{c},{l}]"))
                .instructions(50)
                .build();
            let join = b
                .task(format_args!("join[{c},{l}]"))
                .instructions(50)
                .build();
            b.edge(prev, fork);
            for s in 0..2u64 {
                let sub = b
                    .task(format_args!("diamond[{c},{l},{s}]"))
                    .instructions(100)
                    .accesses(vec![
                        AccessPattern::RepeatedRange {
                            base: region.base,
                            len: chain_bytes,
                            passes: 1,
                            write: false,
                        },
                        AccessPattern::range_write(region.base + s * half, half),
                    ])
                    .build();
                b.edge(fork, sub);
                b.edge(sub, join);
            }
            prev = join;
        }
        b.edge(prev, done);
    }
    b.finish()
        .expect("phase-change DAG is valid by construction")
}

// The headline regression: on the phase-changing workload, the online-tuned
// hybrid strictly beats *every* fixed policy in the zoo on makespan — pdf
// loses phase B (diamond halves poached across cores), ws loses phase A
// (shared groups scattered over deques), and a fixed hybrid threshold can
// only pick one side of the trade.  The tuned spec starts PDF-biased
// (threshold above the phase-A backlog), then the low-pressure phase-B
// windows decay the threshold until the deque mode engages.
#[test]
fn adaptive_beats_every_fixed_policy_on_a_phase_change() {
    let dag = phase_change_dag();
    let cfg = default_config(8).unwrap();
    let run = |spec: &str| {
        let spec: SchedulerSpec = spec.parse().unwrap();
        simulate(&dag, &cfg, &spec, &SimOptions::default())
    };
    let adaptive = run("adaptive:threshold=48,window=128,step=8,lo=0.05,hi=1000");
    let fixed = [
        run("pdf"),
        run("ws"),
        run("ws:steal=half"),
        run("hybrid:threshold=16"),
    ];
    for r in &fixed {
        assert!(
            adaptive.cycles < r.cycles,
            "adaptive ({} cycles) should strictly beat {} ({} cycles)",
            adaptive.cycles,
            r.scheduler,
            r.cycles
        );
    }
    // The phases are real: the fixed policies disagree with each other...
    let pdf = &fixed[0];
    let ws = &fixed[1];
    assert_ne!(
        pdf.cycles, ws.cycles,
        "phases collapsed — the DAG lost its trade-off"
    );
    assert_eq!(pdf.migrations, 0, "pdf has no migration concept");
    // ...and the adaptive run actually used both modes: it migrated work
    // (deque phase) yet stayed under the pure deque policy's churn.
    assert!(adaptive.migrations > 0, "adaptive never entered deque mode");
    assert!(
        adaptive.migrations < ws.migrations,
        "adaptive should steal less than always-deques ws ({} vs {})",
        adaptive.migrations,
        ws.migrations
    );
}
