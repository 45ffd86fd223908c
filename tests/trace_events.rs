//! Determinism tests for the tracing layer: the exported Perfetto JSON of a
//! fixed cell is pinned byte-for-byte as a golden file, is byte-identical for
//! every `SweepRunner` thread count, and a property test checks that every
//! traced run's event stream is monotone non-decreasing in time per core.

use pdfws::prelude::*;
use pdfws::schedulers::simulate_traced;
use pdfws::trace::{chrome_trace_json, TraceEvent, TraceTrack};
use pdfws_cmp_model::default_config;
use pdfws_core::sweep::SweepRunner;
use proptest::prelude::*;

const GOLDEN_CORES: usize = 4;

/// The fixed cell the golden file pins: a small merge sort under the paper
/// pair at 4 cores, one process track per scheduler.
fn golden_trace_json(threads: usize) -> String {
    let workload = WorkloadInstance::from_spec(&"mergesort:n=4096".parse().unwrap());
    let config = default_config(GOLDEN_CORES).expect("default configuration");
    let specs = SchedulerSpec::paper_pair();
    let options = SimOptions::default();
    let cells: Vec<(SimResult, Vec<TraceEvent>)> = SweepRunner::new(threads)
        .run_cells(specs.len(), |i| {
            simulate_traced(&workload.dag, &config, &specs[i], &options)
        });
    let tracks: Vec<TraceTrack> = specs
        .iter()
        .zip(&cells)
        .enumerate()
        .map(|(i, (spec, (_, events)))| {
            TraceTrack::new(
                (i + 1) as u64,
                format!("{spec} · mergesort:n=4096 @ {GOLDEN_CORES} cores"),
                GOLDEN_CORES,
                events.clone(),
            )
        })
        .collect();
    chrome_trace_json(&tracks)
}

// Any change to the simulator's event stream *or* to the exporter's
// formatting shows up as a golden diff — regenerate with
// `UPDATE_GOLDEN=1 cargo test --test trace_events` and review it.
#[test]
fn perfetto_export_matches_the_golden_file() {
    let json = golden_trace_json(1);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/small_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden trace");
        return;
    }
    assert_eq!(
        json,
        include_str!("golden/small_trace.json"),
        "Perfetto export of the golden cell changed (UPDATE_GOLDEN=1 to regenerate)"
    );
}

#[test]
fn perfetto_export_is_byte_identical_across_sweep_thread_counts() {
    let sequential = golden_trace_json(1);
    for threads in [2, 4] {
        assert_eq!(
            golden_trace_json(threads),
            sequential,
            "trace JSON differs on {threads} sweep threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Every traced run's timestamps are monotone non-decreasing overall (the
    // engine stamps events as it advances its clock) and hence per core.
    #[test]
    fn traced_event_times_are_monotone_per_core(
        n in 256u64..2048,
        cores in prop::sample::select(vec![1usize, 2, 4, 8]),
        spec in prop::sample::select(vec!["pdf", "ws", "hybrid", "static"]),
    ) {
        let workload = WorkloadInstance::from_spec(
            &format!("mergesort:n={n}").parse().unwrap(),
        );
        let config = default_config(cores).expect("default configuration");
        let (_, events) = simulate_traced(
            &workload.dag,
            &config,
            &spec.parse().unwrap(),
            &SimOptions::default(),
        );
        prop_assert!(!events.is_empty());
        let mut last_per_core = vec![0u64; cores];
        for event in &events {
            if let Some(core) = event.core() {
                prop_assert!(core < cores, "event names core {core} of {cores}");
                prop_assert!(
                    event.time() >= last_per_core[core],
                    "timestamps regress on core {core}: {} after {}",
                    event.time(),
                    last_per_core[core],
                );
                last_per_core[core] = event.time();
            }
        }
    }
}
