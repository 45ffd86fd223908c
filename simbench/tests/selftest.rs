//! Reduced-size self-test: every workload runs end to end and traced at a
//! small size, passes its correctness checks, and prints exactly the metrics
//! `BENCHMARK.json` declares.
//!
//! `cargo test --release --manifest-path simbench/Cargo.toml`

use simbench::{result_json, run, Outcome, Params, Size, Trace, Workload};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("the array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

fn run_reduced(workload: Workload, trace: Trace) -> Outcome {
    let out = run(&Params {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Reduced,
    });
    assert!(
        out.checks.attempted > 0,
        "{}: no checks ran",
        workload.name()
    );
    assert!(
        out.checks.failures.is_empty(),
        "{}: {:?}",
        workload.name(),
        out.checks.failures
    );
    out
}

fn names(out: &Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_prints_the_declared_metrics_and_passes_its_checks() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in Workload::ALL {
        let e2e = run_reduced(workload, Trace::Off);
        assert_eq!(names(&e2e), end_to_end, "{}", workload.name());
        for m in &e2e.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: end-to-end metric {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let traced = run_reduced(workload, Trace::On);
        assert_eq!(names(&traced), per_layer, "{}", workload.name());
        let spans = traced.spans_file.as_ref().expect("traced runs write spans");
        assert!(std::fs::metadata(spans).is_ok_and(|m| m.len() > 0));

        let json = result_json(&e2e);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(json.contains("\"setup_s\": {\"value\": "));
    }
}
