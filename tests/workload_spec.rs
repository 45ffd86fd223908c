//! Cross-crate tests for the `WorkloadSpec` API: `FromStr`/`Display`
//! round-trips (property-tested), error reporting, registry extension, and
//! the canonical workload string's journey through sweep reports and
//! job-stream JSONL records.

use pdfws::prelude::*;
use pdfws::stream::{run_stream_sim, StreamConfig};
use proptest::prelude::*;

/// Build a valid workload spec string from raw fuzz input.  `mask` selects
/// which optional parameters appear; `a`/`b` supply values; `order` scrambles
/// the parameter order (round-tripping must not depend on it).
fn spec_string(workload: usize, mask: u8, a: u64, b: u64, order: bool) -> String {
    let mut params: Vec<String> = Vec::new();
    let name = match workload % 5 {
        0 => {
            if mask & 1 != 0 {
                params.push(format!("n={}", (a % 4096).max(2)));
            }
            if mask & 2 != 0 {
                params.push(format!("grain={}", (b % 512).max(1)));
            }
            if mask & 4 != 0 {
                params.push(format!("leaf-instr={}", a % 40 + 1));
            }
            "mergesort"
        }
        1 => {
            if mask & 1 != 0 {
                params.push(format!("rows={}", (a % 2048).max(1)));
            }
            if mask & 2 != 0 {
                params.push(format!("nnz-per-row={}", b % 16 + 1));
            }
            if mask & 4 != 0 {
                params.push(format!("seed={a}"));
            }
            "spmv"
        }
        2 => {
            if mask & 1 != 0 {
                params.push(format!("depth={}", a % 6));
            }
            if mask & 2 != 0 {
                params.push(format!("fanout={}", b % 4 + 1));
            }
            if mask & 4 != 0 {
                // Limited to tenths so the decimal rendering is already canonical.
                params.push(format!("shared-fraction=0.{}", a % 10));
            }
            "synthetic"
        }
        3 => {
            if mask & 1 != 0 {
                // Power-of-two dimension, as the factory requires.
                params.push(format!("n={}", 1u64 << (a % 8 + 1)));
            }
            if mask & 2 != 0 {
                params.push(format!("coarse={}", b % 8 + 1));
            }
            "matmul"
        }
        _ => {
            if mask & 1 != 0 {
                params.push(format!("items={}", (a % 8192).max(1)));
            }
            if mask & 2 != 0 {
                params.push(format!("grain={}", (b % 1024).max(1)));
            }
            "compute-kernel"
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
        workload in prop::sample::select((0usize..5).collect::<Vec<_>>()),
        mask in prop::sample::select((0u8..8).collect::<Vec<_>>()),
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
        order in prop::sample::select(vec![false, true]),
    ) {
        let raw = spec_string(workload, mask, a, b, order);
        let spec: WorkloadSpec = raw.parse().unwrap_or_else(|e| panic!("'{raw}': {e}"));
        // Display -> FromStr is the identity on the parsed value...
        let redisplayed: WorkloadSpec = spec.to_string().parse().unwrap();
        prop_assert_eq!(&redisplayed, &spec);
        // ...and the canonical form is a fixed point of another round trip.
        prop_assert_eq!(redisplayed.to_string(), spec.to_string());
        // Parameter order in the input must not matter.
        let scrambled: WorkloadSpec = spec_string(workload, mask, a, b, !order).parse().unwrap();
        prop_assert_eq!(scrambled, spec);
    }
}

#[test]
fn unknown_workload_and_parameter_errors_are_helpful() {
    let err = "quantum-sort".parse::<WorkloadSpec>().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown workload 'quantum-sort'"), "{msg}");
    for known in ["mergesort", "spmv", "synthetic", "compute-kernel"] {
        assert!(msg.contains(known), "{msg} should list '{known}'");
    }

    let err = "spmv:cols=4".parse::<WorkloadSpec>().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("workload 'spmv' has no parameter 'cols'"),
        "{msg}"
    );
    assert!(msg.contains("rows"), "{msg} should list the known key");

    let err = "mergesort:n".parse::<WorkloadSpec>().unwrap_err();
    assert!(err.to_string().contains("expected key=value"), "{err}");

    let err = "scan:n=-1".parse::<WorkloadSpec>().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("invalid value '-1'"), "{msg}");
    assert!(msg.contains("unsigned integer"), "{msg}");

    // Structural constraints surface at parse time, not as build panics.
    let err = "matmul:n=100".parse::<WorkloadSpec>().unwrap_err();
    assert!(err.to_string().contains("power of two"), "{err}");
}

#[test]
fn sweep_grids_accept_workload_spec_strings() {
    let sweep = SweepRunner::sequential()
        .run(
            &SweepGrid::new()
                .workload_str("mergesort")
                .unwrap()
                .workload_str("scan:n=2048")
                .unwrap()
                .cores(&[2])
                .specs(&[SchedulerSpec::pdf()]),
        )
        .unwrap();
    let names: Vec<&str> = sweep
        .reports()
        .iter()
        .map(|r| r.workload.as_str())
        .collect();
    assert_eq!(names, ["mergesort", "scan:n=2048"]);
    // Name-part lookup finds parameterized reports too.
    assert!(sweep.for_workload("scan").is_some());
    let err = SweepGrid::new().workload_str("nope").unwrap_err();
    assert!(matches!(err, ExperimentError::Workload(_)), "{err}");
    assert!(err.to_string().contains("unknown workload"), "{err}");

    // An exact match wins over an earlier base-name match regardless of order.
    let sweep = SweepRunner::sequential()
        .run(
            &SweepGrid::new()
                .workload_str("mergesort:n=512")
                .unwrap()
                .workload_str("mergesort")
                .unwrap()
                .cores(&[2])
                .specs(&[SchedulerSpec::pdf()]),
        )
        .unwrap();
    assert_eq!(
        sweep.for_workload("mergesort").unwrap().workload,
        "mergesort"
    );
    assert_eq!(
        sweep.for_workload("mergesort:n=512").unwrap().workload,
        "mergesort:n=512"
    );
}

#[test]
fn job_records_preserve_the_canonical_workload_string_through_jsonl() {
    let mix = JobMix::from_specs("sorts", &[("mergesort:n=512", 1), ("spmv:rows=128", 1)]).unwrap();
    let mut cfg = StreamConfig::new(4, SchedulerSpec::pdf());
    cfg.quantum_cycles = 8_000;
    let outcome = run_stream_sim(&mix, 6, &cfg).unwrap();
    let jsonl = outcome.to_jsonl();
    assert_eq!(jsonl.lines().count(), 6);
    for (record, line) in outcome.records.iter().zip(jsonl.lines()) {
        let written = format!("\"workload\":\"{}\"", record.workload.canonical());
        assert!(line.contains(&written), "{line}");
        // The per-job spec carries the sampled scale and seed, so it rebuilds
        // the exact job DAG.
        let again: WorkloadSpec = record.workload.canonical().parse().unwrap();
        assert_eq!(again, record.workload);
    }
    // Both spec axes travel as canonical strings in the same record.
    let line = jsonl.lines().next().unwrap();
    assert!(line.contains("\"workload\":\""), "{line}");
    assert!(line.contains("\"scheduler\":\"pdf\""), "{line}");
}

#[test]
fn custom_workloads_register_and_run_through_the_experiment_api() {
    use pdfws::task_dag::builder::SpTree;
    use pdfws::task_dag::TaskDag;
    use std::sync::Arc;

    /// A flat fork-join of `width` equal leaves.
    struct FlatPar {
        width: u64,
    }
    impl Workload for FlatPar {
        fn name(&self) -> &'static str {
            "test-flatpar"
        }
        fn class(&self) -> WorkloadClass {
            WorkloadClass::ComputeBound
        }
        fn build_dag(&self) -> TaskDag {
            SpTree::Par(
                (0..self.width)
                    .map(|i| SpTree::leaf(&format!("leaf{i}"), 1_000))
                    .collect(),
            )
            .into_dag()
            .unwrap()
        }
        fn data_bytes(&self) -> u64 {
            64
        }
    }
    struct FlatParFactory;
    impl SpecFamily for FlatParFactory {
        fn name(&self) -> &'static str {
            "test-flatpar"
        }
        fn doc(&self) -> &'static str {
            "flat fork-join (test workload)"
        }
        fn params(&self) -> &'static [ParamSpec] {
            &[ParamSpec {
                key: "width",
                kind: ParamKind::U64,
                doc: "parallel leaves",
            }]
        }
    }
    impl WorkloadFactory for FlatParFactory {
        fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload> {
            Box::new(FlatPar {
                width: spec.u64_param("width").unwrap_or(8),
            })
        }
    }

    WorkloadRegistry::global().register(Arc::new(FlatParFactory));
    let grid = SweepGrid::new()
        .workload_str("test-flatpar:width=16")
        .expect("registered name parses")
        .cores(&[2])
        .specs(&[SchedulerSpec::pdf()]);
    let sweep = SweepRunner::from_env().run(&grid).unwrap();
    let report = &sweep.reports()[0];
    assert_eq!(report.workload, "test-flatpar:width=16");
    let run = report.find(2, &SchedulerSpec::pdf()).unwrap();
    assert_eq!(run.metrics.tasks, 16 + 2, "fork + 16 leaves + join");
    // The custom name also serves job streams.
    let mix = JobMix::from_specs("custom", &[("test-flatpar:width=4", 1)]).unwrap();
    let mut cfg = StreamConfig::new(2, SchedulerSpec::ws());
    cfg.quantum_cycles = 8_000;
    let outcome = run_stream_sim(&mix, 3, &cfg).unwrap();
    assert_eq!(outcome.records.len(), 3);
    assert!(outcome
        .records
        .iter()
        .all(|r| r.workload.name() == "test-flatpar"));
}
