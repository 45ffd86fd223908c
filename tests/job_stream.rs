//! Cross-crate integration tests for the job-stream subsystem, through the
//! umbrella crate's public API.

use pdfws::prelude::*;
use pdfws::stream::{run_stream_sim, StreamConfig};

#[test]
fn same_seed_reproduces_admit_cycles_and_sojourn_times() {
    let mix = JobMix::mixed();
    for spec in SchedulerSpec::paper_pair() {
        let mut cfg = StreamConfig::new(4, spec.clone());
        cfg.quantum_cycles = 8_000;
        cfg.arrivals = ArrivalSpec::poisson(80.0);
        cfg.arrival_seed = 21;
        let a = run_stream_sim(&mix, 10, &cfg).unwrap();
        let b = run_stream_sim(&mix, 10, &cfg).unwrap();
        let admits = |o: &StreamOutcome| -> Vec<(u64, u64)> {
            o.records.iter().map(|r| (r.id, r.admit_cycle)).collect()
        };
        assert_eq!(admits(&a), admits(&b), "{spec}");
        let sojourns_a: Vec<u64> = a.records.iter().map(|r| r.sojourn_cycles).collect();
        let sojourns_b: Vec<u64> = b.records.iter().map(|r| r.sojourn_cycles).collect();
        assert_eq!(sojourns_a, sojourns_b, "{spec}");
        assert_eq!(a, b, "{spec}: full outcomes must be bit-identical");
    }
}

#[test]
fn different_seeds_change_the_stream() {
    let mix = JobMix::class_a();
    let mut cfg = StreamConfig::new(4, SchedulerSpec::pdf());
    cfg.quantum_cycles = 8_000;
    let a = run_stream_sim(&mix, 8, &cfg).unwrap();
    cfg.seed += 1;
    let b = run_stream_sim(&mix, 8, &cfg).unwrap();
    assert_ne!(a, b);
}

#[test]
fn open_loop_respects_the_slot_limit() {
    let mix = JobMix::class_b();
    let mut cfg = StreamConfig::new(4, SchedulerSpec::pdf());
    cfg.quantum_cycles = 8_000;
    cfg.max_concurrent = 2;
    // One arrival per cycle: a backlog builds at once.
    cfg.arrivals = ArrivalSpec::uniform(1);
    let outcome = run_stream_sim(&mix, 9, &cfg).unwrap();
    assert_eq!(outcome.records.len(), 9);
    assert!(outcome.peak_concurrency <= 2);
    // With an instantaneous backlog, later jobs must have queued.
    assert!(outcome.records.iter().any(|r| r.queue_cycles > 0));
}

#[test]
fn stream_experiment_compares_the_paper_pair() {
    let report = StreamExperiment::new(JobMix::class_a())
        .jobs(8)
        .cores(4)
        .quantum_cycles(8_000)
        .arrivals(ArrivalSpec::poisson(60.0))
        .arrival_seed(5)
        .run()
        .unwrap();
    let pdf = report.summary(&SchedulerSpec::pdf()).unwrap();
    let ws = report.summary(&SchedulerSpec::ws()).unwrap();
    assert_eq!(pdf.jobs, 8);
    assert_eq!(ws.jobs, 8);
    assert!(pdf.sojourn.p99 >= pdf.sojourn.p50);
    assert!(pdf.jobs_per_mcycle > 0.0);
    assert!(pdf.mean_l2_mpki >= 0.0);
    assert!(report.ws_over_pdf_p95().unwrap() > 0.0);
}

#[test]
fn parameterized_specs_drive_the_stream_and_round_trip_through_jsonl() {
    // A parameterized spec must thread through the whole stream path: config ->
    // per-job engines -> records -> JSONL, arriving as its canonical string
    // (not a lossy short name).
    let spec: SchedulerSpec = "ws:victim=random,seed=7".parse().unwrap();
    let mix = JobMix::class_b();
    let mut cfg = StreamConfig::new(4, spec.clone());
    cfg.quantum_cycles = 8_000;
    let outcome = run_stream_sim(&mix, 6, &cfg).unwrap();
    assert_eq!(outcome.scheduler, spec);
    for r in &outcome.records {
        assert_eq!(r.scheduler, spec, "job {} lost its spec", r.id);
    }
    let jsonl = outcome.to_jsonl();
    assert_eq!(jsonl.lines().count(), 6);
    assert!(
        jsonl.contains("\"scheduler\":\"ws:seed=7,victim=random\""),
        "records must carry the canonical spec string: {jsonl}"
    );
}

#[test]
fn tenant_and_slo_class_thread_through_records_and_jsonl() {
    // Every sampled job carries its tenant (mix-entry index) and that
    // tenant's SLO class, and both are written to JSONL — the serving tier's
    // per-tenant attribution rides on these fields.
    let mix = JobMix::class_a().with_slo_classes(&["latency", "latency", "batch"]);
    let mut cfg = StreamConfig::new(4, SchedulerSpec::pdf());
    cfg.quantum_cycles = 8_000;
    let outcome = run_stream_sim(&mix, 12, &cfg).unwrap();
    for r in &outcome.records {
        assert!((r.tenant as usize) < mix.tenants(), "job {}", r.id);
        assert_eq!(
            r.slo_class,
            mix.slo_classes()[r.tenant as usize],
            "job {} must carry its tenant's SLO class",
            r.id
        );
    }
    assert!(outcome.records.iter().any(|r| r.slo_class == "latency"));
    let jsonl = outcome.to_jsonl();
    assert!(jsonl.contains("\"tenant\":"), "records must name a tenant");
    assert!(jsonl.contains("\"slo_class\":\"latency\""));
}

#[test]
fn hybrid_and_hier_ws_serve_streams_end_to_end() {
    // The parameterized policies are first-class citizens of the stream
    // subsystem, not just the single-DAG simulator.
    let mix = JobMix::class_b();
    for spec in ["hybrid:threshold=2", "ws:victim=hier,cluster=1"] {
        let spec: SchedulerSpec = spec.parse().unwrap();
        let mut cfg = StreamConfig::new(4, spec.clone());
        cfg.quantum_cycles = 8_000;
        let outcome = run_stream_sim(&mix, 5, &cfg).unwrap();
        assert_eq!(outcome.records.len(), 5, "{spec}");
        assert!(outcome.summary().sojourn.p99 > 0.0, "{spec}");
    }
}
