//! Cross-crate integration tests for the serving tier (`pdfws-serve`),
//! through the umbrella crate's public API: SLO-holding under overload,
//! end-to-end determinism, autoscaling, the arrival-spec axis, and the
//! sustained constant-state serving path.

use pdfws::prelude::*;
use pdfws::serve::{parse_tenants, run_serve, ArrivalSpec, AutoscalePolicy, ServeConfig};
use std::sync::mpsc;
use std::time::Duration;

fn base_cfg(jobs: usize, rate: f64) -> ServeConfig {
    let mut cfg = ServeConfig::new(4, SchedulerSpec::pdf());
    cfg.jobs = jobs;
    cfg.arrivals = ArrivalSpec::poisson(rate);
    cfg.autoscale = None;
    cfg
}

#[test]
fn shedding_holds_the_slo_where_the_baseline_violates_it() {
    let mut cfg = base_cfg(600, 1_000.0);
    let shed = run_serve(&cfg).unwrap();
    assert!(
        shed.shed_rate() > 0.2,
        "deep overload must shed: {}",
        shed.shed_rate()
    );
    assert!(
        shed.worst_p99_over_target() <= 1.0,
        "admitted p99 must stay inside every tenant's SLO: {}",
        shed.worst_p99_over_target()
    );
    cfg.shedding = false;
    let baseline = run_serve(&cfg).unwrap();
    assert_eq!(baseline.shed, 0);
    assert!(
        baseline.worst_p99_over_target() > 1.0,
        "without shedding the same load must violate the SLO: {}",
        baseline.worst_p99_over_target()
    );
}

/// Past 2^53 cycles a head's completion time `now + remaining` can round
/// back to `now`, where no fluid progress is possible.  Here arrivals 2^51
/// cycles apart and a cooldown holding the tier at two cores until
/// 2^53 + 2^52 + 2^50 leave a head at 1.0 remaining cycles on an even cycle;
/// the loop must retire it rather than spin.  The run happens on its own
/// thread so a regression fails the test instead of hanging the suite.
#[test]
fn a_head_whose_completion_rounds_to_now_retires_past_2_53_cycles() {
    let mut cfg = ServeConfig::new(4, SchedulerSpec::pdf());
    cfg.jobs = 8;
    cfg.arrivals = "uniform:gap=2251799813685248".parse().unwrap();
    cfg.seed = 17;
    cfg.autoscale = Some(AutoscalePolicy {
        interval_cycles: (1 << 40) - 1,
        cooldown_cycles: (1 << 53) + (1 << 52) + (1 << 50),
        ..AutoscalePolicy::for_cores(4)
    });
    let (done, report) = mpsc::channel();
    let run = std::thread::spawn(move || {
        // Fails only once the test has stopped waiting.
        let _ = done.send(run_serve(&cfg));
    });
    let report = report.recv_timeout(Duration::from_secs(300));
    assert!(
        !matches!(report, Err(mpsc::RecvTimeoutError::Timeout)),
        "the serving loop stalled past 2^53 cycles"
    );
    run.join().expect("the serving run does not panic");
    let report = report.expect("the run sent its report").unwrap();
    assert_eq!(report.completed + report.shed, 8);
    assert!(report.makespan_cycles > 1 << 53);
}

#[test]
fn serving_runs_are_deterministic_end_to_end() {
    let mut cfg = base_cfg(300, 80.0);
    cfg.tenants = parse_tenants("api:weight=4,p99=1500000+bulk:slo=batch,mix=class-b").unwrap();
    let a = run_serve(&cfg).unwrap();
    let b = run_serve(&cfg).unwrap();
    assert_eq!(a, b, "same config must reproduce the full report");
    cfg.seed ^= 1;
    let c = run_serve(&cfg).unwrap();
    assert_ne!(a, c, "a different seed must change the run");
}

#[test]
fn the_autoscaler_powers_down_a_light_load() {
    let mut cfg = ServeConfig::new(8, SchedulerSpec::pdf());
    cfg.jobs = 200;
    cfg.arrivals = ArrivalSpec::poisson(1.0);
    let report = run_serve(&cfg).unwrap();
    assert!(report.scale_events > 0, "light load must trigger scaling");
    assert!(
        report.final_cores < 8,
        "the tier should end below full capacity, got {}",
        report.final_cores
    );
    assert!(report.mean_active_cores < 8.0);
}

#[test]
fn every_open_loop_arrival_process_serves_end_to_end() {
    for spec in [
        "poisson:rate=60",
        "uniform:gap=15000",
        "pareto:alpha=1.5,rate=60",
        "burst:period=200000,duty=0.25,hi=120,lo=10",
        "diurnal",
    ] {
        let mut cfg = base_cfg(150, 60.0);
        cfg.arrivals = spec.parse().unwrap();
        let report = run_serve(&cfg).unwrap();
        assert_eq!(report.offered, 150, "{spec}");
        assert_eq!(
            report.completed + report.shed,
            report.offered,
            "{spec}: every offered job must complete or shed"
        );
    }
}

#[test]
fn sustained_runs_keep_constant_size_state() {
    // 40k jobs through the full admission + dispatch + autoscale path.  The
    // report's only per-event artifacts are capped (scale log) or streaming
    // (quantiles), so this scales to 10⁶⁺ jobs in the CI memory smoke.
    let mut cfg = ServeConfig::new(8, SchedulerSpec::pdf());
    cfg.jobs = 40_000;
    cfg.arrivals = ArrivalSpec::poisson(120.0);
    let report = run_serve(&cfg).unwrap();
    assert_eq!(report.offered, 40_000);
    assert_eq!(report.completed + report.shed, report.offered);
    assert!(
        report.scale_log.len() <= 32,
        "scale log must stay capped: {}",
        report.scale_log.len()
    );
    for tenant in &report.tenants {
        assert_eq!(
            tenant.offered,
            tenant.completed + tenant.shed,
            "{}: per-tenant conservation",
            tenant.name
        );
        assert!(tenant.sojourn.p50 <= tenant.sojourn.p95, "{}", tenant.name);
        assert!(tenant.sojourn.p95 <= tenant.sojourn.p99, "{}", tenant.name);
        assert!(tenant.goodput_jobs_per_mcycle > 0.0, "{}", tenant.name);
    }
}
