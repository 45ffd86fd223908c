//! Byte-for-byte pin of the serving loop.
//!
//! A handful of small serving runs cover every path through the loop: each
//! open-loop arrival process, arrivals tying with autoscale ticks
//! (`uniform:gap=50000` against the 50k-cycle interval), level changes while
//! jobs are in flight, shedding off, autoscale off, a tighter headroom and a
//! three-tenant spec.  Each run prints the `{:?}` of its `ServeReport`
//! (floats in shortest round-trip form, so equal text means equal bits), and
//! one traced overload run prints every event it emitted.  Any change to
//! dispatch order, fluid progress, rescaling or admission shows up as a
//! golden diff — regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test serve_golden` and review it.

use pdfws::prelude::*;
use pdfws::serve::{
    parse_tenants, run_serve, run_serve_traced, ArrivalSpec, ServeConfig, ServeReport,
};
use pdfws::trace::EventTrace;
use std::fmt::Write;

const TRIO: &str =
    "api:p99=1500000,weight=4+analytics:mix=mixed,slo=batch+bulk:mix=class-b,slo=batch";

/// A 4-core tier (ladder 1/2/4), its job classes calibrated by exact
/// simulation.
fn cfg(arrivals: &str, jobs: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(4, SchedulerSpec::pdf());
    cfg.jobs = jobs;
    cfg.arrivals = arrivals
        .parse::<ArrivalSpec>()
        .expect("registered arrival spec");
    cfg.seed = 17;
    cfg
}

fn render() -> String {
    let mut runs: Vec<(&str, ServeConfig)> = vec![
        ("poisson-light-autoscale", cfg("poisson:rate=2", 1_500)),
        ("poisson-near-capacity", cfg("poisson:rate=10", 3_000)),
        ("uniform-ties-ticks", cfg("uniform:gap=50000", 2_000)),
        ("pareto", cfg("pareto:alpha=1.5,rate=10", 3_000)),
        (
            "burst",
            cfg("burst:period=4000000,duty=0.25,hi=32,lo=0.5", 3_000),
        ),
        (
            "diurnal",
            cfg("diurnal:period=20000000,mean=10,amp=0.8", 3_000),
        ),
    ];
    let mut no_shed = cfg("poisson:rate=400", 2_000);
    no_shed.shedding = false;
    runs.push(("overload-no-shed", no_shed));
    let mut pinned = cfg("poisson:rate=400", 5_000);
    pinned.autoscale = None;
    runs.push(("overload-no-autoscale", pinned));
    let mut tight = cfg("poisson:rate=3", 3_000);
    tight.slo_headroom = 0.5;
    runs.push(("headroom-0.5", tight));
    let mut trio = cfg("poisson:rate=10", 3_000);
    trio.tenants = parse_tenants(TRIO).expect("three-tenant spec");
    runs.push(("three-tenants", trio));

    let mut out = String::new();
    for (name, cfg) in &runs {
        let report = run_serve(cfg).expect("serve run");
        assert_covers_its_path(name, cfg, &report);
        writeln!(out, "== {name} arrivals={} jobs={}", cfg.arrivals, cfg.jobs).unwrap();
        writeln!(out, "{report:?}").unwrap();
    }

    let traced_cfg = cfg("poisson:rate=400", 100);
    let mut trace = EventTrace::new();
    let report = run_serve_traced(&traced_cfg, &mut trace).expect("traced serve run");
    assert_covers_its_path("traced overload", &traced_cfg, &report);
    writeln!(out, "== traced overload arrivals=poisson:rate=400 jobs=100").unwrap();
    writeln!(out, "{report:?}").unwrap();
    for event in trace.events() {
        writeln!(out, "{event:?}").unwrap();
    }
    out
}

/// Each run must exercise the path its name promises, or the golden would
/// pin a loop that never sheds or never rescales.
fn assert_covers_its_path(name: &str, cfg: &ServeConfig, report: &ServeReport) {
    const SHEDDING: &[&str] = &[
        "poisson-near-capacity",
        "pareto",
        "burst",
        "diurnal",
        "headroom-0.5",
        "three-tenants",
    ];
    if name.contains("light") {
        assert_eq!(report.shed, 0, "{name}: a light load must admit every job");
    }
    if SHEDDING.contains(&name) {
        assert!(report.shed > 0, "{name}: the run never sheds");
    }
    if cfg.autoscale.is_some() {
        assert!(report.scale_events > 0, "{name}: the autoscaler never acts");
    }
}

#[test]
fn serving_reports_match_the_golden_file() {
    let text = render();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/serve_reports.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden reports");
        return;
    }
    assert_eq!(
        text,
        include_str!("golden/serve_reports.txt"),
        "serving reports changed (UPDATE_GOLDEN=1 to regenerate)"
    );
}
