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
//!
//! A second block, after the traced run, pins the paths of the loop's quiet
//! autoscale ticks (ticks that cannot change the level, taken in one tight
//! loop): long idle gaps at the bottom rung, quiet stretches with jobs in
//! flight that end at a completion, at an arrival or at the end of a
//! cooldown, ticks that tie with completions, a one-rung ladder, and a clock
//! past 2^53 cycles, where tick times stop being exact as `f64`.
//!
//! A last traced run pins two tenants' head jobs finishing on the same
//! cycle, which one completion event retires together.

use pdfws::prelude::*;
use pdfws::serve::{
    parse_tenants, run_serve, run_serve_traced, ArrivalSpec, AutoscalePolicy, ServeConfig,
    ServeReport,
};
use pdfws::trace::{EventTrace, TraceEvent};
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

    for (name, cfg) in &quiet_tick_runs() {
        let report = run_serve(cfg).expect("serve run");
        assert_covers_its_path(name, cfg, &report);
        writeln!(out, "== {name} arrivals={} jobs={}", cfg.arrivals, cfg.jobs).unwrap();
        writeln!(out, "{report:?}").unwrap();
    }

    let pair_cfg = simultaneous_completions();
    let mut trace = EventTrace::new();
    let report = run_serve_traced(&pair_cfg, &mut trace).expect("traced serve run");
    assert_covers_its_path("simultaneous completions", &pair_cfg, &report);
    let completions: Vec<u64> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::JobComplete { t, .. } => Some(*t),
            _ => None,
        })
        .collect();
    assert!(
        completions.windows(2).any(|w| w[0] == w[1]),
        "simultaneous completions: no two jobs finish on one cycle"
    );
    writeln!(
        out,
        "== simultaneous-completions arrivals={} jobs={} seed={}",
        pair_cfg.arrivals, pair_cfg.jobs, pair_cfg.seed
    )
    .unwrap();
    writeln!(out, "{report:?}").unwrap();
    for event in trace.events() {
        writeln!(out, "{event:?}").unwrap();
    }
    out
}

/// Two equal-weight tenants on the same mix (whose calibrated shapes match
/// across tenants), every job queued on cycle 0 and none shed: when both
/// heads start together on the same shape they run at the same rate and
/// finish on the same cycle.  The seed is one where that happens three times.
fn simultaneous_completions() -> ServeConfig {
    let mut pair = cfg("poisson:rate=100000000", 40);
    pair.tenants = parse_tenants("a:mix=class-b+b:mix=class-b").expect("two-tenant spec");
    pair.shedding = false;
    pair.seed = 248;
    pair
}

/// The 4-core tier's ladder (1/2/4 cores) under a custom evaluation interval
/// and cooldown.
fn ladder(interval_cycles: u64, cooldown_cycles: u64) -> Option<AutoscalePolicy> {
    Some(AutoscalePolicy {
        interval_cycles,
        cooldown_cycles,
        ..AutoscalePolicy::for_cores(4)
    })
}

/// Runs whose autoscale ticks mostly change nothing, each shaped so one way
/// a stretch of such ticks can end is common.
fn quiet_tick_runs() -> Vec<(&'static str, ServeConfig)> {
    // Gaps of ~400 ticks with the tier idle on its bottom rung.
    let idle = cfg("poisson:rate=0.05", 200);
    // A 5k-cycle interval under a 2M-cycle cooldown: long quiet stretches
    // with jobs in flight, ended by completions, arrivals and cooldowns.
    let mut in_flight = cfg("poisson:rate=6", 1_500);
    in_flight.autoscale = ladder(5_000, 2_000_000);
    // One tenant's head runs at rate 1, so a job admitted at a whole cycle
    // with no rescale in flight finishes on a whole cycle, and a 1-cycle
    // interval puts a tick there; some of those ticks change the level.
    let mut ties = cfg("poisson:rate=10", 80);
    ties.tenants = parse_tenants("solo").expect("one-tenant spec");
    ties.autoscale = ladder(1, 300_000);
    // Nowhere to step: every tick is quiet.
    let mut one_rung = cfg("poisson:rate=10", 1_000);
    one_rung.autoscale = Some(AutoscalePolicy {
        levels: vec![4],
        ..AutoscalePolicy::for_cores(4)
    });
    // Arrivals 2^51 cycles apart pass 2^53 from the fifth job on.  There an
    // odd tick time is not an `f64`: with a 2^40 - 1 cycle interval each one
    // rounds up a cycle and the schedule drifts with it (the large interval
    // keeps the tick count small).  The cooldown holds the tier at two cores
    // until 2^53 + 2^45 cycles, so the step down lands on a drifted tick.
    let mut past_2_53 = cfg("uniform:gap=2251799813685248", 8);
    past_2_53.autoscale = ladder((1 << 40) - 1, (1 << 53) + (1 << 45));
    vec![
        ("idle-gaps-bottom-rung", idle),
        ("quiet-while-busy", in_flight),
        ("ticks-tie-completions", ties),
        ("one-rung", one_rung),
        ("past-2^53-cycles", past_2_53),
    ]
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
    if cfg.autoscale.as_ref().is_some_and(|p| p.levels.len() > 1) {
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
