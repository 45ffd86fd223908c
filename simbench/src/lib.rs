//! One-command benchmark of the pdfws simulator.
//!
//! Three workloads, each run from one process with at most two sweep workers:
//!
//! * `fig1-l2x` — the Figure-1 merge sort at 4 Mi keys (64 MiB, four times the
//!   16 MiB L2) with exact caches and the bus+DRAM memory system: 1-core
//!   baseline plus `pdf`/`ws` at 8 and 32 cores.
//! * `zoo-finegrain` — a steal-heavy nested parallel-for under eight
//!   scheduler specs at 8 and 32 cores; its working set fits in L2.
//! * `serve-mixed` — the serving tier's light and overload phases, four
//!   million offered jobs each.
//!
//! The end-to-end run ([`Trace::Off`]) calls only each workload's entry point
//! and measures it repeatedly for the requested time.  The traced run
//! ([`Trace::On`]) repeats the workload once inside spans around every call
//! the benchmark makes into a layer, adds the outside-in layer replays of
//! [`replay`], and reports per-layer metrics and self times.  See
//! `README.md` for the workload → layer → metric map.

pub mod replay;
pub mod spans;

use pdfws_cmp_model::default_config;
use pdfws_core::{ExperimentReport, SweepGrid, SweepProfile, SweepRunner, WorkloadInstance};
use pdfws_report::Figure;
use pdfws_schedulers::{simulate_shared, simulate_traced, SchedulerSpec, SimOptions, SimResult};
use pdfws_serve::{run_serve, ArrivalSpec, ServeConfig, ServeReport};
use pdfws_workloads::WorkloadSpec;
use spans::SpanRecorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Sweep workers: the container the benchmark was sized on has two CPUs.
pub const SWEEP_WORKERS: usize = 2;

/// A seed never used while the benchmark or a change was tuned; claims are
/// re-checked on it.
pub const HELD_OUT_SEED: u64 = 20_061_030;

/// The pinned simulated statistics of the full-size `fig1-l2x` cells.
const FIG1_EXPECTED: &str = include_str!("../expected/fig1-l2x.txt");

/// The reference range the model is compared against (PAPER.md, C1/C3):
/// PDF's off-chip traffic reduction over WS at 32 cores.
const PAPER_TRAFFIC_REDUCTION: (f64, f64) = (13.0, 41.0);

/// Zoo scheduler specs by alias; `{seed}` is replaced by the run's seed.
const ZOO_SPECS: [(&str, &str); 8] = [
    ("pdf", "pdf"),
    ("ws", "ws"),
    ("ws-half", "ws:steal=half"),
    ("ws-random", "ws:victim=random,seed={seed}"),
    ("ws-hier", "ws:victim=hier,cluster=4"),
    ("ws-priced", "ws:steal_cycles=64,fail_backoff=128"),
    ("hybrid", "hybrid"),
    ("adaptive", "adaptive"),
];

/// The zoo's specs by alias, `pdf` and `ws` first, seeded with `seed`.
fn zoo_specs(seed: u64) -> Vec<(&'static str, SchedulerSpec)> {
    ZOO_SPECS
        .iter()
        .map(|&(alias, s)| {
            let spec = s.replace("{seed}", &seed.to_string());
            (
                alias,
                spec.parse().expect("the benchmark's scheduler specs parse"),
            )
        })
        .collect()
}

/// The five cells both sweeps run (baseline, then pdf/ws at 8 and 32 cores).
const COMMON_CELLS: [(&str, usize); 5] = [
    ("baseline", 1),
    ("pdf", 8),
    ("ws", 8),
    ("pdf", 32),
    ("ws", 32),
];

/// Layers in span order; each gets a `<layer>.self_s` metric.
pub const LAYERS: [&str; 11] = [
    "bench",
    "task_dag",
    "cache_sim",
    "memsys",
    "policy",
    "engine",
    "sweep",
    "report",
    "serve",
    "metrics",
    "trace",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig1L2x,
    ZooFinegrain,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig1L2x,
        Workload::ZooFinegrain,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1L2x => "fig1-l2x",
            Workload::ZooFinegrain => "zoo-finegrain",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem size: the benchmark's own, or a reduced one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Reduced,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    Off,
    On,
}

#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Trace,
    pub size: Size,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Correctness checks: every check counts as attempted; failures keep
/// their message.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Provenance, regime and result lines for the human-readable report.
    pub notes: Vec<String>,
    /// Where the traced run wrote its spans.
    pub spans_file: Option<PathBuf>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Run one workload as `params` asks.
pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    provenance(params, &mut out);
    match (params.workload, params.trace) {
        (Workload::ServeMixed, Trace::Off) => serve_e2e(params, &mut out),
        (Workload::ServeMixed, Trace::On) => serve_traced(params, &mut out),
        (w, Trace::Off) => sweep_e2e(&SweepDef::new(w, params), params, &mut out),
        (w, Trace::On) => sweep_traced(&SweepDef::new(w, params), params, &mut out),
    }
    out
}

fn provenance(params: &Params, out: &mut Outcome) {
    let commit = git_head().unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.note(format!(
        "provenance: workload={} commit={commit} profile={profile} nproc={nproc} sweep_workers={SWEEP_WORKERS} seed={} held_out_seed={HELD_OUT_SEED} size={:?} trace={:?}",
        params.workload.name(),
        params.seed,
        params.size,
        params.trace
    ));
}

/// The commit `.git` in the working directory points at, read without
/// running git or looking outside the directory.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

// ---------------------------------------------------------------- sweeps --

/// One sweep workload: its spec string, core axis and scheduler specs.
struct SweepDef {
    workload: Workload,
    spec: WorkloadSpec,
    cores: Vec<usize>,
    specs: Vec<(&'static str, SchedulerSpec)>,
    /// Set-up samples taken before each measured repetition.
    setup_per_rep: usize,
}

impl SweepDef {
    fn new(workload: Workload, params: &Params) -> SweepDef {
        let full = params.size == Size::Full;
        let mut specs = zoo_specs(params.seed);
        let (spec, setup_per_rep) = match workload {
            Workload::Fig1L2x => (
                if full {
                    "mergesort:grain=2048,n=4194304"
                } else {
                    "mergesort:grain=2048,n=65536"
                },
                if full { 60 } else { 1 },
            ),
            Workload::ZooFinegrain => (
                if full {
                    "synthetic:depth=3,fanout=64,leaf-instr=200,private-bytes=64,shared-bytes=4096,shared-fraction=0.25,passes=1"
                } else {
                    "synthetic:depth=2,fanout=24,leaf-instr=200,private-bytes=64,shared-bytes=4096,shared-fraction=0.25,passes=1"
                },
                if full { 2 } else { 1 },
            ),
            Workload::ServeMixed => unreachable!("serve-mixed is not a sweep"),
        };
        if workload == Workload::Fig1L2x {
            specs.truncate(2);
        }
        SweepDef {
            workload,
            spec: spec.parse().expect("the benchmark's workload specs parse"),
            cores: vec![8, 32],
            specs,
            setup_per_rep,
        }
    }

    fn grid(&self, instance: &WorkloadInstance) -> SweepGrid {
        let specs: Vec<SchedulerSpec> = self.specs.iter().map(|(_, s)| s.clone()).collect();
        SweepGrid::new()
            .workload(instance.clone())
            .cores(&self.cores)
            .specs(&specs)
    }

    fn alias_of(&self, spec: &SchedulerSpec) -> &'static str {
        self.specs
            .iter()
            .find(|(_, s)| s == spec)
            .map_or("?", |(alias, _)| alias)
    }

    /// Cell name as used in metric names and the expected file.
    fn cell_name(&self, run: Option<&pdfws_core::RunRecord>) -> String {
        match run {
            None => "baseline-1".to_string(),
            Some(r) => format!("{}-{}", self.alias_of(&r.scheduler), r.cores),
        }
    }

    fn note_specs(&self, out: &mut Outcome) {
        let specs: Vec<String> = self
            .specs
            .iter()
            .map(|(alias, s)| format!("{alias}={s}"))
            .collect();
        out.note(format!(
            "specs: workload={} cache=exact memsys=default(bus+dram) cores={:?} schedulers=[{}]",
            self.spec.canonical(),
            self.cores,
            specs.join(", ")
        ));
    }
}

/// Every cell of a report, baseline first, with its name.
fn cells<'a>(def: &SweepDef, report: &'a ExperimentReport) -> Vec<(String, &'a SimResult)> {
    let mut v = vec![(def.cell_name(None), &report.baseline)];
    v.extend(
        report
            .runs()
            .iter()
            .map(|r| (def.cell_name(Some(r)), &r.metrics)),
    );
    v
}

/// `f`'s result and its host time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Host time of one unspanned repetition of the end-to-end run's unit of
/// work, which the traced run's spanned repetition is priced against.  An
/// untimed repetition runs first: the first one in a process pays for page
/// faults and heap growth, which made it up to 12 % slower than the next.
fn warm_rep_s(mut rep: impl FnMut()) -> f64 {
    rep();
    timed(rep).1
}

/// Medians of a measured phase and of its set-up.
struct Measured {
    setup_s: f64,
    run_s: f64,
    /// Every repetition's host time, in run order.
    reps: Vec<f64>,
}

impl Measured {
    fn describe(&self) -> String {
        let reps: Vec<String> = self.reps.iter().map(|s| format!("{s:.3}")).collect();
        format!("{} repetitions, s: {}", self.reps.len(), reps.join(" "))
    }
}

/// Alternate `setup_per_rep` timed set-up samples with one timed repetition
/// until `seconds` have passed (at least one repetition).  Spreading the
/// set-up samples over the whole run lets both medians see the same machine.
fn measure(
    seconds: f64,
    setup_per_rep: usize,
    mut setup: impl FnMut(),
    mut rep: impl FnMut(),
) -> Measured {
    let (mut setups, mut reps) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..setup_per_rep {
            setups.push(timed(&mut setup).1);
        }
        reps.push(timed(&mut rep).1);
    }
    Measured {
        setup_s: median(&mut setups),
        run_s: median(&mut reps.clone()),
        reps,
    }
}

fn sweep_once(grid: &SweepGrid) -> (ExperimentReport, SweepProfile) {
    let (sweep, profile) = SweepRunner::new(SWEEP_WORKERS)
        .run_profiled(grid)
        .expect("the benchmark's grids are valid");
    let report = sweep.into_reports().pop().expect("one workload per grid");
    (report, profile)
}

/// Per-cell checks: DAG totals always, the pinned statistics on the
/// full-size Figure-1 sweep.
fn check_sweep(
    def: &SweepDef,
    report: &ExperimentReport,
    totals: &pdfws_task_dag::analysis::DagAnalysis,
    pins: Option<&BTreeMap<String, Pin>>,
    checks: &mut Checks,
) {
    for (name, r) in cells(def, report) {
        checks.check(r.tasks == totals.tasks, || {
            format!(
                "{name}: ran {} tasks, the DAG has {}",
                r.tasks, totals.tasks
            )
        });
        checks.check(r.memory_accesses == totals.memory_accesses, || {
            format!(
                "{name}: made {} refs, the DAG has {}",
                r.memory_accesses, totals.memory_accesses
            )
        });
        checks.check(r.instructions == totals.work, || {
            format!(
                "{name}: executed {} instructions, the DAG has {}",
                r.instructions, totals.work
            )
        });
        if let Some(pins) = pins {
            let got = Pin::of(r);
            checks.check(pins.get(&name) == Some(&got), || {
                format!(
                    "{name}: simulated statistics moved: got `{}`, pinned `{}`",
                    got.line(&name),
                    pins.get(&name)
                        .map_or("<none>".to_string(), |p| p.line(&name))
                )
            });
        }
    }
}

/// The simulated statistics pinned per `fig1-l2x` cell.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pin {
    cycles: u64,
    l2_misses: u64,
    migrations: u64,
    bus_queue_cycles: u64,
    dram_queue_cycles: u64,
}

impl Pin {
    fn of(r: &SimResult) -> Pin {
        Pin {
            cycles: r.cycles,
            l2_misses: r.hierarchy.l2_misses(),
            migrations: r.migrations,
            bus_queue_cycles: r.bus_queue_cycles,
            dram_queue_cycles: r.dram_queue_cycles,
        }
    }

    fn line(&self, name: &str) -> String {
        format!(
            "{name} {} {} {} {} {}",
            self.cycles,
            self.l2_misses,
            self.migrations,
            self.bus_queue_cycles,
            self.dram_queue_cycles
        )
    }

    fn parse_file(text: &str) -> BTreeMap<String, Pin> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                let n = |i: usize| -> u64 {
                    f.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("malformed expected line `{l}`"))
                };
                (
                    f[0].to_string(),
                    Pin {
                        cycles: n(1),
                        l2_misses: n(2),
                        migrations: n(3),
                        bus_queue_cycles: n(4),
                        dram_queue_cycles: n(5),
                    },
                )
            })
            .collect()
    }
}

/// The regime and result lines shared by both runs of a sweep.
fn note_results(
    def: &SweepDef,
    instance: &WorkloadInstance,
    report: &ExperimentReport,
    out: &mut Outcome,
) {
    let ratios: Vec<String> = def
        .cores
        .iter()
        .map(|&c| {
            let l2 = default_config(c)
                .expect("swept core counts have configs")
                .l2
                .capacity_bytes;
            format!("{c} cores: {:.2}", instance.data_bytes as f64 / l2 as f64)
        })
        .collect();
    out.note(format!(
        "regime: dataset {:.1} MiB; dataset/L2 bytes {}; caches start empty in every cell",
        instance.data_bytes as f64 / (1 << 20) as f64,
        ratios.join(", ")
    ));
    out.note("cells: name cycles l2_misses migrations bus_queue_cycles dram_queue_cycles | l2_mpki speedup");
    for (name, r) in cells(def, report) {
        out.note(format!(
            "  {} | {:.3} {:.2}",
            Pin::of(r).line(&name),
            r.l2_mpki(),
            r.speedup_over(&report.baseline)
        ));
    }
    let (pdf, ws) = (SchedulerSpec::pdf(), SchedulerSpec::ws());
    if let (Some(p), Some(w)) = (report.find(32, &pdf), report.find(32, &ws)) {
        let ratio = p.metrics.l2_mpki() / w.metrics.l2_mpki().max(f64::MIN_POSITIVE);
        out.note(format!(
            "validation: the model is unvalidated against hardware. Reference: PAPER.md C1/C3, {}-{} % less off-chip traffic for pdf at 32 cores. Measured pdf/ws L2 MPKI ratio at 32 cores: {ratio:.2} ({:.0} % less); speedups pdf {:.2}, ws {:.2}",
            PAPER_TRAFFIC_REDUCTION.0,
            PAPER_TRAFFIC_REDUCTION.1,
            (1.0 - ratio) * 100.0,
            report.speedup(p),
            report.speedup(w)
        ));
    }
}

fn pins_for(def: &SweepDef, params: &Params) -> Option<BTreeMap<String, Pin>> {
    (def.workload == Workload::Fig1L2x && params.size == Size::Full)
        .then(|| Pin::parse_file(FIG1_EXPECTED))
}

fn sweep_e2e(def: &SweepDef, params: &Params, out: &mut Outcome) {
    def.note_specs(out);
    let instance = WorkloadInstance::from_spec(&def.spec);
    let totals = instance.dag.analyze();
    let grid = def.grid(&instance);
    let pins = pins_for(def, params);

    let mut last = None;
    let measured = measure(
        params.seconds,
        def.setup_per_rep,
        || drop(std::hint::black_box(WorkloadInstance::from_spec(&def.spec))),
        || {
            let (report, _) = sweep_once(&grid);
            check_sweep(def, &report, &totals, pins.as_ref(), &mut out.checks);
            last = Some(report);
        },
    );
    let report = last.expect("at least one repetition");
    note_results(def, &instance, &report, out);

    let all = cells(def, &report);
    let instructions: u64 = all.iter().map(|(_, r)| r.instructions).sum();
    let tasks: u64 = all.iter().map(|(_, r)| r.tasks as u64).sum();
    out.note(format!("{}-cell sweep: {}", all.len(), measured.describe()));
    let run_s = measured.run_s;
    e2e_metrics(
        out,
        measured.setup_s,
        run_s,
        instructions as f64 / run_s / 1e6,
        tasks as f64 / run_s,
    );
}

fn e2e_metrics(out: &mut Outcome, setup_s: f64, run_s: f64, sim_mips: f64, jobs_per_s: f64) {
    out.metric("setup_s", setup_s, "s");
    out.metric("run_s", run_s, "s");
    out.metric("sim_mips", sim_mips, "M/s");
    out.metric("jobs_per_s", jobs_per_s, "1/s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

fn sweep_traced(def: &SweepDef, params: &Params, out: &mut Outcome) {
    def.note_specs(out);
    let plain_s = {
        let grid = def.grid(&WorkloadInstance::from_spec(&def.spec));
        warm_rep_s(|| drop(sweep_once(&grid)))
    };
    let mut t = SpanRecorder::new(params.seed);
    let mut layer = LayerMetrics::default();
    t.span("bench", def.workload.name(), |t| {
        let (instance, build_s) = t.span("task_dag", "build", |_| {
            timed(|| WorkloadInstance::from_spec(&def.spec))
        });
        let totals = t.span("task_dag", "analyze", |_| instance.dag.analyze());
        let grid = def.grid(&instance);
        let ((report, profile), spanned_s) =
            timed(|| t.span("sweep", "run_profiled", |_| sweep_once(&grid)));
        check_sweep(
            def,
            &report,
            &totals,
            pins_for(def, params).as_ref(),
            &mut out.checks,
        );
        if def.workload == Workload::ZooFinegrain {
            // The zoo report must not depend on the worker count.
            let sequential = t.span("sweep", "sequential", |_| {
                SweepRunner::sequential()
                    .run(&grid)
                    .expect("the benchmark's grids are valid")
            });
            out.checks
                .check(sequential.reports() == [report.clone()], || {
                    "zoo-finegrain: the 1-worker report differs from the 2-worker report"
                        .to_string()
                });
        }
        let (_, render_s) = t.span("report", "figure1 csv", |_| {
            let specs = [SchedulerSpec::pdf(), SchedulerSpec::ws()];
            timed(|| {
                std::hint::black_box(
                    [
                        report.mpki_table(&def.cores, &specs),
                        report.speedup_table(&def.cores, &specs),
                    ]
                    .map(|table| Figure::from_table(table).to_csv()),
                )
            })
        });
        note_results(def, &instance, &report, out);

        // Outside-in replays of the layers under the engine.
        let (_, df_ranks_s) = t.span("task_dag", "one_df_ranks", |_| {
            timed(|| std::hint::black_box(instance.dag.one_df_ranks()))
        });
        let config32 = default_config(32).expect("32-core config");
        let cache = t.span("cache_sim", "replay 32 cores", |_| {
            replay::cache_replay(&instance.dag, &config32)
        });
        let mem = t.span("memsys", "replay l2 misses", |_| {
            replay::memsys_replay(&cache.misses, &config32)
        });
        let mut policy_ns = BTreeMap::new();
        for (alias, spec) in zoo_specs(params.seed) {
            let p = t.span("policy", alias, |_| {
                replay::policy_replay(&instance.dag, &spec, 32)
            });
            out.checks.check(p.tasks == totals.tasks as u64, || {
                format!(
                    "policy replay of {alias}: scheduled {} tasks, the DAG has {}",
                    p.tasks, totals.tasks
                )
            });
            policy_ns.insert(alias, p.ns_per_task());
        }

        // Engine tracing cost on the pdf@32 cell, Figure-1 only.
        let mut trace_overhead = (0.0, 0.0);
        if def.workload == Workload::Fig1L2x {
            let pdf = SchedulerSpec::pdf();
            let options = SimOptions::default();
            let (_, plain_s) = t.span("engine", "pdf-32 simulate_shared", |_| {
                timed(|| {
                    std::hint::black_box(simulate_shared(
                        instance.dag.clone(),
                        &config32,
                        &pdf,
                        &options,
                    ))
                })
            });
            let ((_, events), traced_s) = t.span("engine", "pdf-32 simulate_traced", |_| {
                timed(|| simulate_traced(&instance.dag, &config32, &pdf, &options))
            });
            t.span("trace", "timeline table", |_| {
                std::hint::black_box(pdfws_trace::timeline_table("pdf-32", &events, 32, 64));
            });
            trace_overhead = (traced_s / plain_s - 1.0, events.len() as f64);
        }

        layer = LayerMetrics {
            build_s,
            df_ranks_s,
            totals: Some(totals),
            cache: Some(cache),
            mem: Some(mem),
            policy_ns,
            report: Some(report),
            profile: Some(profile),
            render_s,
            trace_overhead,
            span_overhead: spanned_s / plain_s - 1.0,
            ..LayerMetrics::default()
        };
    });
    write_spans(params, &t, out);
    layer.emit(Some(def), &t, out);
}

/// Per-layer numbers gathered by a traced run; absent layers report 0.
#[derive(Default)]
struct LayerMetrics {
    build_s: f64,
    df_ranks_s: f64,
    totals: Option<pdfws_task_dag::analysis::DagAnalysis>,
    cache: Option<replay::CacheReplay>,
    mem: Option<replay::MemsysReplay>,
    policy_ns: BTreeMap<&'static str, f64>,
    report: Option<ExperimentReport>,
    profile: Option<SweepProfile>,
    render_s: f64,
    /// (simulate_traced / simulate_shared - 1, events) on fig1's pdf@32.
    trace_overhead: (f64, f64),
    /// Spanned / unspanned host time of one repetition, minus 1.
    span_overhead: f64,
    serve: Option<ServeLayer>,
    quantile_ns: f64,
}

struct ServeLayer {
    calibrate_s: f64,
    light: (ServeReport, f64),
    overload: (ServeReport, f64),
}

impl LayerMetrics {
    fn emit(&self, def: Option<&SweepDef>, t: &SpanRecorder, out: &mut Outcome) {
        let totals = self.totals.as_ref();
        out.metric("task_dag.build_s", self.build_s, "s");
        out.metric("task_dag.df_ranks_s", self.df_ranks_s, "s");
        out.metric(
            "task_dag.tasks",
            totals.map_or(0.0, |a| a.tasks as f64),
            "count",
        );
        out.metric(
            "task_dag.edges",
            totals.map_or(0.0, |a| a.edges as f64),
            "count",
        );
        out.metric(
            "task_dag.refs",
            totals.map_or(0.0, |a| a.memory_accesses as f64),
            "count",
        );

        let cache = self.cache.as_ref();
        out.metric(
            "cache_sim.ns_per_access",
            cache.map_or(0.0, |c| c.ns_per_access()),
            "ns",
        );
        out.metric(
            "cache_sim.accesses",
            cache.map_or(0.0, |c| c.accesses as f64),
            "count",
        );
        let frac = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        out.metric(
            "cache_sim.l1_miss_frac",
            cache.map_or(0.0, |c| frac(c.l1_misses, c.accesses)),
            "ratio",
        );
        out.metric(
            "cache_sim.l2_miss_frac",
            cache.map_or(0.0, |c| frac(c.l2_misses, c.l1_misses)),
            "ratio",
        );

        let mem = self.mem.as_ref();
        out.metric(
            "memsys.ns_per_txn",
            mem.map_or(0.0, |r| r.ns_per_txn()),
            "ns",
        );
        out.metric("memsys.txns", mem.map_or(0.0, |r| r.txns as f64), "count");
        out.metric(
            "memsys.row_hit_frac",
            mem.map_or(0.0, |r| r.row_hit_frac()),
            "ratio",
        );

        // Cells both sweeps run; simulated waiting and host time per cell.
        let report = self.report.as_ref();
        let profile = self.profile.as_ref();
        let named: Vec<(String, SimResult, f64)> = match (def, report, profile) {
            (Some(def), Some(report), Some(profile)) => cells(def, report)
                .into_iter()
                .enumerate()
                .map(|(i, (name, r))| (name, r.clone(), profile.cell_wall(i).as_secs_f64()))
                .collect(),
            _ => Vec::new(),
        };
        for (alias, cores) in COMMON_CELLS {
            let name = format!("{alias}-{cores}");
            let cell = named.iter().find(|(n, _, _)| *n == name);
            out.metric(
                format!("sim.{name}.bus_queue_cycles"),
                cell.map_or(0.0, |c| c.1.bus_queue_cycles as f64),
                "cycles",
            );
            out.metric(
                format!("sim.{name}.dram_queue_cycles"),
                cell.map_or(0.0, |c| c.1.dram_queue_cycles as f64),
                "cycles",
            );
            out.metric(
                format!("engine.{name}.cell_s"),
                cell.map_or(0.0, |c| c.2),
                "s",
            );
        }

        for (alias, _) in ZOO_SPECS {
            out.metric(
                format!("policy.{alias}.ns_per_task"),
                self.policy_ns.get(alias).copied().unwrap_or(0.0),
                "ns",
            );
            let migrations = def
                .zip(report)
                .and_then(|(def, r)| {
                    r.runs()
                        .iter()
                        .find(|run| run.cores == 32 && def.alias_of(&run.scheduler) == alias)
                })
                .map_or(0.0, |run| run.metrics.migrations as f64);
            out.metric(format!("policy.{alias}.migrations"), migrations, "count");
        }

        // Engine cost per simulated reference / task, and its self time
        // estimated by pricing the replayed layers out of the cell times.
        let cell_s = named.iter().fold(0.0, |sum, c| sum + c.2);
        let refs: u64 = named.iter().map(|c| c.1.memory_accesses).sum();
        let tasks: u64 = named.iter().map(|c| c.1.tasks as u64).sum();
        let priced: f64 = named
            .iter()
            .map(|(name, r, _)| {
                let alias = name.rsplit_once('-').map_or("pdf", |(a, _)| a);
                let alias = if alias == "baseline" { "pdf" } else { alias };
                let policy = self.policy_ns.get(alias).copied().unwrap_or(0.0);
                (r.memory_accesses as f64 * cache.map_or(0.0, |c| c.ns_per_access())
                    + r.hierarchy.l2_misses() as f64 * mem.map_or(0.0, |x| x.ns_per_txn())
                    + r.tasks as f64 * policy)
                    * 1e-9
            })
            .sum();
        out.metric("engine.ns_per_ref", cell_s * 1e9 / refs.max(1) as f64, "ns");
        out.metric(
            "engine.ns_per_task",
            cell_s * 1e9 / tasks.max(1) as f64,
            "ns",
        );
        out.metric(
            "engine.self_s_est",
            if named.is_empty() {
                0.0
            } else {
                cell_s - priced
            },
            "s",
        );

        let mut walls: Vec<f64> = (0..profile.map_or(0, |p| p.cell_count()))
            .map(|i| profile.expect("counted above").cell_wall(i).as_secs_f64())
            .collect();
        out.metric(
            "sweep.utilization",
            profile.map_or(0.0, |p| p.utilization()),
            "ratio",
        );
        out.metric("sweep.cells", walls.len() as f64, "count");
        let max = walls.iter().copied().fold(0.0, f64::max);
        out.metric(
            "sweep.cell_p50_s",
            if walls.is_empty() {
                0.0
            } else {
                median(&mut walls)
            },
            "s",
        );
        out.metric("sweep.cell_max_s", max, "s");
        out.metric("report.render_s", self.render_s, "s");

        let serve = self.serve.as_ref();
        out.metric(
            "serve.calibrate_s",
            serve.map_or(0.0, |s| s.calibrate_s),
            "s",
        );
        let phase_rate = |p: &(ServeReport, f64)| p.0.offered as f64 / p.1;
        out.metric(
            "serve.light.jobs_per_s",
            serve.map_or(0.0, |s| phase_rate(&s.light)),
            "1/s",
        );
        out.metric(
            "serve.overload.jobs_per_s",
            serve.map_or(0.0, |s| phase_rate(&s.overload)),
            "1/s",
        );
        out.metric(
            "serve.overload.shed_frac",
            serve.map_or(0.0, |s| s.overload.0.shed_rate()),
            "ratio",
        );
        out.metric(
            "serve.light.completed",
            serve.map_or(0.0, |s| s.light.0.completed as f64),
            "count",
        );
        out.metric(
            "serve.overload.completed",
            serve.map_or(0.0, |s| s.overload.0.completed as f64),
            "count",
        );
        out.metric(
            "serve.worst_p99_over_target",
            serve.map_or(0.0, |s| {
                s.light
                    .0
                    .worst_p99_over_target()
                    .max(s.overload.0.worst_p99_over_target())
            }),
            "ratio",
        );
        out.metric("metrics.quantile_ns_per_obs", self.quantile_ns, "ns");
        out.metric("trace.engine_overhead_frac", self.trace_overhead.0, "ratio");
        out.metric("trace.events", self.trace_overhead.1, "count");

        let own = t.self_seconds();
        for layer in LAYERS {
            out.metric(
                format!("{layer}.self_s"),
                own.get(layer).copied().unwrap_or(0.0),
                "s",
            );
        }
        out.metric("bench.trace_overhead_frac", self.span_overhead, "ratio");
        let failed = out.checks.failed() as f64 / out.checks.attempted.max(1) as f64;
        out.metric("failed_frac", failed, "ratio");
    }
}

fn write_spans(params: &Params, t: &SpanRecorder, out: &mut Outcome) {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        params.workload.name(),
        params.seed
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, t.to_jsonl()));
    out.checks.check(written.is_ok(), || {
        format!(
            "cannot write spans to {}: {:?}",
            path.display(),
            written.err()
        )
    });
    out.spans_file = Some(path);
}

// ----------------------------------------------------------------- serve --

struct ServeDef {
    phases: [(&'static str, ArrivalSpec); 2],
    jobs: usize,
    /// Calibration samples taken before each measured repetition.
    setup_per_rep: usize,
}

impl ServeDef {
    fn new(params: &Params) -> ServeDef {
        let full = params.size == Size::Full;
        ServeDef {
            phases: [
                ("light", ArrivalSpec::poisson(2.0)),
                ("overload", ArrivalSpec::poisson(400.0)),
            ],
            jobs: if full { 4_000_000 } else { 20_000 },
            setup_per_rep: if full { 2 } else { 1 },
        }
    }

    /// The `serve` binary's configuration for one phase.
    fn config(&self, arrivals: &ArrivalSpec, jobs: usize, seed: u64) -> ServeConfig {
        let mut cfg = ServeConfig::new(8, SchedulerSpec::pdf());
        cfg.arrivals = arrivals.clone();
        cfg.jobs = jobs;
        cfg.shedding = true;
        cfg.slo_headroom = 1.0;
        cfg.seed = seed;
        cfg
    }

    fn note_specs(&self, seed: u64, out: &mut Outcome) {
        let cfg = self.config(&self.phases[0].1, self.jobs, seed);
        let tenants: Vec<String> = cfg
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{}:weight={},slo={},p99={},mix={}",
                    t.name(),
                    t.weight(),
                    t.slo_class(),
                    t.p99_target_cycles(),
                    t.mix_name()
                )
            })
            .collect();
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(name, a)| format!("{name}={}", a.canonical()))
            .collect();
        out.note(format!(
            "specs: serve cores=8 calibrate={} cache=exact jobs_per_phase={} phases=[{}] tenants=[{}] shedding=on autoscale=on headroom=1.0",
            cfg.scheduler,
            self.jobs,
            phases.join(", "),
            tenants.join(" + ")
        ));
        out.note("regime: open loop in simulated time; calibration caches start empty in every job shape");
    }
}

fn serve_phase(cfg: &ServeConfig) -> ServeReport {
    run_serve(cfg).expect("default configurations exist for 8 cores")
}

fn check_serve(phase: &str, jobs: usize, r: &ServeReport, checks: &mut Checks) {
    checks.check(r.offered == jobs as u64, || {
        format!("{phase}: offered {} of {jobs} jobs", r.offered)
    });
    checks.check(r.offered == r.completed + r.shed, || {
        format!(
            "{phase}: offered {} != completed {} + shed {}",
            r.offered, r.completed, r.shed
        )
    });
    if phase == "light" {
        checks.check(r.shed == 0, || format!("light: shed {} jobs", r.shed));
    } else {
        for t in &r.tenants {
            checks.check(t.p99_over_target() <= 1.0, || {
                format!(
                    "{phase}: tenant {} admitted p99 is {:.3} x its target",
                    t.name,
                    t.p99_over_target()
                )
            });
        }
    }
}

/// Calibration alone: each phase's configuration served with one job.
fn serve_calibrate(def: &ServeDef, seed: u64) {
    for (_, arrivals) in &def.phases {
        std::hint::black_box(serve_phase(&def.config(arrivals, 1, seed)));
    }
}

fn serve_e2e(params: &Params, out: &mut Outcome) {
    let def = ServeDef::new(params);
    def.note_specs(params.seed, out);
    let configs: Vec<(&str, ServeConfig)> = def
        .phases
        .iter()
        .map(|(name, a)| (*name, def.config(a, def.jobs, params.seed)))
        .collect();

    let mut last = Vec::new();
    // Host seconds of each phase, per repetition, to tell which one moved.
    let mut phase_s = vec![Vec::new(); configs.len()];
    let measured = measure(
        params.seconds,
        def.setup_per_rep,
        || serve_calibrate(&def, params.seed),
        || {
            last.clear();
            for ((_, cfg), times) in configs.iter().zip(&mut phase_s) {
                let (r, s) = timed(|| serve_phase(cfg));
                last.push(r);
                times.push(s);
            }
            for ((name, _), r) in configs.iter().zip(&last) {
                check_serve(name, def.jobs, r, &mut out.checks);
            }
        },
    );
    let mut core_cycles = 0.0;
    for (((name, _), r), times) in configs.iter().zip(&last).zip(&mut phase_s) {
        note_serve(name, r, out);
        out.note(format!("serve {name}: median {:.3} s", median(times)));
        core_cycles += r.makespan_cycles as f64 * r.mean_active_cores;
    }
    out.note(format!("both phases: {}", measured.describe()));
    let run_s = measured.run_s;
    let offered = (def.jobs * def.phases.len()) as f64;
    e2e_metrics(
        out,
        measured.setup_s,
        run_s,
        core_cycles / run_s / 1e6,
        offered / run_s,
    );
}

fn note_serve(phase: &str, r: &ServeReport, out: &mut Outcome) {
    out.note(format!(
        "serve {phase} ({}): offered {} completed {} shed {} shed_rate {:.4} worst_p99/target {:.3} peak_active {} final_cores {}",
        r.arrivals,
        r.offered,
        r.completed,
        r.shed,
        r.shed_rate(),
        r.worst_p99_over_target(),
        r.peak_active,
        r.final_cores
    ));
}

fn serve_traced(params: &Params, out: &mut Outcome) {
    let def = ServeDef::new(params);
    def.note_specs(params.seed, out);
    let configs: Vec<(&str, ServeConfig)> = def
        .phases
        .iter()
        .map(|(name, a)| (*name, def.config(a, def.jobs, params.seed)))
        .collect();
    let plain_s = warm_rep_s(|| {
        for (_, cfg) in &configs {
            std::hint::black_box(serve_phase(cfg));
        }
    });
    let mut t = SpanRecorder::new(params.seed);
    let mut layer = LayerMetrics::default();
    t.span("bench", "serve-mixed", |t| {
        let ((), calibrate_s) = t.span("serve", "calibrate", |_| {
            timed(|| serve_calibrate(&def, params.seed))
        });
        let mut phases = Vec::new();
        let mut spanned_s = 0.0;
        for (name, cfg) in &configs {
            let ((r, s), outer_s) = timed(|| t.span("serve", name, |_| timed(|| serve_phase(cfg))));
            spanned_s += outer_s;
            check_serve(name, def.jobs, &r, &mut out.checks);
            note_serve(name, &r, out);
            phases.push((r, s));
        }
        let n = if params.size == Size::Full {
            4_000_000
        } else {
            100_000
        };
        let ns = t.span("metrics", "streaming quantiles", |_| {
            replay::quantile_replay(n, params.seed)
        });
        let overload = phases.pop().expect("two phases");
        let light = phases.pop().expect("two phases");
        layer.serve = Some(ServeLayer {
            calibrate_s,
            light,
            overload,
        });
        layer.quantile_ns = ns;
        layer.span_overhead = spanned_s / plain_s - 1.0;
    });
    write_spans(params, &t, out);
    layer.emit(None, &t, out);
}

// --------------------------------------------------------------- helpers --

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed() == 0,
        out.checks.attempted,
        out.checks.failed(),
        metrics.join(", ")
    )
}
