//! Shared harness code for the experiment binaries and Criterion benches.
//!
//! Every figure and finding of the paper has a binary in `src/bin/` that prints
//! the corresponding table (text + CSV); the functions here build those tables so
//! the Criterion benches and the binaries measure exactly the same thing.
//! See `DESIGN.md` in this crate's directory (§3) for the experiment index
//! and `EXPERIMENTS.md` next to it for recorded results.
//!
//! Every sweep here executes through [`SweepRunner`]: the binaries share a
//! uniform `--threads N` flag (or the `PDFWS_THREADS` environment variable)
//! next to `--quick`, and parallel runs are bit-identical to sequential ones.
//!
//! Every binary also accepts the spec flags: repeatable `--workload <spec>`
//! (replace the binary's default workload axis with any registered workload
//! specs, e.g. `--workload mergesort:n=4096 --workload spmv`), `--memsys
//! <spec>` (select the memory-system model for every simulated cell, e.g.
//! `--memsys legacy` or `--memsys bus:dram:banks=32`), `--cache <spec>`
//! (select the cache simulation mode — `exact`, `sampled:rate=N` or
//! `analytic`), and `--list` (print all five registries' grammars — every
//! scheduler policy, workload, memory-system model, cache mode and arrival
//! process with its typed parameters — and exit).
//!
//! Output flows through one shared emission path ([`emit_tables`] /
//! [`emit_figures`], built on the `pdfws-report` renderers): the default is
//! aligned text tables, `--csv` switches every binary to CSV blocks, and
//! `--json` to self-describing JSONL rows (`job_stream --json` emits the
//! per-job records instead).  `--help` prints the uniform flag table.

use pdfws_cmp_model::default_config;
use pdfws_core::prelude::*;
use pdfws_metrics::{Series, Table};
use pdfws_report::Figure;
use pdfws_schedulers::{simulate_traced, SimOptions};
use pdfws_stream::{run_stream_sim_traced, ArrivalRegistry, JobMix, StreamConfig};
use pdfws_trace::{chrome_trace_json, timeline_table, EventTrace, TraceTrack};

/// The core counts on the x-axis of Figure 1.
pub fn paper_core_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32]
}

/// Default problem sizes used by the experiment binaries.  They are chosen so the
/// dataset exceeds the shared L2 of the larger default configurations (the regime
/// the paper studies); `--quick` in the binaries divides them down for smoke runs.
pub mod sizes {
    /// Keys sorted by the Figure 1 merge sort.
    pub const MERGESORT_KEYS: u64 = 1 << 20;
    /// Matrix dimension for matmul / LU.
    pub const MATRIX_N: u64 = 512;
    /// Rows for SpMV.
    pub const SPMV_ROWS: u64 = 1 << 17;
    /// Build-side tuples for the hash join.
    pub const HASHJOIN_BUILD: u64 = 1 << 16;
    /// Elements for the scan.
    pub const SCAN_N: u64 = 1 << 21;
    /// Items for the compute-bound kernel.
    pub const COMPUTE_ITEMS: u64 = 1 << 17;
}

pub mod tuner;

/// Worker threads for the sweep runner: `--threads N` (or `--threads=N`) on
/// the command line, else the `PDFWS_THREADS` environment variable, else every
/// available core.  This is the uniform threading knob of the experiment
/// binaries, sitting next to `--quick`.
pub fn threads_arg() -> usize {
    // Parse (and possibly warn) once per process: the bins call this for
    // their banner and every sweep helper calls it again via `runner()`.
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(threads_arg_uncached)
}

fn threads_arg_uncached() -> usize {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        let value = if arg == "--threads" {
            args.next()
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            Some(v.to_string())
        } else {
            continue;
        };
        match value.as_deref().map(pdfws_core::parse_threads) {
            Some(Some(n)) => return n,
            _ => {
                // A typo must not silently saturate every core.
                eprintln!(
                    "warning: ignoring {} --threads value; falling back to {}/auto",
                    match value.as_deref() {
                        Some(v) => format!("malformed '{v}'"),
                        None => "missing".to_string(),
                    },
                    pdfws_core::THREADS_ENV
                );
            }
        }
    }
    // Same guard for the env knob: a typo'd PDFWS_THREADS must not silently
    // saturate every core either (the library's `threads_from_env` stays
    // silent by design; the CLI harness is where diagnostics belong).
    if let Ok(v) = std::env::var(pdfws_core::THREADS_ENV) {
        if pdfws_core::parse_threads(&v).is_none() {
            eprintln!(
                "warning: ignoring malformed {}='{v}'; using all available cores",
                pdfws_core::THREADS_ENV
            );
        }
    }
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    pdfws_core::threads_from_env(default)
}

/// The worker pool every bench binary sweeps on (sized by [`threads_arg`]).
pub fn runner() -> SweepRunner {
    SweepRunner::new(threads_arg())
}

/// The uniform flags every experiment binary accepts, as (flag, help) pairs —
/// the rows [`maybe_help`] prints and `DESIGN.md`'s flag table documents.
pub const UNIFORM_FLAGS: &[(&str, &str)] = &[
    ("--quick", "shrink problem sizes to smoke-test scale"),
    (
        "--threads N",
        "sweep worker threads (default: PDFWS_THREADS, else all cores); output is bit-identical for every N",
    ),
    (
        "--workload <spec>",
        "(repeatable) replace the default workload axis with registered workload specs",
    ),
    (
        "--memsys <spec>",
        "memory-system model for every simulated cell (e.g. 'legacy' or 'bus:dram:banks=32'; default: the component bus+DRAM model)",
    ),
    (
        "--cache <spec>",
        "cache simulation mode for every cell ('exact' (default), 'sampled:rate=N', 'analytic')",
    ),
    ("--csv", "print CSV blocks instead of aligned text tables"),
    ("--json", "print self-describing JSONL rows instead of tables"),
    (
        "--trace <out.json>",
        "export a Perfetto/Chrome trace-event timeline of one representative cell per scheduler spec (open in ui.perfetto.dev)",
    ),
    (
        "--trace-summary",
        "print binned timeline tables (busy fraction, steals, ready depth) plus the sweep worker-utilization profile",
    ),
    (
        "--list",
        "print the spec grammars of all five registries (schedulers, workloads, memory-system models, cache modes, arrival processes) and exit",
    ),
    ("--help", "print this flag table and exit"),
];

/// If the binary was invoked with `--help` (or `-h`), print the description
/// and the uniform flag table — plus any binary-specific `extra` flags — and
/// exit.  Call this before doing any work.
pub fn maybe_help(bin: &str, about: &str, extra: &[(&str, &str)]) {
    if !std::env::args().any(|a| a == "--help" || a == "-h") {
        return;
    }
    println!("{bin} — {about}\n");
    println!("Usage: cargo run --release -p pdfws-bench --bin {bin} [-- FLAGS]\n");
    println!("Flags:");
    let width = UNIFORM_FLAGS
        .iter()
        .chain(extra)
        .map(|(f, _)| f.len())
        .max()
        .unwrap_or(0);
    for (flag, help) in extra.iter().chain(UNIFORM_FLAGS) {
        println!("  {flag:<width$}  {help}");
    }
    std::process::exit(0);
}

/// All five registries' spec grammars — every scheduler policy, workload,
/// memory-system model, cache mode and arrival process, with their typed
/// parameters — exactly as `--list` prints them.
pub fn list_text() -> String {
    [
        (
            "Scheduler specs (policy:key=value,...)",
            Registry::global().help(),
        ),
        (
            "Workload specs (name:key=value,...)",
            WorkloadRegistry::global().help(),
        ),
        (
            "Memory-system specs (model:key=value,...)",
            MemSysRegistry::global().help(),
        ),
        (
            "Cache-mode specs (mode:key=value,...)",
            CacheModeRegistry::global().help(),
        ),
        (
            "Arrival specs (process:key=value,...)",
            ArrivalRegistry::global().help(),
        ),
    ]
    .iter()
    .map(|(heading, help)| format!("{heading}:\n{help}\n"))
    .collect()
}

/// If the binary was invoked with `--list`, print [`list_text`] and exit.
/// Call this before doing any work.
pub fn maybe_list() {
    if std::env::args().any(|a| a == "--list") {
        print!("{}", list_text());
        std::process::exit(0);
    }
}

/// The memory-system model selected on the command line: `--memsys <spec>` /
/// `--memsys=<spec>`, validated against the memsys registry.  `None` when the
/// flag was not given — cells then run the configuration's own model (the
/// component bus+DRAM system).  A malformed or unknown spec aborts with the
/// registry's error message.
pub fn memsys_spec_arg() -> Option<MemSysSpec> {
    static SPEC: std::sync::OnceLock<Option<MemSysSpec>> = std::sync::OnceLock::new();
    SPEC.get_or_init(memsys_spec_arg_uncached).clone()
}

fn memsys_spec_arg_uncached() -> Option<MemSysSpec> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        let value = if arg == "--memsys" {
            args.next()
        } else if let Some(v) = arg.strip_prefix("--memsys=") {
            Some(v.to_string())
        } else {
            continue;
        };
        let Some(raw) = value else {
            eprintln!("error: --memsys needs a spec argument (try --list)");
            std::process::exit(2);
        };
        match raw.parse::<MemSysSpec>() {
            Ok(spec) => return Some(spec),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    None
}

/// The cache simulation mode selected on the command line: `--cache <spec>` /
/// `--cache=<spec>`, validated against the cache-mode registry.  Defaults to
/// `exact` (the bit-exact per-access path) when the flag was not given.  A
/// malformed or unknown spec aborts with the registry's error message.
pub fn cache_mode_arg() -> CacheModeSpec {
    static SPEC: std::sync::OnceLock<CacheModeSpec> = std::sync::OnceLock::new();
    SPEC.get_or_init(cache_mode_arg_uncached).clone()
}

fn cache_mode_arg_uncached() -> CacheModeSpec {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        let value = if arg == "--cache" {
            args.next()
        } else if let Some(v) = arg.strip_prefix("--cache=") {
            Some(v.to_string())
        } else {
            continue;
        };
        let Some(raw) = value else {
            eprintln!("error: --cache needs a mode argument (try --list)");
            std::process::exit(2);
        };
        match raw.parse::<CacheModeSpec>() {
            Ok(spec) => return spec,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    CacheModeSpec::exact()
}

/// Apply the `--memsys` and `--cache` selections (if any) to a sweep grid.
pub fn grid_with_memsys(grid: SweepGrid) -> SweepGrid {
    let grid = grid.cache(cache_mode_arg());
    match memsys_spec_arg() {
        Some(spec) => grid.memsys(spec),
        None => grid,
    }
}

/// Apply the `--memsys` and `--cache` selections (if any) to an experiment
/// builder.
pub fn experiment_with_memsys(experiment: Experiment) -> Experiment {
    let experiment = experiment.cache(cache_mode_arg());
    match memsys_spec_arg() {
        Some(spec) => experiment.memsys(spec),
        None => experiment,
    }
}

/// Apply the `--memsys` and `--cache` selections (if any) to a
/// stream-experiment builder.
pub fn stream_with_memsys(experiment: StreamExperiment) -> StreamExperiment {
    let experiment = experiment.cache(cache_mode_arg());
    match memsys_spec_arg() {
        Some(spec) => experiment.memsys(spec),
        None => experiment,
    }
}

/// Parse every repeatable `--workload <spec>` / `--workload=<spec>` flag into
/// validated specs (no DAGs are built).  A malformed or unknown spec aborts
/// with the registry's error message (which lists what would have been
/// accepted).
pub fn workload_spec_args() -> Vec<WorkloadSpec> {
    let mut specs = Vec::new();
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        let value = if arg == "--workload" {
            args.next()
        } else if let Some(v) = arg.strip_prefix("--workload=") {
            Some(v.to_string())
        } else {
            continue;
        };
        let Some(raw) = value else {
            eprintln!("error: --workload needs a spec argument (try --list)");
            std::process::exit(2);
        };
        match raw.parse::<WorkloadSpec>() {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    specs
}

/// The binary's workload axis: the `--workload` specs when any were given,
/// instantiated through the registry, else `defaults()`.  Defaults are built
/// lazily so an overridden run never pays for the (possibly paper-scale)
/// default DAGs.
pub fn workloads_or(defaults: impl FnOnce() -> Vec<WorkloadInstance>) -> Vec<WorkloadInstance> {
    let specs = workload_spec_args();
    if specs.is_empty() {
        defaults()
    } else {
        specs.iter().map(WorkloadInstance::from_spec).collect()
    }
}

/// How a binary renders its tables, selected by the uniform `--csv` /
/// `--json` flags (default: aligned text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Aligned, human-readable text tables (the default).
    Text,
    /// CSV blocks, each preceded by a `# figure: <id>` comment line.
    Csv,
    /// Self-describing JSONL rows (one object per table row, tagged with the
    /// figure id).
    Json,
}

/// The output mode selected on the command line.  `--csv` and `--json`
/// together abort: the modes are exclusive.
pub fn output_mode() -> OutputMode {
    let csv = std::env::args().any(|a| a == "--csv");
    let json = std::env::args().any(|a| a == "--json");
    match (csv, json) {
        (true, true) => {
            eprintln!("error: --csv and --json are mutually exclusive");
            std::process::exit(2);
        }
        (true, false) => OutputMode::Csv,
        (false, true) => OutputMode::Json,
        (false, false) => OutputMode::Text,
    }
}

/// Print figures in the selected [`output_mode`] — the single emission path
/// of the experiment binaries, built on the `pdfws-report` renderers.
pub fn emit_figures(figures: &[Figure]) {
    emit_figures_as(output_mode(), figures);
}

/// [`emit_figures`] with an explicit mode (testable without process args).
pub fn emit_figures_as(mode: OutputMode, figures: &[Figure]) {
    for figure in figures {
        match mode {
            OutputMode::Text => println!("{}", figure.table.to_text()),
            OutputMode::Csv => print!("# figure: {}\n{}\n", figure.id, figure.to_csv()),
            OutputMode::Json => print!("{}", figure.to_jsonl()),
        }
    }
}

/// Wrap tables as figures (id derived from each title) and emit them in the
/// selected output mode.
pub fn emit_tables(tables: &[&Table]) {
    let figures: Vec<Figure> = tables
        .iter()
        .map(|&t| Figure::from_table(t.clone()))
        .collect();
    emit_figures(&figures);
}

/// True when the selected output mode is the human-readable text default —
/// the binaries gate their prose summary lines on this, so `--csv` / `--json`
/// stdout stays machine-parseable.
pub fn text_output() -> bool {
    output_mode() == OutputMode::Text
}

/// Run one (workloads × cores × specs) grid on the shared runner and return
/// one report per workload.  Every workload's DAG is built once and shared by
/// all of its cells; results are deterministic for any `--threads` value.
pub fn sweep_reports(
    workloads: &[WorkloadInstance],
    core_counts: &[usize],
    specs: &[SchedulerSpec],
) -> Vec<ExperimentReport> {
    let grid = grid_with_memsys(
        SweepGrid::new()
            .workloads(workloads)
            .cores(core_counts)
            .specs(specs),
    );
    runner()
        .run(&grid)
        .expect("default configurations exist for the requested core counts")
        .into_reports()
}

/// Run one (cores × specs) sweep and return the report, for deriving several
/// tables from a single set of simulations.
pub fn sweep_report(
    workload: &WorkloadInstance,
    core_counts: &[usize],
    specs: &[SchedulerSpec],
) -> ExperimentReport {
    sweep_reports(std::slice::from_ref(workload), core_counts, specs).swap_remove(0)
}

/// The two Figure-1 panels (L2 misses per 1000 instructions, speedup over the
/// one-core run) for PDF and WS, derived from an existing report that must
/// contain those cells.  Thin veneer over the report's own table emission
/// ([`ExperimentReport::mpki_table`] / [`ExperimentReport::speedup_table`]).
pub fn figure1_tables_from(report: &ExperimentReport, core_counts: &[usize]) -> (Table, Table) {
    let pair = SchedulerSpec::paper_pair();
    (
        report.mpki_table(core_counts, &pair),
        report.speedup_table(core_counts, &pair),
    )
}

/// Run one workload across the paper's core counts under PDF and WS and return
/// the two Figure-1 panels: (L2 misses per 1000 instructions, speedup over the
/// one-core run).
pub fn figure1_tables(workload: &WorkloadInstance, core_counts: &[usize]) -> (Table, Table) {
    let report = sweep_report(workload, core_counts, &SchedulerSpec::paper_pair());
    figure1_tables_from(&report, core_counts)
}

/// Per-spec scheduler counters derived from an existing report: one series per
/// requested scheduler spec carrying its `migrations` counter (work migrations
/// — steal events for the deque policies, cross-core placements for `static`;
/// see `SchedulerPolicy::migrations`).  Surfaces the counter for *every* spec,
/// not just the classic `ws` column, so parameterized variants are comparable.
pub fn migrations_table_from(
    report: &ExperimentReport,
    core_counts: &[usize],
    specs: &[SchedulerSpec],
) -> Table {
    report.migrations_table(core_counts, specs)
}

/// [`migrations_table_from`] plus the sweep that feeds it.
pub fn migrations_table(
    workload: &WorkloadInstance,
    core_counts: &[usize],
    specs: &[SchedulerSpec],
) -> Table {
    let report = sweep_report(workload, core_counts, specs);
    migrations_table_from(&report, core_counts, specs)
}

/// One row of the per-class comparison tables: the PDF-vs-WS comparison for one
/// workload at one core count.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Canonical workload spec string.
    pub workload: String,
    /// Application class.
    pub class: String,
    /// Core count.
    pub cores: usize,
    /// WS makespan / PDF makespan (> 1 means PDF faster).
    pub relative_speedup: f64,
    /// Percent reduction in off-chip traffic under PDF.
    pub traffic_reduction_percent: f64,
    /// PDF L2 misses per 1000 instructions.
    pub pdf_mpki: f64,
    /// WS L2 misses per 1000 instructions.
    pub ws_mpki: f64,
}

/// Compare PDF against WS for several workloads at the given core counts, as
/// one grid: every (workload × cores × spec) cell is an independent runner
/// cell, so the whole comparison parallelizes across workloads too.
pub fn compare_pdf_ws_all(
    workloads: &[WorkloadInstance],
    core_counts: &[usize],
) -> Vec<ComparisonRow> {
    let reports = sweep_reports(workloads, core_counts, &SchedulerSpec::paper_pair());
    let mut rows = Vec::with_capacity(workloads.len() * core_counts.len());
    for (workload, report) in workloads.iter().zip(&reports) {
        for &cores in core_counts {
            let pdf = report.find(cores, &SchedulerSpec::pdf()).unwrap();
            let ws = report.find(cores, &SchedulerSpec::ws()).unwrap();
            rows.push(ComparisonRow {
                workload: workload.spec.canonical(),
                class: workload.class.to_string(),
                cores,
                relative_speedup: report.pdf_over_ws_speedup(cores).unwrap(),
                traffic_reduction_percent: report.pdf_traffic_reduction_percent(cores).unwrap(),
                pdf_mpki: pdf.metrics.l2_mpki(),
                ws_mpki: ws.metrics.l2_mpki(),
            });
        }
    }
    rows
}

/// Compare PDF against WS for one workload at the given core counts.
pub fn compare_pdf_ws(workload: &WorkloadInstance, core_counts: &[usize]) -> Vec<ComparisonRow> {
    compare_pdf_ws_all(std::slice::from_ref(workload), core_counts)
}

/// Render comparison rows as a table over "workload@cores".
pub fn comparison_table(title: &str, rows: &[ComparisonRow]) -> Table {
    let x: Vec<String> = rows
        .iter()
        .map(|r| format!("{}@{}", r.workload, r.cores))
        .collect();
    let mut t = Table::new(title, "workload@cores", x);
    t.push_series(Series::new(
        "rel_speedup(pdf/ws)",
        rows.iter().map(|r| r.relative_speedup).collect(),
    ));
    t.push_series(Series::new(
        "traffic_reduction_%",
        rows.iter().map(|r| r.traffic_reduction_percent).collect(),
    ));
    t.push_series(Series::new(
        "pdf_mpki",
        rows.iter().map(|r| r.pdf_mpki).collect(),
    ));
    t.push_series(Series::new(
        "ws_mpki",
        rows.iter().map(|r| r.ws_mpki).collect(),
    ));
    t
}

/// The default-configuration table (the paper's "CMP configurations studied").
pub fn config_table(core_counts: &[usize]) -> Table {
    let x: Vec<String> = core_counts.iter().map(|c| c.to_string()).collect();
    let mut t = Table::new(
        "Default CMP configurations (240 mm² die, 90nm-32nm)",
        "cores",
        x,
    );
    let configs: Vec<_> = core_counts
        .iter()
        .map(|&c| default_config(c).expect("study range"))
        .collect();
    t.push_series(Series::new(
        "feature_nm",
        configs.iter().map(|c| c.node.feature_nm()).collect(),
    ));
    t.push_series(Series::new(
        "l2_mib",
        configs
            .iter()
            .map(|c| c.l2.capacity_bytes as f64 / (1024.0 * 1024.0))
            .collect(),
    ));
    t.push_series(Series::new(
        "l2_latency_cyc",
        configs.iter().map(|c| c.l2.latency_cycles as f64).collect(),
    ));
    t.push_series(Series::new(
        "mem_latency_cyc",
        configs
            .iter()
            .map(|c| c.memory_latency_cycles as f64)
            .collect(),
    ));
    t.push_series(Series::new(
        "offchip_B_per_cyc",
        configs.iter().map(|c| c.offchip_bytes_per_cycle).collect(),
    ));
    t
}

/// The tracing selections of one invocation, parsed from the uniform
/// `--trace <out.json>` / `--trace=<out.json>` and `--trace-summary` flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceArgs {
    /// Where to write the Perfetto/Chrome trace-event JSON, if requested.
    pub path: Option<std::path::PathBuf>,
    /// Whether to print binned timeline summary tables and the sweep
    /// worker-utilization profile.
    pub summary: bool,
}

impl TraceArgs {
    /// Whether any tracing output was requested at all.
    pub fn enabled(&self) -> bool {
        self.path.is_some() || self.summary
    }
}

/// Parse the uniform tracing flags.  A `--trace` with no path aborts rather
/// than silently tracing nowhere.
pub fn trace_args() -> TraceArgs {
    let mut parsed = TraceArgs::default();
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--trace-summary" {
            parsed.summary = true;
            continue;
        }
        let value = if arg == "--trace" {
            args.next()
        } else if let Some(v) = arg.strip_prefix("--trace=") {
            Some(v.to_string())
        } else {
            continue;
        };
        match value {
            Some(path) => parsed.path = Some(path.into()),
            None => {
                eprintln!("error: --trace needs an output path (e.g. --trace target/trace.json)");
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// Honor the uniform `--trace` / `--trace-summary` flags for a sweep binary:
/// re-simulate one representative (workload × `cores` × spec) cell per
/// scheduler spec with tracing on, then export a Perfetto JSON (one process
/// track per spec, one thread per core) and/or print binned timeline tables
/// plus the worker pool's wall-clock profile.
///
/// The traced cells run on the shared [`runner`] pool, and every cell's event
/// stream is deterministic — the exported JSON is byte-identical for every
/// `--threads` value.  (The `--trace-summary` *profile* table is wall-clock
/// and host-dependent by design; it is printed, never written to the trace.)
///
/// No-op when neither flag was given, so the binaries can call this
/// unconditionally after their sweep.
pub fn emit_trace(workload: &WorkloadInstance, cores: usize, specs: &[SchedulerSpec]) {
    emit_trace_as(trace_args(), workload, cores, specs);
}

/// [`emit_trace`] with explicit selections (testable without process args).
pub fn emit_trace_as(
    args: TraceArgs,
    workload: &WorkloadInstance,
    cores: usize,
    specs: &[SchedulerSpec],
) {
    if !args.enabled() {
        return;
    }
    let mut config = default_config(cores).expect("default configuration exists for traced cell");
    // The traced cell must run under the same memory-system model as the
    // sweep it represents.
    if let Some(spec) = memsys_spec_arg() {
        config.memsys = spec.memsys_params();
        config
            .validate()
            .expect("validated memsys spec stays valid");
    }
    // ... and under the same cache mode.
    let options = SimOptions {
        cache_mode: cache_mode_arg(),
        ..SimOptions::default()
    };
    let (cells, profile) = runner().run_cells_profiled(specs.len(), |i| {
        simulate_traced(&workload.dag, &config, &specs[i], &options)
    });

    if let Some(path) = &args.path {
        let tracks: Vec<TraceTrack> = specs
            .iter()
            .zip(&cells)
            .enumerate()
            .map(|(i, (spec, (_, events)))| {
                TraceTrack::new(
                    (i + 1) as u64,
                    format!("{spec} · {} @ {cores} cores", workload.spec.canonical()),
                    cores,
                    events.clone(),
                )
            })
            .collect();
        let json = chrome_trace_json(&tracks);
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!(
                "# wrote {} ({} bytes) — open in ui.perfetto.dev",
                path.display(),
                json.len()
            ),
            Err(e) => {
                eprintln!("error: cannot write trace to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if args.summary {
        let tables: Vec<Table> = specs
            .iter()
            .zip(&cells)
            .map(|(spec, (_, events))| {
                timeline_table(
                    &format!(
                        "{}: timeline under {spec} @ {cores} cores",
                        workload.spec.canonical()
                    ),
                    events,
                    cores,
                    TRACE_SUMMARY_BINS,
                )
            })
            .chain(std::iter::once(profile.to_table()))
            .collect();
        let refs: Vec<&Table> = tables.iter().collect();
        emit_tables(&refs);
    }
}

/// Honor the uniform `--trace` / `--trace-summary` flags for a job-stream
/// binary: re-serve one representative (mix × scheduler) cell of the stream on
/// the simulated backend with tracing on.  Each scheduler gets one process
/// track whose async job slices span admit → complete (with a dispatch
/// instant at the first quantum grant) and whose `outstanding_jobs` counter
/// tracks co-residency — the stream-tier analogue of [`emit_trace`].
///
/// No-op when neither flag was given.
pub fn emit_stream_trace(mix: &JobMix, jobs: usize, cfg: &StreamConfig, specs: &[SchedulerSpec]) {
    emit_stream_trace_as(trace_args(), mix, jobs, cfg, specs);
}

/// [`emit_stream_trace`] with explicit selections (testable without process
/// args).
pub fn emit_stream_trace_as(
    args: TraceArgs,
    mix: &JobMix,
    jobs: usize,
    cfg: &StreamConfig,
    specs: &[SchedulerSpec],
) {
    if !args.enabled() {
        return;
    }
    // The traced stream must serve under the same memory-system model and
    // cache mode as the sweep it represents.
    let mut cfg = cfg.clone();
    if let Some(spec) = memsys_spec_arg() {
        cfg.memsys = Some(spec.memsys_params());
    }
    cfg.sim_options.cache_mode = cache_mode_arg();
    let cells: Vec<Vec<pdfws_trace::TraceEvent>> = specs
        .iter()
        .map(|spec| {
            let mut cell_cfg = cfg.clone();
            cell_cfg.scheduler = spec.clone();
            let mut trace = EventTrace::new();
            run_stream_sim_traced(mix, jobs, &cell_cfg, &mut trace)
                .expect("traced stream cell runs");
            trace.into_events()
        })
        .collect();

    if let Some(path) = &args.path {
        let tracks: Vec<TraceTrack> = specs
            .iter()
            .zip(&cells)
            .enumerate()
            .map(|(i, (spec, events))| {
                TraceTrack::new(
                    (i + 1) as u64,
                    format!("{spec} · stream {} @ {} cores", mix.name, cfg.cores),
                    cfg.cores,
                    events.clone(),
                )
            })
            .collect();
        let json = chrome_trace_json(&tracks);
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!(
                "# wrote {} ({} bytes) — open in ui.perfetto.dev",
                path.display(),
                json.len()
            ),
            Err(e) => {
                eprintln!("error: cannot write trace to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if args.summary {
        let tables: Vec<Table> = specs
            .iter()
            .zip(&cells)
            .map(|(spec, events)| {
                timeline_table(
                    &format!(
                        "stream {}: timeline under {spec} @ {} cores",
                        mix.name, cfg.cores
                    ),
                    events,
                    cfg.cores,
                    TRACE_SUMMARY_BINS,
                )
            })
            .collect();
        let refs: Vec<&Table> = tables.iter().collect();
        emit_tables(&refs);
    }
}

/// Bins of the `--trace-summary` timeline tables.
pub const TRACE_SUMMARY_BINS: usize = 24;

/// Returns true when the binary was invoked with `--quick` (smaller problem
/// sizes, for smoke-testing the harness).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Divide a problem size down in quick mode.
pub fn scaled(size: u64, quick: bool) -> u64 {
    if quick {
        (size / 16).max(1024)
    } else {
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_workloads::{MergeSort, ParallelScan};

    #[test]
    fn figure1_tables_have_two_series_each() {
        let (mpki, speedup) = figure1_tables(&MergeSort::small().into_instance(), &[1, 2]);
        assert_eq!(mpki.series.len(), 2);
        assert_eq!(speedup.series.len(), 2);
        assert_eq!(mpki.rows(), 2);
        assert!(mpki.to_csv().starts_with("cores,pdf,ws"));
    }

    #[test]
    fn comparison_rows_cover_requested_cores() {
        let rows = compare_pdf_ws(&ParallelScan::small().into_instance(), &[2, 4]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cores, 2);
        assert_eq!(rows[1].cores, 4);
        let t = comparison_table("test", &rows);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.series.len(), 4);
    }

    #[test]
    fn config_table_covers_the_paper_sweep() {
        let t = config_table(&paper_core_counts());
        assert_eq!(t.rows(), 6);
        assert_eq!(t.series.len(), 5);
    }

    #[test]
    fn scaled_respects_quick_mode() {
        assert_eq!(scaled(1 << 20, false), 1 << 20);
        assert_eq!(scaled(1 << 20, true), 1 << 16);
        assert_eq!(scaled(100, true), 1024);
    }
}
