//! Shared harness code for the experiment binaries and Criterion benches.
//!
//! Every figure and finding of the paper has a binary in `src/bin/` that prints
//! the corresponding table (text + CSV); the functions here build those tables so
//! the Criterion benches and the binaries measure exactly the same thing.
//! See `DESIGN.md` in this crate's directory (§3) for the experiment index
//! and `EXPERIMENTS.md` next to it for recorded results.
//!
//! Every binary parses its command line once, into a [`Cli`]
//! ([`Cli::parse`]); the helpers here take that `&Cli` and never read process
//! arguments themselves.  The uniform flags ([`UNIFORM_FLAGS`]) are `--quick`,
//! `--threads N` (or the `PDFWS_THREADS` environment variable; every sweep
//! runs through [`SweepRunner`] and parallel runs are bit-identical to
//! sequential ones), repeatable `--workload <spec>` (replace the binary's
//! default workload axis with registered workload specs, e.g. `--workload
//! mergesort:n=4096 --workload spmv`), `--memsys <spec>` (the memory-system
//! model for every simulated cell, e.g. `--memsys legacy` or `--memsys
//! bus:dram:banks=32`), `--cache <spec>` (`exact`, `sampled:rate=N` or
//! `analytic`), the output and tracing flags below, `--list` (print all five
//! registries' grammars and exit) and `--help` (print the flag table and
//! exit).  A binary adds its own flags as extra (usage, help) rows.  An
//! unknown flag, a missing value, a value that is itself a flag, or a spec
//! that does not validate ends the process with exit status 2 and a message
//! on stderr before anything is simulated.
//!
//! Output flows through one shared emission path ([`emit_tables`] /
//! [`emit_figures`], built on the `pdfws-report` renderers): the default is
//! aligned text tables, `--csv` switches every binary to CSV blocks, and
//! `--json` to self-describing JSONL rows (`job_stream --json` emits the
//! per-job records instead).  Stdout goes through [`write_stdout`] (and the
//! [`outln!`] macro), so a reader that closes the pipe early ends the process
//! quietly.  `--trace <out.json>` / `--trace-summary` export or summarize one
//! representative traced cell per scheduler spec ([`emit_trace`],
//! [`emit_stream_trace`], [`write_trace`]).

use pdfws_cmp_model::default_config;
use pdfws_core::prelude::*;
use pdfws_metrics::{Series, Table};
use pdfws_report::Figure;
use pdfws_schedulers::{simulate_traced, SimOptions};
use pdfws_stream::{run_stream_sim_traced, ArrivalRegistry, JobMix, StreamConfig};
use pdfws_trace::{chrome_trace_json, timeline_table, EventTrace, TraceTrack};
use std::io::Write;
use std::path::Path;

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

pub mod cli;
pub mod tuner;

pub use cli::{Cli, CliError, OutputMode, TraceArgs, UNIFORM_FLAGS};

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

/// Write `text` to stdout through one locked handle.  A reader that closed
/// the pipe early (`| head`) ends the process quietly; any other write error
/// exits 1.
pub fn write_stdout(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`write_stdout`]: the binaries' prose lines end the
/// process quietly on a closed pipe, like their tables.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(&format!("{}\n", format_args!($($arg)*)))
    };
}

/// Print figures in the selected [`OutputMode`] — the single emission path
/// of the experiment binaries, built on the `pdfws-report` renderers.
pub fn emit_figures(cli: &Cli, figures: &[Figure]) {
    let text: String = figures
        .iter()
        .map(|figure| match cli.output {
            OutputMode::Text => format!("{}\n", figure.table.to_text()),
            OutputMode::Csv => format!("# figure: {}\n{}\n", figure.id, figure.to_csv()),
            OutputMode::Json => figure.to_jsonl(),
        })
        .collect();
    write_stdout(&text);
}

/// Wrap tables as figures (id derived from each title) and emit them in the
/// selected output mode.
pub fn emit_tables(cli: &Cli, tables: &[&Table]) {
    let figures: Vec<Figure> = tables
        .iter()
        .map(|&t| Figure::from_table(t.clone()))
        .collect();
    emit_figures(cli, &figures);
}

/// Run one (workloads × cores × specs) grid on the invocation's runner and
/// return one report per workload.  Every workload's DAG is built once and
/// shared by all of its cells; results are deterministic for any `--threads`
/// value.
pub fn sweep_reports(
    cli: &Cli,
    workloads: &[WorkloadInstance],
    core_counts: &[usize],
    specs: &[SchedulerSpec],
) -> Vec<ExperimentReport> {
    let grid = cli.grid(
        SweepGrid::new()
            .workloads(workloads)
            .cores(core_counts)
            .specs(specs),
    );
    cli.runner()
        .run(&grid)
        .expect("default configurations exist for the requested core counts")
        .into_reports()
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
    cli: &Cli,
    workloads: &[WorkloadInstance],
    core_counts: &[usize],
) -> Vec<ComparisonRow> {
    let reports = sweep_reports(cli, workloads, core_counts, &SchedulerSpec::paper_pair());
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

/// Honor the uniform `--trace` / `--trace-summary` flags for a sweep binary:
/// re-simulate one representative (workload × `cores` × spec) cell per
/// scheduler spec with tracing on, then export a Perfetto JSON (one process
/// track per spec, one thread per core) and/or print binned timeline tables
/// plus the worker pool's wall-clock profile.
///
/// The traced cells run on the invocation's runner pool, and every cell's
/// event stream is deterministic — the exported JSON is byte-identical for
/// every `--threads` value.  (The `--trace-summary` *profile* table is
/// wall-clock and host-dependent by design; it is printed, never written to
/// the trace.)
///
/// No-op when neither flag was given, so the binaries can call this
/// unconditionally after their sweep.
pub fn emit_trace(cli: &Cli, workload: &WorkloadInstance, cores: usize, specs: &[SchedulerSpec]) {
    if !cli.trace.enabled() {
        return;
    }
    let mut config = default_config(cores).expect("default configuration exists for traced cell");
    // The traced cell must run under the same memory-system model as the
    // sweep it represents.
    if let Some(spec) = &cli.memsys {
        config.memsys = spec.memsys_params();
        config
            .validate()
            .expect("validated memsys spec stays valid");
    }
    // ... and under the same cache mode.
    let options = SimOptions {
        cache_mode: cli.cache.clone(),
        ..SimOptions::default()
    };
    let (cells, profile) = cli.runner().run_cells_profiled(specs.len(), |i| {
        simulate_traced(&workload.dag, &config, &specs[i], &options)
    });

    if let Some(path) = &cli.trace.path {
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
        write_trace(path, &tracks);
    }

    if cli.trace.summary {
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
        emit_tables(cli, &refs);
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
pub fn emit_stream_trace(
    cli: &Cli,
    mix: &JobMix,
    jobs: usize,
    cfg: &StreamConfig,
    specs: &[SchedulerSpec],
) {
    if !cli.trace.enabled() {
        return;
    }
    // The traced stream must serve under the same memory-system model and
    // cache mode as the sweep it represents.
    let mut cfg = cfg.clone();
    if let Some(spec) = &cli.memsys {
        cfg.memsys = Some(spec.memsys_params());
    }
    cfg.sim_options.cache_mode = cli.cache.clone();
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

    if let Some(path) = &cli.trace.path {
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
        write_trace(path, &tracks);
    }

    if cli.trace.summary {
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
        emit_tables(cli, &refs);
    }
}

/// Render `tracks` as Perfetto/Chrome trace-event JSON and write it to `path`,
/// reporting the size on stderr.  A write error exits 1.
pub fn write_trace(path: &Path, tracks: &[TraceTrack]) {
    let json = chrome_trace_json(tracks);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("error: cannot write trace to {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!(
        "# wrote {} ({} bytes) — open in ui.perfetto.dev",
        path.display(),
        json.len()
    );
}

/// Bins of the `--trace-summary` timeline tables.
pub const TRACE_SUMMARY_BINS: usize = 24;

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

    /// A command line with no flags.
    fn cli() -> Cli {
        Cli::parse_from(Vec::<String>::new(), &[]).expect("an empty line parses")
    }

    #[test]
    fn figure1_tables_have_two_series_each() {
        let reports = sweep_reports(
            &cli(),
            &[MergeSort::small().into_instance()],
            &[1, 2],
            &SchedulerSpec::paper_pair(),
        );
        let (mpki, speedup) = figure1_tables_from(&reports[0], &[1, 2]);
        assert_eq!(mpki.series.len(), 2);
        assert_eq!(speedup.series.len(), 2);
        assert_eq!(mpki.rows(), 2);
        assert!(mpki.to_csv().starts_with("cores,pdf,ws"));
    }

    #[test]
    fn comparison_rows_cover_requested_cores() {
        let rows = compare_pdf_ws_all(&cli(), &[ParallelScan::small().into_instance()], &[2, 4]);
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
