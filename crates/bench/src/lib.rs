//! Shared harness code for the experiment binaries.
//!
//! Every figure and finding of the paper has a binary in `src/bin/` that
//! renders its experiment's setup — the workload specs, core axis, scheduler
//! specs and L2 fractions of `pdfws_report::experiments`, the grid the
//! replication claims read too — as tables; the functions here build them.
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
//! bus:dram:banks=32`), the output and tracing flags below, `--list` (print
//! all four registries' grammars and exit) and `--help` (print the flag table
//! and exit).  A binary adds its own flags as extra (usage, help) rows.  An
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
use pdfws_trace::{chrome_trace_json, timeline_table, EventTrace, TraceEvent, TraceTrack};
use std::io::Write;
use std::path::Path;

pub mod cli;

pub use cli::{Cli, CliError, OutputMode, TraceArgs, UNIFORM_FLAGS};

/// All four registries' spec grammars — every scheduler policy, workload,
/// memory-system model and arrival process, with their typed parameters —
/// exactly as `--list` prints them.
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

/// A named table column, computed from each row's item.
type Column<T> = (&'static str, fn(&T) -> f64);

/// The per-class PDF-vs-WS comparison of every (workload × core count)
/// cell of `reports`, as one table over "workload@cores": relative speedup
/// (WS makespan / PDF makespan, > 1 means PDF faster), percent reduction in
/// off-chip traffic under PDF, and both L2 MPKIs.
pub fn comparison_table(title: &str, reports: &[ExperimentReport], cores: &[usize]) -> Table {
    let cells: Vec<(&ExperimentReport, usize)> = reports
        .iter()
        .flat_map(|r| cores.iter().map(move |&c| (r, c)))
        .collect();
    let x = cells.iter().map(|(r, c)| format!("{}@{c}", r.workload));
    let mut t = Table::new(title, "workload@cores", x.collect());
    fn mpki(&(r, c): &(&ExperimentReport, usize), spec: SchedulerSpec) -> f64 {
        r.find(c, &spec).unwrap().metrics.l2_mpki()
    }
    let columns: [Column<(&ExperimentReport, usize)>; 4] = [
        ("rel_speedup(pdf/ws)", |&(r, c)| {
            r.pdf_over_ws_speedup(c).unwrap()
        }),
        ("traffic_reduction_%", |&(r, c)| {
            r.pdf_traffic_reduction_percent(c).unwrap()
        }),
        ("pdf_mpki", |cell| mpki(cell, SchedulerSpec::pdf())),
        ("ws_mpki", |cell| mpki(cell, SchedulerSpec::ws())),
    ];
    for (name, column) in columns {
        t.push_series(Series::new(name, cells.iter().map(column).collect()));
    }
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
    let columns: [Column<CmpConfig>; 5] = [
        ("feature_nm", |c| c.node.feature_nm()),
        ("l2_mib", |c| c.l2.capacity_bytes as f64 / (1024.0 * 1024.0)),
        ("l2_latency_cyc", |c| c.l2.latency_cycles as f64),
        ("mem_latency_cyc", |c| c.memory_latency_cycles as f64),
        ("offchip_B_per_cyc", |c| c.offchip_bytes_per_cycle),
    ];
    for (name, column) in columns {
        t.push_series(Series::new(name, configs.iter().map(column).collect()));
    }
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
    let (cells, profile) = cli.runner().run_cells_profiled(specs.len(), |i| {
        simulate_traced(&workload.dag, &config, &specs[i], &SimOptions::default()).1
    });
    let subject = workload.spec.canonical();
    emit_timelines(
        cli,
        &subject,
        cores,
        specs,
        &cells,
        Some(profile.to_table()),
    );
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
    // The traced stream must serve under the same memory-system model as
    // the sweep it represents.
    let mut cfg = cfg.clone();
    if let Some(spec) = &cli.memsys {
        cfg.memsys = Some(spec.memsys_params());
    }
    let cells: Vec<Vec<TraceEvent>> = specs
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
    let subject = format!("stream {}", mix.name);
    emit_timelines(cli, &subject, cfg.cores, specs, &cells, None);
}

/// Export and/or summarize one traced cell per scheduler spec of `subject`
/// (a workload spec or a stream): `--trace` writes one Perfetto process
/// track per spec, `--trace-summary` prints one binned timeline table per
/// spec, then `extra`.
fn emit_timelines(
    cli: &Cli,
    subject: &str,
    cores: usize,
    specs: &[SchedulerSpec],
    cells: &[Vec<TraceEvent>],
    extra: Option<Table>,
) {
    if let Some(path) = &cli.trace.path {
        let tracks: Vec<TraceTrack> = specs
            .iter()
            .zip(cells)
            .enumerate()
            .map(|(i, (spec, events))| {
                let name = format!("{spec} · {subject} @ {cores} cores");
                TraceTrack::new((i + 1) as u64, name, cores, events.clone())
            })
            .collect();
        write_trace(path, &tracks);
    }
    if cli.trace.summary {
        let tables: Vec<Table> = specs
            .iter()
            .zip(cells)
            .map(|(spec, events)| {
                let title = format!("{subject}: timeline under {spec} @ {cores} cores");
                timeline_table(&title, events, cores, TRACE_SUMMARY_BINS)
            })
            .chain(extra)
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

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_report::experiments::CONFIGS;

    /// A command line with no flags.
    fn cli() -> Cli {
        Cli::parse_from(Vec::<String>::new(), &[]).expect("an empty line parses")
    }

    #[test]
    fn figure1_tables_have_two_series_each() {
        let reports = sweep_reports(
            &cli(),
            &["mergesort".parse().unwrap()],
            &[1, 2],
            &SchedulerSpec::paper_pair(),
        );
        let pair = SchedulerSpec::paper_pair();
        let (mpki, speedup) = (
            reports[0].mpki_table(&[1, 2], &pair),
            reports[0].speedup_table(&[1, 2], &pair),
        );
        assert_eq!(mpki.series.len(), 2);
        assert_eq!(speedup.series.len(), 2);
        assert_eq!(mpki.rows(), 2);
        assert!(mpki.to_csv().starts_with("cores,pdf,ws"));
    }

    #[test]
    fn comparison_rows_cover_requested_cores() {
        let workloads = ["scan".parse().unwrap()];
        let reports = sweep_reports(&cli(), &workloads, &[2, 4], &SchedulerSpec::paper_pair());
        let t = comparison_table("test", &reports, &[2, 4]);
        assert_eq!(t.x_values, ["scan@2", "scan@4"]);
        assert_eq!(t.series.len(), 4);
    }

    #[test]
    fn config_table_covers_the_paper_sweep() {
        let t = config_table(CONFIGS.paper.cores);
        assert_eq!(t.rows(), 6);
        assert_eq!(t.series.len(), 5);
    }
}
