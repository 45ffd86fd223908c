//! The experiment binaries' command line, parsed once per process.
//!
//! Every binary accepts the [`UNIFORM_FLAGS`] plus the extra flags it
//! declares as (usage, help) rows — the same rows its `--help` prints.  A row
//! whose usage names a value (`"--out <dir>"`) takes one, and a row whose help
//! starts with `(repeatable)` may be given more than once.  [`Cli::parse`]
//! reads the process arguments exactly once; every harness helper that needs a
//! selection takes the resulting `&Cli`.

use crate::{list_text, write_stdout};
use pdfws_core::prelude::*;
use pdfws_core::{parse_threads, threads_from_env, THREADS_ENV};
use std::path::PathBuf;

/// The uniform flags every experiment binary accepts, as (usage, help) rows —
/// the rows `--help` prints and `DESIGN.md`'s flag table documents.
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
        "print the spec grammars of all four registries (schedulers, workloads, memory-system models, arrival processes) and exit",
    ),
    ("--help", "print this flag table and exit"),
];

/// How a binary renders its tables, selected by `--csv` / `--json` (default:
/// aligned text).
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

/// The tracing selections of one invocation: `--trace <out.json>` and
/// `--trace-summary`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceArgs {
    /// Where to write the Perfetto/Chrome trace-event JSON, if requested.
    pub path: Option<PathBuf>,
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

/// Why a command line produced no [`Cli`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h` appeared anywhere: print the flag table, exit 0.
    Help,
    /// `--list` appeared anywhere: print the registries' grammars, exit 0.
    List,
    /// The line is malformed: print the message, exit 2.
    Invalid(String),
}

/// One experiment binary's parsed command line: the uniform selections as
/// fields, the binary's own flags through [`has`](Cli::has) /
/// [`value`](Cli::value) / [`values`](Cli::values).
#[derive(Debug)]
pub struct Cli {
    /// `--quick`: shrink problem sizes to smoke-test scale.
    pub quick: bool,
    /// Sweep worker threads: `--threads N`, else `PDFWS_THREADS`, else every
    /// available core.
    pub threads: usize,
    /// The validated `--workload` specs, in order (empty: the binary's
    /// default axis).
    pub workloads: Vec<WorkloadSpec>,
    /// `--memsys`: the memory-system model for every simulated cell (`None`:
    /// each configuration's own component bus+DRAM model).
    pub memsys: Option<MemSysSpec>,
    /// `--csv` / `--json`: how tables are rendered.
    pub output: OutputMode,
    /// `--trace` / `--trace-summary`.
    pub trace: TraceArgs,
    /// Every flag given, in order of first appearance, with its values.
    given: Vec<(String, Vec<String>)>,
}

impl Cli {
    /// Parse the process arguments against the uniform flags plus `extra`.
    /// `--help` prints `bin`'s flag table and `--list` the registries'
    /// grammars, both exiting 0; a malformed line prints its error and exits 2.
    pub fn parse(bin: &str, about: &str, extra: &[(&str, &str)]) -> Cli {
        let args = std::env::args_os()
            .skip(1)
            .map(|arg| arg.to_string_lossy().into_owned());
        match Cli::parse_from(args, extra) {
            Ok(cli) => cli,
            Err(CliError::Help) => {
                write_stdout(&help_text(bin, about, extra));
                std::process::exit(0);
            }
            Err(CliError::List) => {
                write_stdout(&list_text());
                std::process::exit(0);
            }
            Err(CliError::Invalid(message)) => {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
    }

    /// Parse `args` (the arguments after the program name) against the
    /// uniform flags plus `extra`, left to right.  Values come as
    /// `--flag value` or `--flag=value`; each is consumed once, and one that
    /// starts with `--` is an error rather than a value.
    pub fn parse_from<I, S>(args: I, extra: &[(&str, &str)]) -> Result<Cli, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            return Err(CliError::Help);
        }
        if args.iter().any(|a| a == "--list") {
            return Err(CliError::List);
        }

        Cli::from_flags(args, extra).map_err(CliError::Invalid)
    }

    /// The flag grammar behind [`parse_from`](Cli::parse_from), with errors
    /// as messages.
    fn from_flags(args: Vec<String>, extra: &[(&str, &str)]) -> Result<Cli, String> {
        let mut given: Vec<(String, Vec<String>)> = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let Some(&(usage, help)) = UNIFORM_FLAGS
                .iter()
                .chain(extra)
                .find(|(usage, _)| usage.split(' ').next() == Some(name))
            else {
                return Err(format!("unknown argument '{arg}' (try --help)"));
            };
            let value = match (usage.contains(' '), inline) {
                (false, None) => None,
                (false, Some(_)) => return Err(format!("{name} takes no value")),
                (true, inline) => match inline.or_else(|| args.next()) {
                    None => return Err(format!("{name} needs a value: {usage}")),
                    Some(v) if v.starts_with("--") => {
                        return Err(format!(
                            "{name} needs a value ({usage}), got the flag '{v}'"
                        ))
                    }
                    Some(v) => Some(v),
                },
            };
            match given.iter_mut().find(|(n, _)| n == name) {
                Some(_) if !help.starts_with("(repeatable)") => {
                    return Err(format!("{name} given more than once"))
                }
                Some((_, values)) => values.extend(value),
                None => given.push((name.to_string(), value.into_iter().collect())),
            }
        }

        let mut cli = Cli {
            quick: false,
            threads: 1,
            workloads: Vec::new(),
            memsys: None,
            output: OutputMode::Text,
            trace: TraceArgs::default(),
            given,
        };
        cli.quick = cli.has("--quick");
        cli.threads = match cli.value("--threads") {
            Some(v) => parse_threads(v)
                .ok_or_else(|| format!("--threads needs a non-negative integer, got '{v}'"))?,
            None => default_threads(),
        };
        cli.workloads = cli
            .values("--workload")
            .iter()
            .map(|v| v.parse().map_err(|e| format!("{e}")))
            .collect::<Result<_, _>>()?;
        cli.memsys = cli
            .value("--memsys")
            .map(|v| v.parse().map_err(|e| format!("{e}")))
            .transpose()?;
        cli.output = match (cli.has("--csv"), cli.has("--json")) {
            (true, true) => return Err("--csv and --json are mutually exclusive".into()),
            (true, false) => OutputMode::Csv,
            (false, true) => OutputMode::Json,
            (false, false) => OutputMode::Text,
        };
        cli.trace = TraceArgs {
            path: cli.value("--trace").map(PathBuf::from),
            summary: cli.has("--trace-summary"),
        };
        Ok(cli)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| name == flag)
    }

    /// The value of the single-valued `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).first().map(String::as_str)
    }

    /// Every value of `flag`, in command-line order.
    pub fn values(&self, flag: &str) -> &[String] {
        self.given
            .iter()
            .find(|(name, _)| name == flag)
            .map_or(&[], |(_, values)| values.as_slice())
    }

    /// True when tables render as aligned text — the binaries gate their prose
    /// summary lines on this, so `--csv` / `--json` stdout stays
    /// machine-parseable.
    pub fn text_output(&self) -> bool {
        self.output == OutputMode::Text
    }

    /// The worker pool every sweep of this invocation runs on.
    pub fn runner(&self) -> SweepRunner {
        SweepRunner::new(self.threads)
    }

    /// The binary's workload axis: the `--workload` specs when any were given,
    /// instantiated through the registry, else `defaults()`.  Defaults are
    /// built lazily so an overridden run never pays for the (possibly
    /// paper-scale) default DAGs.
    pub fn workloads_or(
        &self,
        defaults: impl FnOnce() -> Vec<WorkloadInstance>,
    ) -> Vec<WorkloadInstance> {
        if self.workloads.is_empty() {
            defaults()
        } else {
            self.workloads
                .iter()
                .map(WorkloadInstance::from_spec)
                .collect()
        }
    }

    /// Note on stderr that the (already validated) `--workload` specs after
    /// the first `keep` are ignored, and why: `keep` is 0 in binaries whose
    /// workloads are fixed and 1 in binaries that study one program.
    pub fn ignore_workloads(&self, keep: usize, why: &str) {
        if let Some(ignored @ [_, ..]) = self.workloads.get(keep..) {
            let specs: Vec<String> = ignored.iter().map(|s| s.canonical()).collect();
            eprintln!("note: {why}; ignoring --workload {}", specs.join(", "));
        }
    }

    /// Apply the `--memsys` selection to a sweep grid.
    pub fn grid(&self, grid: SweepGrid) -> SweepGrid {
        match &self.memsys {
            Some(spec) => grid.memsys(spec.clone()),
            None => grid,
        }
    }

    /// Apply the `--memsys` selection to a stream-experiment builder.
    pub fn stream(&self, experiment: StreamExperiment) -> StreamExperiment {
        match &self.memsys {
            Some(spec) => experiment.memsys(spec.clone()),
            None => experiment,
        }
    }
}

/// `PDFWS_THREADS`, else every available core.  A malformed variable warns
/// before falling back: a typo must not silently saturate every core (the
/// library's `threads_from_env` stays silent by design; the CLI harness is
/// where diagnostics belong).
fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if parse_threads(&v).is_none() {
            eprintln!("warning: ignoring malformed {THREADS_ENV}='{v}'; using all available cores");
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    threads_from_env(cores)
}

/// `bin`'s `--help` text: the description, then its `extra` flags and the
/// uniform flags as one aligned table.
fn help_text(bin: &str, about: &str, extra: &[(&str, &str)]) -> String {
    let rows: Vec<&(&str, &str)> = extra.iter().chain(UNIFORM_FLAGS).collect();
    let width = rows.iter().map(|(usage, _)| usage.len()).max().unwrap_or(0);
    let mut text = format!(
        "{bin} — {about}\n\nUsage: cargo run --release -p pdfws-bench --bin {bin} [-- FLAGS]\n\nFlags:\n"
    );
    for (usage, help) in rows {
        text.push_str(&format!("  {usage:<width$}  {help}\n"));
    }
    text
}
