//! The serving-tier scenario: a multi-tenant, SLO-aware front end (admission
//! control, load shedding, core autoscaling) serving heavy-tailed arrivals on
//! the calibrated fluid model of `pdfws-serve`.
//!
//! By default the binary contrasts a light open-loop load against a deep
//! overload with the same tenant set: the light run admits everything, the
//! overloaded run sheds most of the offered work and the per-tenant table
//! shows the admitted jobs' p99 sojourn still inside each tenant's SLO
//! target.  One `shed-rate:` prose line per run summarizes the outcome (CI
//! greps these).  Deterministic for a fixed seed: running this binary twice
//! prints identical numbers.
//!
//! Usage: `cargo run --release -p pdfws-bench --bin serve [-- FLAGS]`
//!
//! `--arrivals <spec>` replaces the default load axis with one registered
//! arrival process (e.g. `pareto:alpha=1.5,rate=400`); `--tenants <specs>`
//! replaces the default interactive+batch pair with '+'-joined tenant specs
//! (e.g. `api:weight=4,p99=1500000+bulk:slo=batch,mix=class-b`); `--slo F`
//! scales the admission headroom (predictions are compared against `F x
//! target`); `--no-shed` disables the shedder for a baseline run;
//! `--no-autoscale` pins the tier at full capacity; `--jobs N` overrides the
//! per-run job count.  `--list` prints the five spec-registry grammars,
//! `--trace <out.json>` exports a Perfetto timeline (admit/complete/shed job
//! slices plus `active_cores` / `outstanding_jobs` counter tracks) of the
//! heaviest run.

use pdfws_bench::{emit_tables, outln, write_trace, Cli};
use pdfws_schedulers::SchedulerSpec;
use pdfws_serve::{parse_tenants, run_serve, run_serve_traced, ArrivalSpec, ServeConfig};
use pdfws_trace::{EventTrace, TraceTrack};

/// Arrival seed shared by every run of this binary (the serving loop derives
/// its tenant/shape sampling streams from it).
const SEED: u64 = 0x5E12_7E4A;

fn main() {
    let cli = Cli::parse(
        "serve",
        "multi-tenant SLO-aware serving tier: admission control, load shedding and core autoscaling over calibrated arrivals",
        &[
            (
                "--arrivals <spec>",
                "replace the default light/overload axis with one registered arrival process",
            ),
            (
                "--tenants <specs>",
                "'+'-joined tenant specs (default: the interactive+batch pair)",
            ),
            (
                "--slo F",
                "admission headroom: shed when the predicted sojourn exceeds F x target (default 1.0)",
            ),
            ("--no-shed", "disable the shedder (baseline run)"),
            ("--no-autoscale", "pin the tier at full capacity"),
            ("--jobs N", "jobs offered per run (default 4000, quick 400)"),
        ],
    );
    cli.ignore_workloads("the serving tier draws its jobs from the tenants' mixes");
    let cores = 8;
    let jobs = match cli.value("--jobs") {
        Some(v) => v.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("error: --jobs needs a positive integer, got '{v}'");
            std::process::exit(2);
        }),
        None => {
            if cli.quick {
                400
            } else {
                4000
            }
        }
    };
    let headroom = match cli.value("--slo") {
        Some(v) => match v.parse::<f64>() {
            Ok(f) if f > 0.0 => f,
            _ => {
                eprintln!("error: --slo needs a positive factor, got '{v}'");
                std::process::exit(2);
            }
        },
        None => 1.0,
    };
    let shedding = !cli.has("--no-shed");
    let autoscale = !cli.has("--no-autoscale");
    let tenants = match cli.value("--tenants") {
        Some(v) => match parse_tenants(v) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        },
        None => pdfws_serve::TenantSpec::default_pair(),
    };
    // The load axis: one requested process, or the default light/overload
    // contrast (rates in jobs per megacycle).
    let loads: Vec<(String, ArrivalSpec)> = match cli.value("--arrivals") {
        Some(v) => match v.parse::<ArrivalSpec>() {
            Ok(spec) => vec![("requested".to_string(), spec)],
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        },
        None => vec![
            ("light".to_string(), ArrivalSpec::poisson(2.0)),
            ("overload".to_string(), ArrivalSpec::poisson(400.0)),
        ],
    };

    let mut heaviest: Option<ServeConfig> = None;
    for (label, arrivals) in &loads {
        let mut cfg = ServeConfig::new(cores, SchedulerSpec::pdf());
        cfg.jobs = jobs;
        cfg.tenants = tenants.clone();
        cfg.arrivals = arrivals.clone();
        cfg.shedding = shedding;
        cfg.slo_headroom = headroom;
        cfg.seed = SEED;
        if !autoscale {
            cfg.autoscale = None;
        }
        cfg.sim_options.cache_mode = cli.cache.clone();
        if let Some(spec) = &cli.memsys {
            cfg.memsys = Some(spec.memsys_params());
        }
        let report = run_serve(&cfg).expect("default configurations exist for 8 cores");
        emit_tables(&cli, &[&report.summary_table()]);
        if cli.text_output() {
            outln!(
                "# {label} ({}): shed-rate: {:.4}  completed: {}/{}  worst p99/target: {:.3}  final cores: {}",
                arrivals.canonical(),
                report.shed_rate(),
                report.completed,
                report.offered,
                report.worst_p99_over_target(),
                report.final_cores,
            );
        }
        heaviest = Some(cfg);
    }

    // --trace: a Perfetto timeline of the heaviest run — async job slices
    // spanning admit -> complete (shed jobs never open a slice) plus the
    // `active_cores` and `outstanding_jobs` counter tracks.
    if let Some(path) = &cli.trace.path {
        let cfg = heaviest.expect("load axis is never empty");
        let mut trace = EventTrace::new();
        run_serve_traced(&cfg, &mut trace).expect("traced serve run");
        let track = TraceTrack::new(
            1,
            format!(
                "serve {} · {} @ {cores} cores",
                cfg.arrivals.canonical(),
                cfg.scheduler
            ),
            cores,
            trace.into_events(),
        );
        write_trace(path, &[track]);
    }
}
