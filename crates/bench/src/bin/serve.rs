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

use pdfws_bench::{
    cache_mode_arg, emit_tables, maybe_help, maybe_list, memsys_spec_arg, quick_mode, text_output,
    trace_args,
};
use pdfws_schedulers::SchedulerSpec;
use pdfws_serve::{parse_tenants, run_serve, run_serve_traced, ArrivalSpec, ServeConfig};
use pdfws_trace::{chrome_trace_json, EventTrace, TraceTrack};

/// Arrival seed shared by every run of this binary (the serving loop derives
/// its tenant/shape sampling streams from it).
const SEED: u64 = 0x5E12_7E4A;

fn flag_value(flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == flag {
            match args.next() {
                Some(v) => return Some(v),
                None => {
                    eprintln!("error: {flag} needs an argument (try --help)");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = arg.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

fn main() {
    maybe_help(
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
    maybe_list();
    let quick = quick_mode();
    let cores = 8;
    let jobs = match flag_value("--jobs") {
        Some(v) => v.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("error: --jobs needs a positive integer, got '{v}'");
            std::process::exit(2);
        }),
        None => {
            if quick {
                400
            } else {
                4000
            }
        }
    };
    let headroom = match flag_value("--slo") {
        Some(v) => match v.parse::<f64>() {
            Ok(f) if f > 0.0 => f,
            _ => {
                eprintln!("error: --slo needs a positive factor, got '{v}'");
                std::process::exit(2);
            }
        },
        None => 1.0,
    };
    let shedding = !std::env::args().any(|a| a == "--no-shed");
    let autoscale = !std::env::args().any(|a| a == "--no-autoscale");
    let tenants = match flag_value("--tenants") {
        Some(v) => match parse_tenants(&v) {
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
    let loads: Vec<(String, ArrivalSpec)> = match flag_value("--arrivals") {
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
        cfg.sim_options.cache_mode = cache_mode_arg();
        if let Some(spec) = memsys_spec_arg() {
            cfg.memsys = Some(spec.memsys_params());
        }
        let report = run_serve(&cfg).expect("default configurations exist for 8 cores");
        emit_tables(&[&report.summary_table()]);
        if text_output() {
            println!(
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
    let targs = trace_args();
    if let Some(path) = &targs.path {
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
        let json = chrome_trace_json(std::slice::from_ref(&track));
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
}
