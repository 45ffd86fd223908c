//! The job-stream scenario: PDF vs. WS serving a multiprogrammed stream of DAG
//! jobs, compared on tail latency and throughput at several offered loads.
//!
//! For each (job mix × arrival rate) cell, the same seeded stream is driven
//! through both schedulers on the simulated CMP and the table reports p50/p95/
//! p99 sojourn time (kcycles), achieved throughput (jobs per megacycle) and the
//! WS/PDF p95 ratio.  Deterministic for a fixed seed: running this binary twice
//! prints identical numbers.
//!
//! Usage: `cargo run --release -p pdfws-bench --bin job_stream [--quick] [--threads N]`
//!
//! `--workload <spec>` (repeatable) serves a custom mix of the given workload
//! specs (equal weights) instead of the three built-in class mixes; `--list`
//! prints the spec grammars.  `--json` emits the raw per-job [`JobRecord`]
//! JSONL instead of the summary table — each record carries its full
//! scheduler and workload spec strings plus the `mix`/`jobs_per_mcycle`
//! coordinates of its (mix × offered load) cell, so the concatenated stream
//! stays attributable per load point; `--csv` emits the summary as CSV.
//!
//! [`JobRecord`]: pdfws_stream::JobRecord

use pdfws_bench::{emit_stream_trace, emit_tables, outln, Cli, OutputMode};
use pdfws_core::prelude::*;
use pdfws_metrics::{Series, Table};
use pdfws_stream::{JobMix, StreamConfig};

fn main() {
    let cli = Cli::parse(
        "job_stream",
        "PDF vs WS serving a multiprogrammed job stream: tail latency and throughput per (mix x offered load)",
        &[],
    );
    let jobs = if cli.quick { 10 } else { 32 };
    let cores = 8;
    let rates = [20.0f64, 120.0];
    let mixes = if cli.workloads.is_empty() {
        vec![JobMix::class_a(), JobMix::class_b(), JobMix::mixed()]
    } else {
        // One mix of the requested specs, equally weighted.
        vec![JobMix::new(
            "custom",
            cli.workloads.iter().map(|s| (s.clone(), 1)).collect(),
        )]
    };

    let mut rows: Vec<String> = Vec::new();
    let mut pdf_p95 = Vec::new();
    let mut pdf_p99 = Vec::new();
    let mut ws_p95 = Vec::new();
    let mut ws_p99 = Vec::new();
    let mut pdf_tput = Vec::new();
    let mut ws_tput = Vec::new();
    let mut tail_ratio = Vec::new();

    let json = cli.output == OutputMode::Json;
    for mix in &mixes {
        for &rate in &rates {
            let report = cli
                .stream(
                    StreamExperiment::new(mix.clone())
                        .jobs(jobs)
                        .cores(cores)
                        .arrivals(ArrivalSpec::poisson(rate))
                        .threads(cli.threads),
                )
                .run()
                .expect("default configurations exist for 8 cores");
            if json {
                // The per-job record sink: one JSONL line per completed job,
                // each carrying its full scheduler and workload spec strings.
                // Job ids restart per (mix × rate) cell, so prepend the cell
                // coordinates to every record to keep the concatenated stream
                // attributable to its load point.
                let mix_name = mix.name.replace('\\', "\\\\").replace('"', "\\\"");
                for line in report.to_jsonl().lines() {
                    let record = line.strip_prefix('{').expect("records are JSON objects");
                    outln!("{{\"mix\":\"{mix_name}\",\"jobs_per_mcycle\":{rate},{record}");
                }
            }
            let pdf = report.summary(&SchedulerSpec::pdf()).expect("pdf ran");
            let ws = report.summary(&SchedulerSpec::ws()).expect("ws ran");
            rows.push(format!("{}@{}", mix.name, rate));
            pdf_p95.push(pdf.sojourn.p95 / 1_000.0);
            pdf_p99.push(pdf.sojourn.p99 / 1_000.0);
            ws_p95.push(ws.sojourn.p95 / 1_000.0);
            ws_p99.push(ws.sojourn.p99 / 1_000.0);
            pdf_tput.push(pdf.jobs_per_mcycle);
            ws_tput.push(ws.jobs_per_mcycle);
            tail_ratio.push(report.ws_over_pdf_p95().unwrap_or(0.0));
        }
    }

    let mut table = Table::new(
        format!(
            "Job stream: PDF vs WS sojourn time and throughput ({jobs} jobs, {cores} cores, FIFO admission)"
        ),
        "mix@jobs_per_Mcyc",
        rows,
    );
    table.push_series(Series::new("pdf_p95_kcyc", pdf_p95));
    table.push_series(Series::new("pdf_p99_kcyc", pdf_p99));
    table.push_series(Series::new("ws_p95_kcyc", ws_p95));
    table.push_series(Series::new("ws_p99_kcyc", ws_p99));
    table.push_series(Series::new("pdf_jobs_per_Mcyc", pdf_tput));
    table.push_series(Series::new("ws_jobs_per_Mcyc", ws_tput));
    table.push_series(Series::new("ws/pdf_p95", tail_ratio));

    if !json {
        emit_tables(&cli, &[&table]);
    }

    // --trace / --trace-summary: a PDF-vs-WS timeline of the first mix at the
    // lower offered load, with async job slices spanning admit -> complete and
    // an outstanding-jobs counter.
    if let Some(mix) = mixes.first() {
        let mut cfg = StreamConfig::new(cores, SchedulerSpec::pdf());
        cfg.arrivals = ArrivalSpec::poisson(rates[0]);
        emit_stream_trace(&cli, mix, jobs, &cfg, &SchedulerSpec::paper_pair());
    }
}
