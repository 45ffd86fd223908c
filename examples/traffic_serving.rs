//! Serving a stream of DAG jobs: the paper's schedulers as request servers.
//!
//! The single-job experiments ask "which scheduler finishes one program
//! faster"; a serving system asks "which scheduler keeps p99 latency low while
//! traffic keeps arriving".  This example drives the same seeded stream of
//! mixed-class jobs through PDF and WS under open-loop Poisson arrivals
//! (arrivals that don't wait for the system) and prints the dashboard
//! numbers.
//!
//! Run with: `cargo run --release --example traffic_serving`

use pdfws::prelude::*;

fn print_summary(label: &str, spec: &SchedulerSpec, s: &StreamSummary) {
    println!(
        "  {label} {spec:>4}: p50 {:>8.1} kcyc  p95 {:>8.1} kcyc  p99 {:>8.1} kcyc  \
         {:.2} jobs/Mcyc  peak-conc {}  mean L2 MPKI {:.3}",
        s.sojourn.p50 / 1e3,
        s.sojourn.p95 / 1e3,
        s.sojourn.p99 / 1e3,
        s.jobs_per_mcycle,
        s.peak_concurrency,
        s.mean_l2_mpki,
    );
}

fn main() {
    let mix = JobMix::mixed();
    println!("mix = {} ({} tenants)\n", mix.name, mix.tenants());

    println!("open loop, Poisson @ 80 jobs/Mcycle, FIFO admission, 8 cores:");
    let open = StreamExperiment::new(mix)
        .jobs(24)
        .cores(8)
        .arrivals(ArrivalSpec::poisson(80.0))
        .arrival_seed(7)
        .run()
        .expect("8-core default configuration exists");
    for spec in SchedulerSpec::paper_pair() {
        print_summary("sim", &spec, &open.summary(&spec).expect("scheduler ran"));
    }
    if let Some(ratio) = open.ws_over_pdf_p95() {
        println!("  ws p95 / pdf p95 = {ratio:.3}\n");
    }
}
