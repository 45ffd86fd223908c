//! Quickstart: simulate parallel merge sort on an 8-core CMP under both
//! schedulers and print the metrics the paper reports.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pdfws::prelude::*;

fn main() {
    // The Figure-1 workload at a small size so this example runs in a second:
    // 64 Ki keys, sorted by 2 Ki-key leaf tasks.
    let grid = SweepGrid::new()
        .workload_str("mergesort:grain=2048,n=65536")
        .expect("a built-in workload spec")
        .cores(&[8])
        .specs(&SchedulerSpec::paper_pair());
    let sweep = SweepRunner::from_env()
        .run(&grid)
        .expect("the 8-core default configuration exists");
    let report = &sweep.reports()[0];

    println!("parallel merge sort on the default 8-core CMP (240 mm^2 die):\n");
    println!(
        "{:<6} {:>12} {:>16} {:>14} {:>10}",
        "sched", "cycles", "L2 miss/1k instr", "offchip MiB", "speedup"
    );
    for run in report.runs() {
        println!(
            "{:<6} {:>12} {:>16.3} {:>14.2} {:>10.2}",
            run.scheduler.to_string(),
            run.metrics.cycles,
            run.metrics.l2_mpki(),
            run.metrics.offchip_bytes() as f64 / (1024.0 * 1024.0),
            report.speedup(run),
        );
    }

    if let Some(rel) = report.pdf_over_ws_speedup(8) {
        println!(
            "\nPDF is {rel:.2}x {} than WS on this configuration; it moves {:.0}% less data off chip.",
            if rel >= 1.0 { "faster" } else { "slower" },
            report.pdf_traffic_reduction_percent(8).unwrap_or(0.0)
        );
    }
}
