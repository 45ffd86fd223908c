//! `simbench --workload <fig1-l2x|zoo-finegrain|serve-mixed> --seed N
//! --seconds S --trace <0|1>`
//!
//! Prints provenance, regime and per-cell results, then every metric with its
//! unit, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  Exits 1 when a
//! correctness check fails and 2 on a usage error.

use simbench::{result_json, run, Params, Size, Trace, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: simbench --workload <fig1-l2x|zoo-finegrain|serve-mixed> --seed N --seconds S --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Params {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage(&format!("bad seed '{value}'"))),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage(&format!("bad seconds '{value}'"))),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    _ => usage(&format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => usage(&format!("unknown flag '{flag}'")),
        }
    }
    Params {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        size: Size::Full,
    }
}

/// Fix glibc's mmap threshold at the ceiling its adaptive rule grows to.
///
/// By default the threshold starts at 128 KiB and rises the first time a
/// large mapped block is freed; where it stops depends on allocation order,
/// which depends on the seed.  With the default rule `peak_rss_mib` of
/// `serve-mixed` is 10.3 MiB on some seeds and 14.1 MiB on others, with the
/// same live data; with the fixed threshold it no longer depends on the seed.
/// Every figure this binary prints is therefore for a process with a pinned
/// allocator threshold, not for glibc's default, adaptive one.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only changes allocator tuning and is called before
    // this program starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() {
    pin_mmap_threshold();
    let params = parse_args();
    let out = run(&params);
    for line in &out.notes {
        println!("# {line}");
    }
    if let Some(path) = &out.spans_file {
        println!("# spans: {}", path.display());
    }
    for m in &out.metrics {
        println!("# metric {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for failure in &out.checks.failures {
        println!("# FAILED: {failure}");
    }
    println!(
        "# checks: {} attempted, {} failed",
        out.checks.attempted,
        out.checks.failed()
    );
    println!("{}", result_json(&out));
    if out.checks.failed() > 0 {
        std::process::exit(1);
    }
}
