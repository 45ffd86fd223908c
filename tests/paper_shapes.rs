//! Qualitative reproduction of the paper's findings at test-friendly scale.
//!
//! Absolute numbers differ from the paper (its substrate was a full-system
//! simulator and its inputs were larger), but the *shapes* the brief announcement
//! reports must hold: PDF produces no more off-chip traffic than WS on the
//! sharing-friendly workloads once the data outgrows the shared L2, the two
//! schedulers tie on low-reuse / compute-bound workloads, and the coarse-grained
//! program variants lose the benefit.
//!
//! To keep the tests fast, the machine is scaled down (small L1/L2) together with
//! the inputs so that the capacity effects the paper studies still occur.

use pdfws::prelude::*;

/// An 8-core machine whose caches are scaled down for test-sized inputs:
/// 8 KiB private L1s and a 256 KiB shared L2.
fn small_cache_config(cores: usize) -> CmpConfig {
    let mut cfg = default_config(cores).expect("default configuration exists");
    cfg.l1.capacity_bytes = 8 * 1024;
    cfg.l2.capacity_bytes = 256 * 1024;
    cfg.l2.associativity = 16;
    cfg.validate().expect("scaled-down configuration is valid");
    cfg
}

/// A one-workload grid on the scaled-down machine at `cores`, under the
/// paper's pair unless `specs` narrows it.
fn grid(workload: &WorkloadInstance, cores: usize) -> SweepGrid {
    SweepGrid::new()
        .workload(workload.clone())
        .cores(&[cores])
        .with_config(small_cache_config(cores))
}

/// The report of a one-workload grid.
fn run(grid: SweepGrid) -> ExperimentReport {
    SweepRunner::from_env()
        .run(&grid)
        .unwrap()
        .into_reports()
        .remove(0)
}

fn instance(spec: &str) -> WorkloadInstance {
    spec.parse().unwrap()
}

#[test]
fn mergesort_pdf_produces_no_more_l2_misses_than_ws_at_scale() {
    // 2^16 keys * 8 B * 2 buffers = 1 MiB of data against a 256 KiB L2.
    let spec = instance("mergesort:grain=1024,n=65536");
    for cores in [8usize, 16] {
        let report = run(grid(&spec, cores));
        let pdf = report.find(cores, &SchedulerSpec::pdf()).unwrap();
        let ws = report.find(cores, &SchedulerSpec::ws()).unwrap();
        assert!(
            pdf.metrics.l2_mpki() <= ws.metrics.l2_mpki() * 1.02,
            "{cores} cores: pdf mpki {} vs ws mpki {}",
            pdf.metrics.l2_mpki(),
            ws.metrics.l2_mpki()
        );
        assert!(
            pdf.metrics.offchip_bytes()
                <= ws.metrics.offchip_bytes() + ws.metrics.offchip_bytes() / 50,
            "{cores} cores: pdf traffic {} vs ws traffic {}",
            pdf.metrics.offchip_bytes(),
            ws.metrics.offchip_bytes()
        );
    }
}

#[test]
fn ws_l2_misses_grow_with_cores_faster_than_pdf_for_mergesort() {
    let spec = instance("mergesort:grain=1024,n=65536");
    let mpki = |cores: usize, scheduler: &SchedulerSpec| {
        let report = run(grid(&spec, cores).specs(std::slice::from_ref(scheduler)));
        report.find(cores, scheduler).unwrap().metrics.l2_mpki()
    };
    let (pdf, ws) = (SchedulerSpec::pdf(), SchedulerSpec::ws());
    let pdf_growth = mpki(16, &pdf) / mpki(1, &pdf);
    let ws_growth = mpki(16, &ws) / mpki(1, &ws);
    assert!(
        ws_growth >= pdf_growth,
        "WS miss growth ({ws_growth:.3}x) should be at least PDF's ({pdf_growth:.3}x)"
    );
}

#[test]
fn low_reuse_scan_ties_between_schedulers() {
    let spec = instance("scan:grain=8192,n=32768");
    let cores = 8;
    let report = run(grid(&spec, cores));
    let pdf = report.find(cores, &SchedulerSpec::pdf()).unwrap();
    let ws = report.find(cores, &SchedulerSpec::ws()).unwrap();
    let rel = ws.metrics.cycles as f64 / pdf.metrics.cycles as f64;
    assert!(
        (0.85..=1.20).contains(&rel),
        "scan should tie: relative speedup {rel:.3}"
    );
}

#[test]
fn compute_bound_kernel_ties_between_schedulers() {
    let spec = instance("compute-kernel:grain=1024,items=8192");
    let cores = 8;
    let report = run(grid(&spec, cores));
    let pdf = report.find(cores, &SchedulerSpec::pdf()).unwrap();
    let ws = report.find(cores, &SchedulerSpec::ws()).unwrap();
    let rel = ws.metrics.cycles as f64 / pdf.metrics.cycles as f64;
    assert!(
        (0.9..=1.1).contains(&rel),
        "compute kernel should tie: relative speedup {rel:.3}"
    );
}

#[test]
fn coarse_grained_mergesort_cannot_exploit_constructive_sharing() {
    // The paper's finding is not that coarse-grained code is always slower, but
    // that it "cannot exploit the constructive cache behavior inherent in PDF":
    // with only one big task per core, PDF and WS schedule essentially the same
    // thing, so PDF's traffic advantage disappears, while the fine-grained version
    // of the same program retains it.
    let cores = 8;
    let fine = run(grid(&instance("mergesort:grain=1024,n=65536"), cores));
    let coarse = run(grid(
        &instance("mergesort:coarse=8,grain=2048,n=65536"),
        cores,
    ));

    let fine_reduction = fine.pdf_traffic_reduction_percent(cores).unwrap();
    let coarse_reduction = coarse.pdf_traffic_reduction_percent(cores).unwrap();
    assert!(
        fine_reduction > coarse_reduction + 1.0,
        "fine-grained PDF should cut traffic more than coarse-grained \
         (fine {fine_reduction:.1}% vs coarse {coarse_reduction:.1}%)"
    );
    // And the coarse variant's PDF-vs-WS gap is negligible in absolute terms.
    assert!(
        coarse_reduction.abs() < 5.0,
        "coarse-grained PDF and WS should be nearly identical, got {coarse_reduction:.1}%"
    );
}

#[test]
fn shrinking_the_l2_hurts_ws_more_than_pdf() {
    // The cache power-down finding: with half the L2 powered, PDF's running time
    // degrades no more than WS's.  The input is sized so the paper's
    // precondition holds — PDF's depth-first working set still (mostly) fits
    // in the halved L2 while WS's per-core working sets spill: at 2^16 keys
    // both schedulers outgrow even the full 256 KiB L2 and the halving
    // penalty is dominated by capacity misses neither scheduler can avoid.
    let spec = instance("mergesort:grain=1024,n=32768");
    let cores = 8;
    let full = small_cache_config(cores);
    let mut half = full;
    half.l2.capacity_bytes = full.l2.capacity_bytes / 2;
    half.validate().unwrap();

    let slowdown = |scheduler: &SchedulerSpec| {
        let run_with = |cfg: CmpConfig| {
            let report = run(grid(&spec, cores)
                .with_config(cfg)
                .specs(std::slice::from_ref(scheduler)));
            report.find(cores, scheduler).unwrap().metrics.cycles as f64
        };
        run_with(half) / run_with(full)
    };
    let pdf_slowdown = slowdown(&SchedulerSpec::pdf());
    let ws_slowdown = slowdown(&SchedulerSpec::ws());
    assert!(
        pdf_slowdown <= ws_slowdown * 1.05,
        "pdf slowdown {pdf_slowdown:.3} vs ws slowdown {ws_slowdown:.3}"
    );
}
