//! Criterion bench: serving-tier throughput — jobs/s through the calibrated
//! fluid loop (admission + DRR dispatch + shedding) vs the plain `job_stream`
//! per-quantum simulation path.
//!
//! Both paths price references exactly; the contrast is the tier itself:
//! the serve path pays a one-off calibration (one engine run per job shape)
//! and then prices every further job in O(events), while the stream path
//! simulates every quantum of every job.  The serve path therefore
//! serves far more jobs per second — this bench tracks that gap per PR
//! (recorded in `EXPERIMENTS.md` and, with `--json`, in `BENCH_<n>.json`).
//!
//! The 2000-job serve row pins the tier at full capacity, so it takes no
//! autoscale tick.  `serve_light_autoscale_exact` is the serving loop's
//! tick path: a light load on the default ladder, where ticks outnumber
//! arrivals and completions about five to one.  Most of those ticks cannot
//! change the level, idle or not, and the loop takes them in one tight run
//! up to the next arrival or completion; CI records this row with `--json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pdfws_schedulers::SchedulerSpec;
use pdfws_serve::{run_serve, ArrivalSpec, ServeConfig};
use pdfws_stream::{run_stream_sim, JobMix, StreamConfig};
use std::hint::black_box;

fn bench_serve_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);

    // The serving tier: 2000 jobs through admission + dispatch + the fluid
    // GPS loop (calibration happens inside every iteration, so this is the
    // worst case — sustained runs amortise one calibration across millions
    // of jobs).
    let serve_jobs = 2_000;
    let mut cfg = ServeConfig::new(8, SchedulerSpec::pdf());
    cfg.jobs = serve_jobs;
    cfg.autoscale = None;
    group.throughput(Throughput::Elements(serve_jobs as u64));
    group.bench_function("serve_2000_jobs_exact", |b| {
        b.iter(|| black_box(run_serve(&cfg).expect("serve run").completed))
    });

    // The tick path: `poisson:rate=2` on the default 2/4/8-core ladder
    // (50k-cycle evaluation interval).
    let light_jobs = 200_000;
    let mut light = ServeConfig::new(8, SchedulerSpec::pdf());
    light.jobs = light_jobs;
    light.arrivals = ArrivalSpec::poisson(2.0);
    group.throughput(Throughput::Elements(light_jobs as u64));
    group.bench_function("serve_light_autoscale_exact", |b| {
        b.iter(|| black_box(run_serve(&light).expect("serve run").completed))
    });

    // The plain job-stream path: every quantum of every job simulated.  Far
    // fewer jobs fit a bench iteration, hence the per-element throughput
    // units make the two comparable.
    let stream_jobs = 20;
    let mix = JobMix::class_a();
    let scfg = StreamConfig::new(8, SchedulerSpec::pdf());
    group.throughput(Throughput::Elements(stream_jobs as u64));
    group.bench_function("job_stream_20_jobs_exact", |b| {
        b.iter(|| {
            black_box(
                run_stream_sim(&mix, stream_jobs, &scfg)
                    .expect("stream run")
                    .records
                    .len(),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
