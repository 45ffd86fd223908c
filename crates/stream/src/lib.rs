//! `pdfws-stream` — the multiprogrammed job-stream subsystem.
//!
//! The SPAA'06 paper compares PDF and WS one job at a time.  A serving system
//! never sees one job at a time: independent DAG jobs arrive continuously,
//! queue for admission, share the machine, and are judged by latency
//! percentiles, not makespan.  This crate turns the repo's single-shot
//! simulator into that shape:
//!
//! * [`source::JobMix`] — deterministic sampling of weighted
//!   [`WorkloadSpec`](pdfws_workloads::WorkloadSpec) mixes (the paper's
//!   class-A bandwidth-limited vs. class-B neutral taxonomy ships as built-in
//!   mixes; any registered workload spec string can serve traffic).
//! * [`ArrivalSpec`] — the arrival-process axis, a registry addressed by
//!   spec strings: seeded open-loop generators ([`ArrivalGen`]: Poisson,
//!   uniform, Pareto, burst, diurnal).
//! * [`sim_backend::run_stream_sim`] — admits arrived jobs first come, first
//!   served to a bounded set of machine slots and time-multiplexes the
//!   cycle-level [`SimEngine`](pdfws_schedulers::SimEngine) across the
//!   co-resident jobs with round-robin quanta, modelling cross-job cache
//!   pressure through the engine's
//!   [`Disturbance`](pdfws_schedulers::Disturbance) hook.
//! * [`record::StreamOutcome`] — what a run returns: every job's
//!   [`JobRecord`] in completion order, summarised as p50/p95/p99 sojourn,
//!   queueing delay, achieved jobs-per-megacycle and per-job L2 MPKI, built
//!   on `pdfws-metrics`' [`Quantiles`](pdfws_metrics::Quantiles).  Per-job
//!   [`JobRecord`]s carry the full
//!   [`SchedulerSpec`](pdfws_schedulers::SchedulerSpec) *and*
//!   [`WorkloadSpec`](pdfws_workloads::WorkloadSpec) strings and are written
//!   as JSONL ([`StreamOutcome::to_jsonl`](record::StreamOutcome::to_jsonl)).
//!
//! The high-level entry point is `pdfws_core::StreamExperiment`, which sweeps
//! schedulers over one stream the way a `pdfws_core::SweepGrid` sweeps them
//! over one DAG.
//!
//! # Example
//!
//! ```
//! use pdfws_stream::{ArrivalSpec, JobMix, StreamConfig, run_stream_sim};
//! use pdfws_schedulers::SchedulerSpec;
//!
//! let mix = JobMix::class_b();
//! let mut cfg = StreamConfig::new(4, SchedulerSpec::pdf());
//! cfg.arrivals = "poisson:rate=200".parse().unwrap();
//! cfg.max_concurrent = 2;
//! let outcome = run_stream_sim(&mix, 6, &cfg).unwrap();
//! let summary = outcome.summary();
//! assert_eq!(summary.jobs, 6);
//! assert!(summary.sojourn.p99 >= summary.sojourn.p50);
//! assert!(outcome.peak_concurrency <= 2);
//! ```

pub mod arrival;
pub mod arrival_spec;
pub mod job;
pub mod record;
pub mod sim_backend;
pub mod source;

pub use arrival::ArrivalGen;
pub use arrival_spec::{ArrivalDomain, ArrivalFactory, ArrivalRegistry, ArrivalSpec};
pub use job::StreamJob;
pub use record::{JobRecord, StreamOutcome, StreamSummary};
pub use sim_backend::{
    run_stream_sim, run_stream_sim_traced, run_stream_sim_with_jobs, validate_stream_cfg,
    StreamConfig,
};
pub use source::JobMix;
