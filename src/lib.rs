//! `pdfws` — reproduction of *"Parallel Depth First vs. Work Stealing Schedulers on
//! CMP Architectures"* (SPAA 2006).
//!
//! This umbrella crate re-exports the whole workspace so that examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! * [`spec`] — the shared `name:key=value` grammar and the generic registry
//!   every string-addressable axis (scheduler, workload, memsys, arrivals) is
//!   an instance of.
//! * [`cmp_model`] — die-area / process-technology configuration model (the paper's
//!   "default configurations" for 1–32 cores on a 240 mm² die).
//! * [`cache_sim`] — private-L1 / shared-L2 cache-hierarchy simulator.
//! * [`task_dag`] — fine-grained fork-join task DAGs with per-task memory traces.
//! * [`memsys`] — the discrete-event memory-system substrate: shared
//!   split-transaction bus + banked DRAM controller components behind the open
//!   `MemSysSpec` API (`--memsys bus:dram:banks=32` / `--memsys legacy`).
//! * [`schedulers`] — the open `SchedulerSpec` API (policy registry, parameterized
//!   PDF/WS/hybrid/static policies) and the cycle-level execution engine.
//! * [`workloads`] — the benchmark programs (merge sort, matmul, LU, SpMV, hash
//!   join, scan, …) as DAG generators behind the open `WorkloadSpec` API
//!   (workload registry, typed `name:key=value` parameters).
//! * [`metrics`] — L2 misses per 1000 instructions, speedups, latency quantiles,
//!   traffic, reporting.
//! * [`stream`] — the multiprogrammed job-stream subsystem: the open
//!   `ArrivalSpec` axis (Poisson/uniform/Pareto/burst/diurnal open loops),
//!   FIFO admission to bounded slots, and latency metrics under load.
//! * [`serve`] — the multi-tenant serving tier on top of the stream subsystem:
//!   weighted tenants with p99 sojourn SLOs, admission control with load
//!   shedding, core autoscaling, and constant-memory streaming statistics for
//!   sustained 10⁶–10⁷-job runs.
//! * [`trace`] — structured event tracing: typed per-core/steal/cache-window
//!   events, Perfetto (Chrome trace-event) export, and binned timeline tables.
//! * [`core`](mod@core_api) — the high-level [`SweepGrid`](core_api::SweepGrid) /
//!   [`SweepRunner`](core_api::SweepRunner) and
//!   [`StreamExperiment`](core_api::stream_experiment::StreamExperiment) APIs
//!   used by every example and benchmark.
//! * [`report`] — durable artifacts: [`Figure`](report::Figure) renderers
//!   (CSV/JSONL/markdown/ASCII charts) and the paper-claim
//!   [`ReplicationSuite`](report::ReplicationSuite) behind the `replicate`
//!   binary.
//!
//! # Quickstart
//!
//! ```
//! use pdfws::prelude::*;
//!
//! // Simulate parallel merge sort on the default 8-core CMP under both schedulers.
//! let grid = SweepGrid::new()
//!     .workload_str("mergesort:grain=2048,n=16384")
//!     .expect("a built-in workload spec")
//!     .cores(&[8])
//!     .specs(&[SchedulerSpec::pdf(), "ws:steal=half".parse().unwrap()]);
//! let sweep = SweepRunner::sequential().run(&grid).expect("simulation succeeds");
//! for run in sweep.reports()[0].runs() {
//!     println!("{:>4}: {:.3} L2 misses / 1000 instr", run.scheduler, run.metrics.l2_mpki());
//! }
//! ```

pub use pdfws_cache_sim as cache_sim;
pub use pdfws_cmp_model as cmp_model;
pub use pdfws_core as core_api;
pub use pdfws_memsys as memsys;
pub use pdfws_metrics as metrics;
pub use pdfws_report as report;
pub use pdfws_schedulers as schedulers;
pub use pdfws_serve as serve;
pub use pdfws_spec as spec;
pub use pdfws_stream as stream;
pub use pdfws_task_dag as task_dag;
pub use pdfws_trace as trace;
pub use pdfws_workloads as workloads;

/// Convenience prelude re-exporting the types used by virtually every experiment.
pub mod prelude {
    pub use pdfws_core::prelude::*;
}
