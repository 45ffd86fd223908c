//! High-level experiment API: configurations × workloads × schedulers → metrics.
//!
//! This is the crate downstream users interact with.  It wires the other crates
//! together behind one grid: workloads named by their spec strings, swept over
//! core counts and scheduler specs.
//!
//! ```
//! use pdfws_core::prelude::*;
//!
//! let grid = SweepGrid::new()
//!     .workload_str("mergesort:grain=2048,n=8192")
//!     .unwrap()
//!     .cores(&[1, 4, 8])
//!     .specs(&[SchedulerSpec::pdf(), "ws:steal=half".parse().unwrap()]);
//! let sweep = SweepRunner::sequential().run(&grid).unwrap();
//! let report = &sweep.reports()[0];
//!
//! // Speedups are measured against the one-core default configuration.
//! for run in report.runs() {
//!     println!(
//!         "{:>3} cores  {:>6}  mpki={:.3}  speedup={:.2}",
//!         run.cores,
//!         run.scheduler,
//!         run.metrics.l2_mpki(),
//!         report.speedup(run),
//!     );
//! }
//! ```
//!
//! Everything executes through the [`sweep`] module — [`SweepGrid`]
//! describes a (workload × cores × spec) grid and [`SweepRunner`] runs its
//! cells on a worker pool with bit-identical results for every thread count,
//! sharing each workload's DAG by `Arc` across all cells.
//! [`SweepRunner::new`] sizes the pool; [`SweepRunner::from_env`] reads the
//! `PDFWS_THREADS` environment variable, as does the default of
//! `StreamExperiment`, whose `threads(n)` overrides it.

pub mod experiment;
pub mod spec;
pub mod stream_experiment;
pub mod sweep;

pub use experiment::{ExperimentError, ExperimentReport, RunRecord};
pub use spec::WorkloadInstance;
pub use stream_experiment::{StreamExperiment, StreamReport};
pub use sweep::{
    parse_threads, threads_from_env, SweepGrid, SweepProfile, SweepReport, SweepRunner, THREADS_ENV,
};

/// The types almost every experiment needs.
pub mod prelude {
    pub use crate::experiment::{ExperimentError, ExperimentReport, RunRecord};
    pub use crate::spec::WorkloadInstance;
    pub use crate::stream_experiment::{StreamExperiment, StreamReport};
    pub use crate::sweep::{SweepGrid, SweepProfile, SweepReport, SweepRunner};
    pub use pdfws_cmp_model::{default_config, default_core_counts, CmpConfig, ProcessNode};
    pub use pdfws_memsys::{
        MemSysSpec, ModelFactory, Registry as MemSysRegistry, SpecError as MemSysSpecError,
    };
    pub use pdfws_schedulers::{
        Disturbance, ParamKind, ParamSpec, PolicyFactory, Registry, SchedulerPolicy, SchedulerSpec,
        SimOptions, SimResult, SpecError,
    };
    pub use pdfws_spec::{Spec, SpecErrorKind, SpecFamily};
    pub use pdfws_stream::{ArrivalSpec, JobMix, StreamOutcome, StreamSummary};
    pub use pdfws_workloads::{
        ComputeKernel, HashJoin, LuDecomposition, MatMul, MergeSort, ParallelScan, QuickSort, SpMv,
        SyntheticTree, Workload, WorkloadClass, WorkloadFactory, WorkloadRegistry, WorkloadSpec,
        WorkloadSpecError,
    };
}
