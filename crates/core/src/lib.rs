//! High-level experiment API: configurations × workloads × schedulers → metrics.
//!
//! This is the crate downstream users interact with.  It wires the other crates
//! together behind one builder:
//!
//! ```
//! use pdfws_core::prelude::*;
//!
//! let report = Experiment::new(MergeSort::new(1 << 13).into_instance())
//!     .core_sweep(&[1, 4, 8])
//!     .schedulers(&[SchedulerSpec::pdf(), "ws:steal=half".parse().unwrap()])
//!     .run()
//!     .unwrap();
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
//! Underneath, everything executes through the [`sweep`] module —
//! [`SweepGrid`] describes a (workload × cores × spec)
//! grid and [`SweepRunner`] runs its cells on a worker
//! pool with bit-identical results for every thread count, sharing each
//! workload's DAG by `Arc` across all cells.  Multi-workload sweeps use that
//! API directly; `Experiment::threads(n)` / `StreamExperiment::threads(n)`
//! (or the `PDFWS_THREADS` environment variable) opt the builders into
//! parallel execution.

pub mod experiment;
pub mod spec;
pub mod stream_experiment;
pub mod sweep;

pub use experiment::{Experiment, ExperimentError, ExperimentReport, RunRecord};
pub use spec::{Instantiate, WorkloadInstance};
pub use stream_experiment::{StreamExperiment, StreamReport};
pub use sweep::{
    parse_threads, threads_from_env, SweepGrid, SweepProfile, SweepReport, SweepRunner, THREADS_ENV,
};

/// The types almost every experiment needs.
pub mod prelude {
    pub use crate::experiment::{Experiment, ExperimentError, ExperimentReport, RunRecord};
    pub use crate::spec::{Instantiate, WorkloadInstance};
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
