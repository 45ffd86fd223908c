//! Benchmark workloads for the PDF-vs-WS study.
//!
//! The paper evaluates "a variety of benchmark programs" and groups its findings
//! by application class:
//!
//! * **parallel divide-and-conquer** and **bandwidth-limited irregular** programs
//!   benefit substantially from PDF's constructive cache sharing (1.3–1.6×
//!   relative speedup, 13–41 % less off-chip traffic);
//! * programs with **limited data reuse** or that are **not bandwidth-bound** run
//!   about the same under both schedulers;
//! * **coarse-grained (SMP-style)** codes cannot exploit constructive sharing at
//!   all — fine-grained threading is a prerequisite.
//!
//! Each workload in this crate is a generator that lays its data structures out in
//! a flat simulated address space and produces a fine-grained fork-join
//! [`TaskDag`] whose tasks carry realistic memory-access
//! patterns for that program.  The figure-1 workload is [`mergesort::MergeSort`];
//! the other classes are covered by matrix multiply, LU decomposition, quicksort,
//! sparse matrix–vector product, hash join, parallel scan/map and a compute-bound
//! kernel, plus deliberately coarse-grained variants of merge sort and matmul.
//!
//! "Which workload" is an open, string-addressable [`WorkloadSpec`]
//! (`"mergesort:grain=64,n=262144"`), the workload-side twin of
//! `pdfws-schedulers`' `SchedulerSpec`: every generator is registered in the
//! global [`WorkloadRegistry`] with typed parameters whose defaults are its
//! `small()` constructor, and user workloads register through
//! [`WorkloadFactory`] (see `examples/custom_workload.rs`).  A registered
//! workload is built only from its spec; each generator's `small()` and
//! public fields serve its own unit tests.

pub mod compute;
pub mod hashjoin;
pub mod layout;
pub mod lu;
pub mod matmul;
pub mod mergesort;
pub mod quicksort;
pub mod registry;
pub mod scan;
pub mod spec;
pub mod spmv;
pub mod synthetic;

pub use compute::ComputeKernel;
pub use hashjoin::HashJoin;
pub use lu::LuDecomposition;
pub use matmul::MatMul;
pub use mergesort::MergeSort;
pub use quicksort::QuickSort;
pub use registry::{WorkloadDomain, WorkloadFactory, WorkloadRegistry};
pub use scan::ParallelScan;
pub use spec::{WorkloadSpec, WorkloadSpecError};
pub use spmv::SpMv;
pub use synthetic::SyntheticTree;

use pdfws_task_dag::{DagBuilder, TaskDag, MAX_COUNT};
use serde::{Deserialize, Serialize};

/// A builder whose columns hold a DAG of exactly these counts, computed in
/// closed form by the generator, or an unreserved one when a count is past
/// what a DAG can hold (the build then ends in `TooLarge`).
pub(crate) fn reserved_builder(tasks: u64, edges: u64, patterns: u64) -> DagBuilder {
    let fits = |n: u64| n <= MAX_COUNT as u64;
    if fits(tasks) && fits(edges) && fits(patterns) {
        DagBuilder::with_capacity(tasks as usize, edges as usize, patterns as usize)
    } else {
        DagBuilder::new()
    }
}

/// The application classes the paper's findings are organised by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Parallel divide-and-conquer programs (merge sort, matmul, LU, quicksort).
    DivideAndConquer,
    /// Bandwidth-limited irregular programs (sparse mat-vec, hash join).
    BandwidthLimitedIrregular,
    /// Programs with little exploitable data reuse (streaming scan/map).
    LowReuse,
    /// Programs not limited by off-chip bandwidth (compute-bound kernels).
    ComputeBound,
    /// Coarse-grained, SMP-style variants.
    CoarseGrained,
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkloadClass::DivideAndConquer => "divide-and-conquer",
            WorkloadClass::BandwidthLimitedIrregular => "bandwidth-limited irregular",
            WorkloadClass::LowReuse => "low data reuse",
            WorkloadClass::ComputeBound => "compute-bound",
            WorkloadClass::CoarseGrained => "coarse-grained",
        };
        f.write_str(s)
    }
}

/// A benchmark program: something that can lay out its data and produce the task
/// DAG the schedulers will execute.
pub trait Workload {
    /// Short name used in tables ("mergesort", "spmv", ...).
    fn name(&self) -> &'static str;

    /// Which of the paper's application classes the program belongs to.
    fn class(&self) -> WorkloadClass;

    /// Build the fine-grained task DAG (with memory annotations) for this instance.
    fn build_dag(&self) -> TaskDag;

    /// Approximate input-data footprint in bytes (used to size experiments
    /// relative to the L2 capacity).
    fn data_bytes(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_display_names() {
        assert_eq!(
            WorkloadClass::DivideAndConquer.to_string(),
            "divide-and-conquer"
        );
        assert_eq!(
            WorkloadClass::BandwidthLimitedIrregular.to_string(),
            "bandwidth-limited irregular"
        );
        assert_eq!(WorkloadClass::CoarseGrained.to_string(), "coarse-grained");
    }

    /// Every workload must produce a valid DAG whose 1DF order is a topological
    /// order; this is the cross-cutting smoke test for the whole crate.
    #[test]
    fn all_workloads_build_valid_dags() {
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(MergeSort::small()),
            Box::new(MergeSort {
                coarse_chunks: Some(4),
                ..MergeSort::small()
            }),
            Box::new(QuickSort::small()),
            Box::new(MatMul::small()),
            Box::new(MatMul {
                coarse_chunks: Some(4),
                ..MatMul::small()
            }),
            Box::new(LuDecomposition::small()),
            Box::new(SpMv::small()),
            Box::new(HashJoin::small()),
            Box::new(ParallelScan::small()),
            Box::new(ComputeKernel::small()),
            Box::new(SyntheticTree::small()),
        ];
        for w in &workloads {
            let dag = w.build_dag();
            assert!(!dag.is_empty(), "{}", w.name());
            assert!(
                dag.is_valid_schedule_order(&dag.one_df_order()),
                "{}: 1DF order invalid",
                w.name()
            );
            assert!(dag.work() > 0, "{}", w.name());
            assert!(w.data_bytes() > 0, "{}", w.name());
        }
    }
}
