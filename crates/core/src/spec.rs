//! Workload instances: a built task DAG plus the metadata experiments need.
//!
//! A [`WorkloadInstance`] is what a sweep actually runs: the DAG, the
//! reporting metadata, and the canonical [`WorkloadSpec`] string the instance
//! answers to (`"mergesort:grain=2048,n=1048576"`), which reports and tables
//! carry next to the scheduler spec string.
//!
//! Building a DAG can be expensive for large instances, so an instance builds
//! it once — `Workload::build_dag` is called exactly once — and shares it
//! behind an [`Arc`]: every (cores × scheduler) cell of a sweep, on every
//! worker thread, simulates the same immutable DAG without rebuilding or
//! cloning it.  The simulator never mutates the DAG.
//!
//! Instances come from three places:
//!
//! * a **spec string** — `"mergesort:n=4096".parse::<WorkloadInstance>()`,
//!   resolved through the global workload registry (the job-stream and CLI
//!   path);
//! * a **live workload value** — [`Instantiate::into_instance`] /
//!   [`WorkloadInstance::from_workload`], which records the value's own
//!   canonical spec ([`Workload::spec`]);
//! * **raw parts** — [`WorkloadInstance::from_parts`] for hand-built DAGs
//!   that are not in the registry.

use pdfws_task_dag::TaskDag;
use pdfws_workloads::{Workload, WorkloadClass, WorkloadSpec, WorkloadSpecError};
use std::sync::Arc;

/// A workload that has been instantiated: its DAG plus reporting metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadInstance {
    /// Short name ("mergesort", "spmv", ...).
    pub name: String,
    /// The canonical spec describing this instance; its string form is what
    /// reports, sweep tables and job-stream records carry.
    pub spec: WorkloadSpec,
    /// The paper's application class for this program.
    pub class: WorkloadClass,
    /// The fine-grained task DAG, built once and shared by every sweep cell
    /// (cloning a `WorkloadInstance` shares the DAG, it does not copy it).
    pub dag: Arc<TaskDag>,
    /// Approximate input-data footprint in bytes.
    pub data_bytes: u64,
}

impl WorkloadInstance {
    /// Build an instance from any workload generator.  Calls `build_dag`
    /// exactly once; the resulting DAG is shared by reference from then on.
    /// The instance's canonical spec is the workload's own
    /// ([`Workload::spec`]).
    pub fn from_workload(w: &dyn Workload) -> Self {
        WorkloadInstance {
            name: w.name().to_string(),
            spec: w.spec(),
            class: w.class(),
            dag: Arc::new(w.build_dag()),
            data_bytes: w.data_bytes(),
        }
    }

    /// Instantiate a validated [`WorkloadSpec`] through the global workload
    /// registry (`"mergesort:n=4096".parse::<WorkloadSpec>()?` → instance).
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        let w = spec.build();
        WorkloadInstance {
            name: w.name().to_string(),
            spec: spec.clone(),
            class: w.class(),
            dag: Arc::new(w.build_dag()),
            data_bytes: w.data_bytes(),
        }
    }

    /// Construct an instance directly from parts (used by tests and custom
    /// DAGs).  The spec is the bare — unregistered — name.
    pub fn from_parts(
        name: impl Into<String>,
        class: WorkloadClass,
        dag: TaskDag,
        data_bytes: u64,
    ) -> Self {
        let name = name.into();
        WorkloadInstance {
            spec: WorkloadSpec::unregistered(&name),
            name,
            class,
            dag: Arc::new(dag),
            data_bytes,
        }
    }
}

/// Parse a workload spec string and instantiate it in one step (builds the
/// DAG, so parse once and clone the instance — clones share the DAG).
impl std::str::FromStr for WorkloadInstance {
    type Err = WorkloadSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(WorkloadInstance::from_spec(&s.parse::<WorkloadSpec>()?))
    }
}

/// Convenience conversion: `MergeSort::new(n).into_instance()`.
pub trait Instantiate {
    /// Instantiate the workload into a [`WorkloadInstance`] (builds the DAG
    /// once).
    fn into_instance(self) -> WorkloadInstance;
}

impl<W: Workload> Instantiate for W {
    fn into_instance(self) -> WorkloadInstance {
        WorkloadInstance::from_workload(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_workloads::{MergeSort, ParallelScan};

    #[test]
    fn instance_captures_name_class_spec_and_dag() {
        let inst = MergeSort::small().into_instance();
        assert_eq!(inst.name, "mergesort");
        assert_eq!(inst.spec.canonical(), "mergesort");
        assert_eq!(inst.class, WorkloadClass::DivideAndConquer);
        assert!(inst.dag.len() > 1);
        assert!(inst.data_bytes > 0);
        // A parameterized constructor reports its parameters in the spec.
        let inst = MergeSort::new(4096).into_instance();
        assert_eq!(inst.spec.canonical(), "mergesort:grain=2048,n=4096");
    }

    #[test]
    fn from_workload_matches_into_instance() {
        let w = ParallelScan::small();
        let a = WorkloadInstance::from_workload(&w);
        let b = ParallelScan::small().into_instance();
        assert_eq!(a, b);
    }

    #[test]
    fn spec_strings_parse_into_equivalent_instances() {
        let from_str: WorkloadInstance = "mergesort".parse().unwrap();
        let from_ctor = MergeSort::small().into_instance();
        assert_eq!(from_str.name, from_ctor.name);
        assert_eq!(from_str.spec, from_ctor.spec);
        assert_eq!(*from_str.dag, *from_ctor.dag, "DAGs must be bit-identical");
        assert_eq!(from_str.data_bytes, from_ctor.data_bytes);
        assert!("bogosort".parse::<WorkloadInstance>().is_err());
    }

    #[test]
    fn from_parts_builds_custom_instances() {
        let dag = pdfws_task_dag::builder::SpTree::leaf("only", 10)
            .into_dag()
            .unwrap();
        let inst = WorkloadInstance::from_parts("custom", WorkloadClass::ComputeBound, dag, 64);
        assert_eq!(inst.name, "custom");
        assert_eq!(inst.spec.canonical(), "custom");
        assert_eq!(inst.dag.len(), 1);
    }
}
