//! Workload instances: a built task DAG plus the metadata experiments need.
//!
//! A [`WorkloadInstance`] is what a sweep actually runs: the DAG, the
//! reporting metadata, and the canonical [`WorkloadSpec`] string the instance
//! answers to (`"mergesort:grain=2048,n=1048576"`), which reports and tables
//! carry next to the scheduler spec string.
//!
//! Building a DAG can be expensive for large instances, so an instance builds
//! it once — [`Workload::build_dag`](pdfws_workloads::Workload::build_dag)
//! is called exactly once — and shares it behind an [`Arc`]: every
//! (cores × scheduler) cell of a sweep, on every worker thread, simulates the
//! same immutable DAG without rebuilding or cloning it.  The simulator never mutates the DAG.
//!
//! Instances come from two places:
//!
//! * a **spec string** — `"mergesort:n=4096".parse::<WorkloadInstance>()` or
//!   [`WorkloadInstance::from_spec`], resolved through the global workload
//!   registry (every sweep, job stream, bench binary and example);
//! * **raw parts** — [`WorkloadInstance::from_parts`] for hand-built DAGs
//!   that are not in the registry.

use pdfws_task_dag::TaskDag;
use pdfws_workloads::{WorkloadClass, WorkloadSpec, WorkloadSpecError};
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

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_workloads::{MergeSort, Workload};

    #[test]
    fn instance_captures_name_class_spec_and_dag() {
        let inst: WorkloadInstance = "mergesort".parse().unwrap();
        assert_eq!(inst.name, "mergesort");
        assert_eq!(inst.spec.canonical(), "mergesort");
        assert_eq!(inst.class, WorkloadClass::DivideAndConquer);
        assert!(inst.dag.len() > 1);
        assert!(inst.data_bytes > 0);
        // A parameterized spec keeps its parameters, in canonical order.
        let inst: WorkloadInstance = "mergesort:n=4096,grain=2048".parse().unwrap();
        assert_eq!(inst.spec.canonical(), "mergesort:grain=2048,n=4096");
    }

    #[test]
    fn spec_strings_parse_into_equivalent_instances() {
        let from_str: WorkloadInstance = "mergesort".parse().unwrap();
        let from_spec = WorkloadInstance::from_spec(&"mergesort".parse().unwrap());
        assert_eq!(from_str, from_spec);
        // The bare name is the generator's `small()` instance.
        let small = MergeSort::small();
        assert_eq!(
            *from_str.dag,
            small.build_dag(),
            "DAGs must be bit-identical"
        );
        assert_eq!(from_str.data_bytes, small.data_bytes());
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
