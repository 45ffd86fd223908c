//! The unit the stream subsystem schedules: one DAG job with arrival metadata.

use pdfws_task_dag::TaskDag;
use pdfws_workloads::{WorkloadClass, WorkloadSpec};
use std::sync::Arc;

/// One job in the stream: an instantiated task DAG plus the metadata its
/// job record carries.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamJob {
    /// Stream-unique id, in generation order.
    pub id: u64,
    /// Tenant the job belongs to (the index of its entry in the job mix).
    pub tenant: u32,
    /// SLO class label the job was submitted under (`"none"` outside the
    /// serving tier; tenant-declared classes like `"latency"` / `"batch"`
    /// when the stream is driven by `pdfws-serve`).  Carried through to the
    /// job record so JSONL traces can be cut per class.
    pub slo_class: String,
    /// The canonical workload spec this job was instantiated from
    /// (`"spmv:rows=512,seed=…"`) — carried through to the job record, so
    /// any job in a JSONL trace can be rebuilt.
    pub workload: WorkloadSpec,
    /// The paper's application class for this job's program.
    pub class: WorkloadClass,
    /// The job's fine-grained task DAG, shared by reference: cloning a job
    /// (e.g. to replay the same sampled stream under several schedulers)
    /// shares the DAG instead of copying it.
    pub dag: Arc<TaskDag>,
    /// Cycle at which the job enters the system, assigned by the arrival
    /// process before the stream runs.
    pub arrival_cycle: u64,
}
