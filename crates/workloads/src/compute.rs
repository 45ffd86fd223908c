//! A compute-bound kernel (option-pricing / n-body style) — the
//! "not limited by off-chip bandwidth" workload class.
//!
//! Each task reads a small slice of input parameters once and then spends a large
//! number of compute instructions per element (iterative math), so off-chip
//! bandwidth is nowhere near saturated and the choice of scheduler barely affects
//! the running time — though PDF's smaller aggregate working set still yields the
//! power/multiprogramming benefits the paper notes.

use crate::layout::AddressSpace;
use crate::{Workload, WorkloadClass};
use pdfws_task_dag::builder::DagBuilder;
use pdfws_task_dag::{AccessPattern, TaskDag};

/// Element size in bytes.
pub const ELEM_BYTES: u64 = 8;

/// A compute-heavy data-parallel kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeKernel {
    /// Number of independent work items.
    pub items: u64,
    /// Items per task.
    pub grain: u64,
    /// Compute instructions per item (high by construction).
    pub instr_per_item: u64,
}

impl ComputeKernel {
    /// A small instance for tests.
    pub fn small() -> Self {
        ComputeKernel {
            items: 2048,
            grain: 256,
            instr_per_item: 400,
        }
    }

    /// Arithmetic intensity: compute instructions per byte of input touched.
    pub fn instructions_per_byte(&self) -> f64 {
        self.instr_per_item as f64 / ELEM_BYTES as f64
    }

    /// Tasks [`Workload::build_dag`] creates, in closed form: fork, join
    /// and one task per grain chunk.
    pub fn task_count(&self) -> u64 {
        self.items.div_ceil(self.grain).saturating_add(2)
    }
}

impl Workload for ComputeKernel {
    fn name(&self) -> &'static str {
        "compute-kernel"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::ComputeBound
    }

    fn build_dag(&self) -> TaskDag {
        assert!(self.items >= 1 && self.grain >= 1);
        let mut space = AddressSpace::new();
        let input = space.alloc(self.items * ELEM_BYTES);
        let output = space.alloc(self.items * ELEM_BYTES);
        let mut b = DagBuilder::new();
        let fork = b.task("compute-fork").instructions(30).build();
        let join = b.task("compute-join").instructions(30).build();
        let tasks = self.items.div_ceil(self.grain);
        for t in 0..tasks {
            let first = t * self.grain;
            let count = self.grain.min(self.items - first);
            let task = b
                .task(format_args!("compute[{first}..{}]", first + count))
                .instructions(count * self.instr_per_item)
                .access(AccessPattern::range_read(
                    input.element(first, ELEM_BYTES),
                    count * ELEM_BYTES,
                ))
                .access(AccessPattern::range_write(
                    output.element(first, ELEM_BYTES),
                    count * ELEM_BYTES,
                ))
                .build();
            b.edge(fork, task);
            b.edge(task, join);
        }
        b.finish()
            .expect("compute-kernel DAG is valid by construction")
    }

    fn data_bytes(&self) -> u64 {
        2 * self.items * ELEM_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_intensity_is_high() {
        let k = ComputeKernel::small();
        assert!(k.instructions_per_byte() > 10.0);
        let dag = k.build_dag();
        let a = dag.analyze();
        // Compute instructions dwarf memory references.
        assert!(a.work > 20 * a.memory_accesses);
    }

    #[test]
    fn one_task_per_grain_chunk() {
        let dag = ComputeKernel::small().build_dag(); // 2048/256 = 8
        let tasks = dag
            .nodes()
            .filter(|n| n.label.starts_with("compute["))
            .count();
        assert_eq!(tasks, 8);
        assert_eq!(dag.len(), 10);
        assert!(dag.is_valid_schedule_order(&dag.one_df_order()));
    }

    #[test]
    fn parallelism_matches_task_count() {
        let a = ComputeKernel::small().build_dag().analyze();
        assert!(
            a.parallelism > 6.0 && a.parallelism < 9.0,
            "{}",
            a.parallelism
        );
    }
}
