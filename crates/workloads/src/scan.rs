//! Parallel scan (prefix sum) / map — the low-data-reuse workload class.
//!
//! A classic two-phase parallel prefix sum: an up-sweep reduces chunks to partial
//! sums, a down-sweep applies offsets and writes the output.  Every input element
//! is touched a constant (small) number of times and there is essentially no
//! reuse a scheduler could exploit, so PDF and WS should perform the same here —
//! which is exactly the point of including it (paper finding: "either because
//! there is only limited data reuse that can be exploited ...").

use crate::layout::AddressSpace;
use crate::{Workload, WorkloadClass};
use pdfws_task_dag::builder::DagBuilder;
use pdfws_task_dag::{AccessPattern, TaskDag};

/// Element size in bytes.
pub const ELEM_BYTES: u64 = 8;

/// Two-phase parallel prefix sum over `n` elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelScan {
    /// Number of elements.
    pub n: u64,
    /// Elements per task.
    pub grain: u64,
    /// Compute instructions per element per phase.
    pub instr_per_elem: u64,
}

impl ParallelScan {
    /// A small instance for tests.
    pub fn small() -> Self {
        ParallelScan {
            n: 1024,
            grain: 128,
            instr_per_elem: 2,
        }
    }

    /// Tasks [`Workload::build_dag`] creates, in closed form: start,
    /// combine, done, and an up-sweep and a down-sweep task per chunk.
    pub fn task_count(&self) -> u64 {
        self.n
            .div_ceil(self.grain)
            .saturating_mul(2)
            .saturating_add(3)
    }
}

impl Workload for ParallelScan {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::LowReuse
    }

    fn build_dag(&self) -> TaskDag {
        assert!(self.n >= 1 && self.grain >= 1);
        let mut space = AddressSpace::new();
        let input = space.alloc(self.n * ELEM_BYTES);
        let output = space.alloc(self.n * ELEM_BYTES);
        let chunks = self.n.div_ceil(self.grain);
        let partials = space.alloc(chunks * ELEM_BYTES);

        let mut b = DagBuilder::new();
        let root = b.task("scan-start").instructions(20).build();

        // Up-sweep: each task reduces its chunk to one partial sum.
        let mut upsweep_tasks = Vec::new();
        for c in 0..chunks {
            let first = c * self.grain;
            let count = self.grain.min(self.n - first);
            let t = b
                .task(format_args!("upsweep[{c}]"))
                .instructions(count * self.instr_per_elem)
                .access(AccessPattern::range_read(
                    input.element(first, ELEM_BYTES),
                    count * ELEM_BYTES,
                ))
                .access(AccessPattern::range_write(
                    partials.element(c, ELEM_BYTES),
                    ELEM_BYTES,
                ))
                .build();
            b.edge(root, t);
            upsweep_tasks.push(t);
        }

        // Sequential combine of the partial sums (tiny).
        let combine = b
            .task("combine-partials")
            .instructions(chunks * 4)
            .access(AccessPattern::range_read(partials.base, partials.len))
            .access(AccessPattern::range_write(partials.base, partials.len))
            .build();
        for &t in &upsweep_tasks {
            b.edge(t, combine);
        }

        // Down-sweep: each task re-reads its chunk, adds its offset, writes output.
        let done = b.task("scan-done").instructions(20).build();
        for c in 0..chunks {
            let first = c * self.grain;
            let count = self.grain.min(self.n - first);
            let t = b
                .task(format_args!("downsweep[{c}]"))
                .instructions(count * self.instr_per_elem)
                .access(AccessPattern::range_read(
                    partials.element(c, ELEM_BYTES),
                    ELEM_BYTES,
                ))
                .access(AccessPattern::range_read(
                    input.element(first, ELEM_BYTES),
                    count * ELEM_BYTES,
                ))
                .access(AccessPattern::range_write(
                    output.element(first, ELEM_BYTES),
                    count * ELEM_BYTES,
                ))
                .build();
            b.edge(combine, t);
            b.edge(t, done);
        }
        b.finish().expect("scan DAG is valid by construction")
    }

    fn data_bytes(&self) -> u64 {
        2 * self.n * ELEM_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_is_upsweep_combine_downsweep() {
        let dag = ParallelScan::small().build_dag(); // 1024/128 = 8 chunks
        let ups = dag
            .nodes()
            .filter(|n| n.label.starts_with("upsweep"))
            .count();
        let downs = dag
            .nodes()
            .filter(|n| n.label.starts_with("downsweep"))
            .count();
        assert_eq!(ups, 8);
        assert_eq!(downs, 8);
        assert_eq!(dag.len(), 8 + 8 + 3);
        let order = dag.one_df_order();
        let pos = |l: &str| order.iter().position(|&t| dag.node(t).label == l).unwrap();
        assert!(pos("upsweep[7]") < pos("combine-partials"));
        assert!(pos("combine-partials") < pos("downsweep[0]"));
    }

    #[test]
    fn each_element_is_touched_a_constant_number_of_times() {
        let small = ParallelScan::small().build_dag();
        let accesses = small.analyze().memory_accesses;
        // 2 reads + 1 write of the main arrays (per 64-byte step) plus small extras.
        let steps = 1024 * ELEM_BYTES / 64;
        assert!(
            accesses >= 3 * steps && accesses < 4 * steps + 64,
            "accesses = {accesses}"
        );
    }

    #[test]
    fn parallelism_is_bounded_by_chunk_count() {
        let dag = ParallelScan::small().build_dag();
        let a = dag.analyze();
        assert!(a.parallelism <= 8.5);
        assert!(a.parallelism > 2.0);
    }
}
