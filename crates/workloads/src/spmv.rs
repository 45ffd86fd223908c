//! Sparse matrix–vector multiplication — the bandwidth-limited irregular workload.
//!
//! `y = A·x` in CSR form, repeated for several iterations (as in an iterative
//! solver).  Each task handles a contiguous block of rows: it streams that block's
//! portion of the CSR value/column arrays (large, no reuse — this is what makes
//! the program bandwidth-bound) and *gathers* entries of the source vector `x` at
//! irregular column positions (this is the shared, reusable data).  When the
//! scheduler co-schedules row blocks that are adjacent in the sequential order,
//! their gathers hit the same region of `x` and the vector stays resident in the
//! L2; scattered co-scheduling keeps re-fetching it.

use crate::layout::AddressSpace;
use crate::{Workload, WorkloadClass};
use pdfws_task_dag::builder::DagBuilder;
use pdfws_task_dag::{AccessPattern, TaskDag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Element size (values and vector entries), in bytes.
pub const ELEM_BYTES: u64 = 8;

/// Iterative sparse matrix–vector product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpMv {
    /// Number of matrix rows (and length of x and y).
    pub rows: u64,
    /// Non-zeros per row.
    pub nnz_per_row: u64,
    /// Rows handled by one task.
    pub rows_per_task: u64,
    /// Number of y = A·x iterations.
    pub iterations: u32,
    /// How clustered the column indices are: a task's gathers fall within a window
    /// of `locality_window` rows around its own rows (smaller = more local).
    pub locality_window: u64,
    /// Seed for the deterministic column-index generator.
    pub seed: u64,
    /// Compute instructions per non-zero.
    pub instr_per_nnz: u64,
}

impl SpMv {
    /// A small instance for tests.
    pub fn small() -> Self {
        SpMv {
            rows: 512,
            nnz_per_row: 8,
            rows_per_task: 64,
            iterations: 2,
            locality_window: 128,
            seed: 0xB10C_5EED,
            instr_per_nnz: 4,
        }
    }

    /// Tasks [`Workload::build_dag`] creates, in closed form: the init task,
    /// then per iteration one join and one task per row block (saturating).
    pub fn task_count(&self) -> u64 {
        let per_iteration = self.rows.div_ceil(self.rows_per_task).saturating_add(1);
        (self.iterations as u64)
            .saturating_mul(per_iteration)
            .saturating_add(1)
    }
}

impl Workload for SpMv {
    fn name(&self) -> &'static str {
        "spmv"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::BandwidthLimitedIrregular
    }

    fn build_dag(&self) -> TaskDag {
        assert!(self.rows >= 1 && self.rows_per_task >= 1);
        let mut space = AddressSpace::new();
        let nnz_total = self.rows * self.nnz_per_row;
        // CSR value + column-index arrays (streamed), x and y vectors.
        let values = space.alloc(nnz_total * ELEM_BYTES);
        let colidx = space.alloc(nnz_total * 4);
        let x = space.alloc(self.rows * ELEM_BYTES);
        let y = space.alloc(self.rows * ELEM_BYTES);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = DagBuilder::new();
        let root = b.task("spmv-init").instructions(100).build();
        let mut prev_join = root;

        let tasks_per_iter = self.rows.div_ceil(self.rows_per_task);
        for iter in 0..self.iterations {
            let join = b
                .task(format_args!("spmv-iter-join[{iter}]"))
                .instructions(50)
                .build();
            for t in 0..tasks_per_iter {
                let row0 = t * self.rows_per_task;
                let rows = self.rows_per_task.min(self.rows - row0);
                let nnz = rows * self.nnz_per_row;
                // Gather addresses into x: irregular but clustered near this task's rows.
                let gathers: Vec<u64> = (0..nnz)
                    .map(|_| {
                        let center = row0 + rows / 2;
                        let half = self.locality_window / 2;
                        let lo = center.saturating_sub(half);
                        let hi = (center + half).min(self.rows - 1);
                        let row = rng.gen_range(lo..=hi);
                        x.element(row, ELEM_BYTES)
                    })
                    .collect();
                let task = b
                    .task(format_args!("spmv[{iter}][{row0}..{}]", row0 + rows))
                    .instructions(nnz * self.instr_per_nnz)
                    .access(AccessPattern::range_read(
                        values.element(row0 * self.nnz_per_row, ELEM_BYTES),
                        nnz * ELEM_BYTES,
                    ))
                    .access(AccessPattern::range_read(
                        colidx.base + row0 * self.nnz_per_row * 4,
                        nnz * 4,
                    ))
                    .access(AccessPattern::explicit_read(gathers))
                    .access(AccessPattern::range_write(
                        y.element(row0, ELEM_BYTES),
                        rows * ELEM_BYTES,
                    ))
                    .build();
                b.edge(prev_join, task);
                b.edge(task, join);
            }
            prev_join = join;
        }
        b.finish().expect("SpMV DAG is valid by construction")
    }

    fn data_bytes(&self) -> u64 {
        let nnz_total = self.rows * self.nnz_per_row;
        nnz_total * ELEM_BYTES + nnz_total * 4 + 2 * self.rows * ELEM_BYTES
    }
}

/// Helper exposing the x-vector footprint (the shared, reusable structure).
impl SpMv {
    /// Bytes of the source vector x.
    pub fn vector_bytes(&self) -> u64 {
        self.rows * ELEM_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_count_matches_iterations_and_blocks() {
        let s = SpMv::small(); // 512 rows / 64 per task = 8 tasks, 2 iterations
        let dag = s.build_dag();
        let work_tasks = dag.nodes().filter(|n| n.label.starts_with("spmv[")).count();
        assert_eq!(work_tasks, 16);
        // init + 2 joins + 16 work tasks
        assert_eq!(dag.len(), 19);
        assert!(dag.is_valid_schedule_order(&dag.one_df_order()));
    }

    #[test]
    fn iterations_are_serialised_through_joins() {
        let dag = SpMv::small().build_dag();
        let order = dag.one_df_order();
        let pos = |label: &str| {
            order
                .iter()
                .position(|&t| dag.node(t).label == label)
                .unwrap()
        };
        assert!(pos("spmv-iter-join[0]") < pos("spmv[1][0..64]"));
    }

    #[test]
    fn gathers_are_deterministic_for_a_seed() {
        let a = SpMv::small().build_dag();
        let b = SpMv::small().build_dag();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_dominate_footprint_but_vector_is_shared() {
        let s = SpMv {
            rows: 1 << 14,
            nnz_per_row: 16,
            rows_per_task: 1024,
            iterations: 4,
            locality_window: 8192,
            ..SpMv::small()
        };
        assert!(s.data_bytes() > 4 * s.vector_bytes());
    }

    #[test]
    fn gather_addresses_stay_inside_the_vector() {
        let s = SpMv::small();
        let dag = s.build_dag();
        // x is the third allocation; reconstruct its bounds by scanning explicit reads.
        for n in dag.nodes() {
            for p in &n.accesses {
                if let AccessPattern::Explicit { addrs, .. } = p {
                    let min = *addrs.iter().min().unwrap();
                    let max = *addrs.iter().max().unwrap();
                    assert!(max - min <= s.rows * ELEM_BYTES);
                }
            }
        }
    }
}
