//! Blocked LU decomposition (no pivoting) — divide-and-conquer with a dependence
//! structure richer than a plain tree.
//!
//! The matrix is split into `nb × nb` blocks of `block × block` elements.  Each
//! outer iteration `k` factorises the diagonal block, then solves the `k`-th block
//! row and block column against it, then rank-updates the trailing submatrix.
//! Every update task `(i, j)` at step `k` depends on the panel tasks `(i, k)` and
//! `(k, j)`, and the next iteration's tasks depend on the updates — a DAG with
//! decreasing parallelism per step, heavy block reuse and a long critical path.

use crate::layout::{AddressSpace, Region};
use crate::{Workload, WorkloadClass};
use pdfws_task_dag::builder::DagBuilder;
use pdfws_task_dag::{AccessPattern, TaskDag, TaskId};
use std::fmt;

/// Matrix element size in bytes.
pub const ELEM_BYTES: u64 = 8;

/// Blocked LU decomposition of an `n × n` matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LuDecomposition {
    /// Matrix dimension.
    pub n: u64,
    /// Block dimension.
    pub block: u64,
    /// Compute instructions per element per pass.
    pub instr_per_elem: u64,
}

impl LuDecomposition {
    /// A small instance for tests (64×64 with 16×16 blocks).
    pub fn small() -> Self {
        LuDecomposition {
            n: 64,
            block: 16,
            instr_per_elem: 6,
        }
    }

    fn nb(&self) -> u64 {
        self.n / self.block
    }

    /// The region of block (i, j) in a block-major layout (each block contiguous).
    fn block_region(&self, m: &Region, i: u64, j: u64) -> Region {
        let block_bytes = self.block * self.block * ELEM_BYTES;
        let index = i * self.nb() + j;
        Region {
            base: m.base + index * block_bytes,
            len: block_bytes,
        }
    }

    fn block_task(
        &self,
        b: &mut DagBuilder,
        label: fmt::Arguments<'_>,
        reads: &[Region],
        write: Region,
        passes: u32,
    ) -> TaskId {
        let mut builder = b
            .task(label)
            .instructions(self.block * self.block * self.instr_per_elem * passes as u64);
        for r in reads {
            builder = builder.access(AccessPattern::RepeatedRange {
                base: r.base,
                len: r.len,
                passes,
                write: false,
            });
        }
        builder
            .access(AccessPattern::range_write(write.base, write.len))
            .build()
    }

    /// Tasks [`Workload::build_dag`] creates, in closed form: the start task
    /// plus, at step `k` of `nb`, `(nb - k)²` diagonal, panel and update
    /// tasks; `1 + nb(nb + 1)(2nb + 1) / 6` in all (saturating).
    pub fn task_count(&self) -> u64 {
        let nb = self.nb() as u128;
        (nb * (nb + 1))
            .checked_mul(2 * nb + 1)
            .and_then(|sum| u64::try_from(sum / 6 + 1).ok())
            .unwrap_or(u64::MAX)
    }
}

impl Workload for LuDecomposition {
    fn name(&self) -> &'static str {
        "lu"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::DivideAndConquer
    }

    fn build_dag(&self) -> TaskDag {
        assert!(
            self.n.is_multiple_of(self.block) && self.nb() >= 2,
            "n must be a multiple of the block size with at least 2 blocks per side"
        );
        let nb = self.nb();
        let mut space = AddressSpace::new();
        let m = space.alloc(self.n * self.n * ELEM_BYTES);

        let mut b = DagBuilder::new();
        let root = b.task("lu-start").instructions(50).build();

        // owner[i][j] = the task that last wrote block (i, j).
        let mut owner: Vec<Vec<TaskId>> = vec![vec![root; nb as usize]; nb as usize];

        for k in 0..nb {
            // Diagonal factorisation.
            let diag_region = self.block_region(&m, k, k);
            let diag = self.block_task(
                &mut b,
                format_args!("lu-diag[{k}]"),
                &[diag_region],
                diag_region,
                2,
            );
            b.edge(owner[k as usize][k as usize], diag);
            owner[k as usize][k as usize] = diag;

            // Panel row and column solves.
            for x in (k + 1)..nb {
                let row_region = self.block_region(&m, k, x);
                let row = self.block_task(
                    &mut b,
                    format_args!("lu-row[{k},{x}]"),
                    &[diag_region, row_region],
                    row_region,
                    1,
                );
                b.edge(diag, row);
                b.edge(owner[k as usize][x as usize], row);
                owner[k as usize][x as usize] = row;

                let col_region = self.block_region(&m, x, k);
                let col = self.block_task(
                    &mut b,
                    format_args!("lu-col[{x},{k}]"),
                    &[diag_region, col_region],
                    col_region,
                    1,
                );
                b.edge(diag, col);
                b.edge(owner[x as usize][k as usize], col);
                owner[x as usize][k as usize] = col;
            }

            // Trailing-submatrix updates.
            for i in (k + 1)..nb {
                for j in (k + 1)..nb {
                    let a_ik = self.block_region(&m, i, k);
                    let a_kj = self.block_region(&m, k, j);
                    let a_ij = self.block_region(&m, i, j);
                    let update = self.block_task(
                        &mut b,
                        format_args!("lu-update[{k}][{i},{j}]"),
                        &[a_ik, a_kj, a_ij],
                        a_ij,
                        1,
                    );
                    b.edge(owner[i as usize][k as usize], update);
                    b.edge(owner[k as usize][j as usize], update);
                    b.edge(owner[i as usize][j as usize], update);
                    owner[i as usize][j as usize] = update;
                }
            }
        }
        b.finish().expect("LU DAG is valid by construction")
    }

    fn data_bytes(&self) -> u64 {
        self.n * self.n * ELEM_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_count_matches_blocked_lu_formula() {
        let lu = LuDecomposition::small(); // nb = 4
        let dag = lu.build_dag();
        let nb = 4u64;
        // start + per k: 1 diag + 2*(nb-1-k) panels + (nb-1-k)^2 updates.
        let expected: u64 = 1
            + (0..nb)
                .map(|k| {
                    let r = nb - 1 - k;
                    1 + 2 * r + r * r
                })
                .sum::<u64>();
        assert_eq!(dag.len() as u64, expected);
        assert!(dag.is_valid_schedule_order(&dag.one_df_order()));
    }

    #[test]
    fn updates_depend_on_their_panels() {
        let dag = LuDecomposition::small().build_dag();
        let order = dag.one_df_order();
        let pos = |label: &str| {
            order
                .iter()
                .position(|&t| dag.node(t).label == label)
                .unwrap()
        };
        assert!(pos("lu-diag[0]") < pos("lu-row[0,1]"));
        assert!(pos("lu-row[0,2]") < pos("lu-update[0][1,2]"));
        assert!(pos("lu-col[1,0]") < pos("lu-update[0][1,2]"));
        assert!(pos("lu-update[0][1,1]") < pos("lu-diag[1]"));
    }

    #[test]
    fn parallelism_decreases_but_is_nontrivial() {
        let dag = LuDecomposition {
            n: 256,
            block: 64,
            ..LuDecomposition::small()
        }
        .build_dag();
        let a = dag.analyze();
        assert!(a.parallelism > 2.0, "parallelism = {}", a.parallelism);
        // Critical path: start, then (diag, panel, update) per eliminated
        // block column, then the final diagonal factorisation.
        let nb = 256 / 64;
        assert!(
            a.depth_tasks as u64 >= 3 * (nb - 1) + 2,
            "depth = {}",
            a.depth_tasks
        );
    }

    #[test]
    #[should_panic(expected = "multiple of the block")]
    fn misaligned_matrix_is_rejected() {
        let _ = LuDecomposition {
            n: 100,
            block: 64,
            instr_per_elem: 1,
        }
        .build_dag();
    }
}
