//! Recursive blocked matrix multiply — divide-and-conquer with heavy data reuse.
//!
//! `C = A × B` over dense `n × n` matrices of 8-byte elements, recursively split
//! into quadrants.  A leaf task multiplies a `grain × grain` block triple: it
//! reads its A-row-block and B-column-block (several passes, modelling the inner
//! loops) and accumulates into its C block.  Different leaf tasks share A and B
//! blocks, so when the scheduler co-schedules tasks that are adjacent in the
//! sequential order the shared blocks stay live in the L2 (constructive sharing);
//! when the cores work on distant parts of C they each pull their own copies of A
//! and B through the cache.
//!
//! The coarse-grained variant (`coarse_chunks`, spec parameter `coarse`)
//! divides C into `chunks` horizontal bands handled by one big task each — the
//! SMP-style program.

use crate::layout::{AddressSpace, Region};
use crate::{Workload, WorkloadClass};
use pdfws_task_dag::builder::DagBuilder;
use pdfws_task_dag::{AccessPattern, TaskDag, TaskId};

/// Matrix element size in bytes.
pub const ELEM_BYTES: u64 = 8;

/// Recursive blocked matrix multiplication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatMul {
    /// Matrix dimension (n × n).
    pub n: u64,
    /// Leaf block dimension.
    pub grain: u64,
    /// Compute instructions per multiply-accumulate.
    pub instr_per_madd: u64,
    /// If `Some(chunks)`, build the coarse-grained variant.
    pub coarse_chunks: Option<u64>,
}

impl MatMul {
    /// A small instance for tests (32×32, 8×8 blocks).
    pub fn small() -> Self {
        MatMul {
            n: 32,
            grain: 8,
            instr_per_madd: 2,
            coarse_chunks: None,
        }
    }

    fn matrix_bytes(&self) -> u64 {
        self.n * self.n * ELEM_BYTES
    }

    /// Address of the (row, col) element of a row-major matrix stored in `m`.
    fn elem(&self, m: &Region, row: u64, col: u64) -> u64 {
        m.element(row * self.n + col, ELEM_BYTES)
    }

    /// Access patterns for reading a `rows × cols` block at (r0, c0): one strided
    /// reference per row start plus a range per row (modelled as one range per row
    /// would explode the pattern count, so we use a strided walk over row starts
    /// and charge the row length via `passes` on a repeated range of the first row
    /// — the footprint and reference counts stay realistic while the pattern stays
    /// compact).
    fn block_read<'a>(
        &'a self,
        m: &'a Region,
        r0: u64,
        c0: u64,
        rows: u64,
        cols: u64,
        passes: u32,
    ) -> impl Iterator<Item = AccessPattern> + 'a {
        (0..rows).map(move |r| AccessPattern::RepeatedRange {
            base: self.elem(m, r0 + r, c0),
            len: cols * ELEM_BYTES,
            passes,
            write: false,
        })
    }

    fn block_write<'a>(
        &'a self,
        m: &'a Region,
        r0: u64,
        c0: u64,
        rows: u64,
        cols: u64,
    ) -> impl Iterator<Item = AccessPattern> + 'a {
        (0..rows)
            .map(move |r| AccessPattern::range_write(self.elem(m, r0 + r, c0), cols * ELEM_BYTES))
    }

    /// Recursive quadrant decomposition of the output region C[r0..r0+size, c0..c0+size].
    /// Each recursion level forks the four quadrants; a leaf performs the full
    /// k-loop for its block (reading a row band of A and a column band of B).
    #[allow(clippy::too_many_arguments)]
    fn build_block(
        &self,
        b: &mut DagBuilder,
        a_m: &Region,
        b_m: &Region,
        c_m: &Region,
        r0: u64,
        c0: u64,
        size: u64,
    ) -> (TaskId, TaskId) {
        if size <= self.grain {
            // Leaf: C[block] += A[row band] * B[col band], full k dimension.
            // Reads: the A row band (rows r0..r0+size, all n columns), the B column
            // band (all n rows, cols c0..c0+size), each reused `size` times in the
            // real loop nest; model one pass over A rows and one strided pass over
            // B per output row block, with reuse expressed as `passes = 2`.
            let instr = size * size * self.n * self.instr_per_madd / 8;
            let leaf = b
                .task(format_args!("mm-leaf[{r0},{c0}]x{size}"))
                .instructions(instr)
                .accesses(self.block_read(a_m, r0, 0, size, self.n, 2))
                // B column band: strided by row length.
                .access(AccessPattern::Strided {
                    base: self.elem(b_m, 0, c0),
                    count: self.n * size.div_ceil(8).max(1),
                    stride: self.n * ELEM_BYTES,
                    write: false,
                })
                .accesses(self.block_write(c_m, r0, c0, size, size))
                .build();
            return (leaf, leaf);
        }

        let fork = b
            .task(format_args!("mm-fork[{r0},{c0}]x{size}"))
            .instructions(30)
            .build();
        let join = b
            .task(format_args!("mm-join[{r0},{c0}]x{size}"))
            .instructions(20)
            .build();
        let half = size / 2;
        for (dr, dc) in [(0, 0), (0, half), (half, 0), (half, half)] {
            let (entry, exit) = self.build_block(b, a_m, b_m, c_m, r0 + dr, c0 + dc, half);
            b.edge(fork, entry);
            b.edge(exit, join);
        }
        (fork, join)
    }

    fn build_coarse(&self, chunks: u64) -> TaskDag {
        let mut space = AddressSpace::new();
        let a_m = space.alloc(self.matrix_bytes());
        let b_m = space.alloc(self.matrix_bytes());
        let c_m = space.alloc(self.matrix_bytes());
        let mut builder = DagBuilder::new();
        let fork = builder.task("mm-coarse-fork").instructions(100).build();
        let join = builder.task("mm-coarse-join").instructions(50).build();
        let rows_per_chunk = (self.n / chunks).max(1);
        for c in 0..chunks {
            let r0 = c * rows_per_chunk;
            if r0 >= self.n {
                break;
            }
            let rows = if c == chunks - 1 {
                self.n - r0
            } else {
                rows_per_chunk
            };
            let instr = rows * self.n * self.n * self.instr_per_madd / 8;
            let t = builder
                .task(format_args!("mm-coarse-band[{c}]"))
                .instructions(instr)
                // The whole band of A, read once per column block of B (reuse).
                .access(AccessPattern::RepeatedRange {
                    base: self.elem(&a_m, r0, 0),
                    len: rows * self.n * ELEM_BYTES,
                    passes: 2,
                    write: false,
                })
                // All of B.
                .access(AccessPattern::range_read(b_m.base, b_m.len))
                .accesses(self.block_write(&c_m, r0, 0, rows, self.n))
                .build();
            builder.edge(fork, t);
            builder.edge(t, join);
        }
        builder
            .finish()
            .expect("coarse matmul DAG is valid by construction")
    }

    /// Tasks [`Workload::build_dag`] creates, in closed form (saturating).
    /// Fine-grained: the quadrant recursion halves `n` `d` times until a
    /// block fits `grain`, giving `4^d` leaves and a fork and a join per
    /// internal node.  Coarse: fork, join and one task per band.
    pub fn task_count(&self) -> u64 {
        if let Some(chunks) = self.coarse_chunks {
            let rows_per_chunk = (self.n / chunks).max(1);
            return chunks
                .min(self.n.div_ceil(rows_per_chunk))
                .saturating_add(2);
        }
        let mut size = self.n;
        let mut leaves = 1u128;
        while size > self.grain {
            size /= 2;
            leaves *= 4;
        }
        u64::try_from(leaves + 2 * (leaves - 1) / 3).unwrap_or(u64::MAX)
    }
}

impl Workload for MatMul {
    fn name(&self) -> &'static str {
        if self.coarse_chunks.is_some() {
            "matmul-coarse"
        } else {
            "matmul"
        }
    }

    fn class(&self) -> WorkloadClass {
        if self.coarse_chunks.is_some() {
            WorkloadClass::CoarseGrained
        } else {
            WorkloadClass::DivideAndConquer
        }
    }

    fn build_dag(&self) -> TaskDag {
        assert!(
            self.n >= 2 && self.n.is_power_of_two(),
            "n must be a power of two >= 2"
        );
        if let Some(chunks) = self.coarse_chunks {
            return self.build_coarse(chunks);
        }
        let mut space = AddressSpace::new();
        let a_m = space.alloc(self.matrix_bytes());
        let b_m = space.alloc(self.matrix_bytes());
        let c_m = space.alloc(self.matrix_bytes());
        let mut b = DagBuilder::new();
        let _ = self.build_block(&mut b, &a_m, &b_m, &c_m, 0, 0, self.n);
        b.finish().expect("matmul DAG is valid by construction")
    }

    fn data_bytes(&self) -> u64 {
        3 * self.matrix_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_count_matches_block_decomposition() {
        let mm = MatMul::small(); // 32x32 with 8x8 leaves -> 16 leaves
        let dag = mm.build_dag();
        let leaves = dag
            .nodes()
            .filter(|n| n.label.starts_with("mm-leaf"))
            .count();
        assert_eq!(leaves, 16);
        assert!(dag.is_valid_schedule_order(&dag.one_df_order()));
    }

    #[test]
    fn different_leaves_share_input_blocks() {
        // Two leaves in the same block-row read overlapping parts of A.
        let mm = MatMul::small();
        let dag = mm.build_dag();
        let leaf_a = dag.nodes().find(|n| n.label == "mm-leaf[0,0]x8").unwrap();
        let leaf_b = dag.nodes().find(|n| n.label == "mm-leaf[0,8]x8").unwrap();
        let reads = |n: pdfws_task_dag::TaskNode| -> Vec<(u64, u64)> {
            n.accesses
                .iter()
                .filter_map(|p| match p {
                    AccessPattern::RepeatedRange {
                        base,
                        len,
                        write: false,
                        ..
                    } => Some((*base, *len)),
                    _ => None,
                })
                .collect()
        };
        let a_reads_a = reads(leaf_a);
        let a_reads_b = reads(leaf_b);
        assert!(!a_reads_a.is_empty());
        // Same A row band -> identical read ranges.
        assert_eq!(a_reads_a, a_reads_b);
    }

    #[test]
    fn work_scales_cubically() {
        let small = MatMul::small().build_dag().work();
        let large = MatMul {
            n: 64,
            ..MatMul::small()
        }
        .build_dag()
        .work();
        let ratio = large as f64 / small as f64;
        assert!(ratio > 6.0 && ratio < 10.0, "ratio = {ratio}");
    }

    #[test]
    fn coarse_variant_has_one_task_per_band() {
        let mm = MatMul {
            coarse_chunks: Some(4),
            ..MatMul::small()
        };
        assert_eq!(mm.name(), "matmul-coarse");
        let dag = mm.build_dag();
        // fork + 4 bands + join.
        assert_eq!(dag.len(), 6);
        assert_eq!(mm.class(), WorkloadClass::CoarseGrained);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_dimension_is_rejected() {
        let _ = MatMul {
            n: 48,
            ..MatMul::small()
        }
        .build_dag();
    }

    #[test]
    fn data_bytes_counts_three_matrices() {
        assert_eq!(
            MatMul {
                n: 64,
                ..MatMul::small()
            }
            .data_bytes(),
            3 * 64 * 64 * 8
        );
    }
}
