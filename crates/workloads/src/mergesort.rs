//! Parallel merge sort — the Figure 1 workload.
//!
//! The recursion sorts a flat array of fixed-size keys with two ping-pong buffers:
//! leaves sort their sub-range in place in buffer A; each merge level then reads
//! the two child outputs from one buffer and writes the merged range into the
//! other.  The task carrying a merge depends on the exit tasks of both child
//! subtrees, so the DAG is the natural fork-join recursion tree.
//!
//! What makes this workload sensitive to the scheduler is the producer–consumer
//! reuse between a merge and its children: under PDF, co-scheduled tasks are
//! adjacent in the sequential order, so a merge usually runs while its children's
//! output is still in the shared L2; under WS, the cores spread across distant
//! subtrees and keep evicting each other's soon-to-be-reused data once the
//! aggregate footprint exceeds the L2.
//!
//! The coarse-grained variant (`coarse_chunks`, spec parameter `coarse`)
//! models the SMP-style version of the same program: only `chunks` top-level
//! tasks, each sorting `n / chunks` keys sequentially, followed by a single
//! sequential merge chain — the fine-grained structure (and with it the
//! constructive-sharing opportunity) is gone.

use crate::layout::{AddressSpace, Region};
use crate::{reserved_builder, Workload, WorkloadClass};
use pdfws_task_dag::builder::DagBuilder;
use pdfws_task_dag::{AccessPattern, TaskDag, TaskId};

/// Parallel merge sort over `n_keys` keys of `KEY_BYTES` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSort {
    /// Number of keys to sort.
    pub n_keys: u64,
    /// Sub-ranges of at most this many keys are sorted by a single leaf task.
    pub grain_keys: u64,
    /// Compute instructions charged per key in a leaf (base-case sort).
    pub leaf_instr_per_key: u64,
    /// Compute instructions charged per key in a merge.
    pub merge_instr_per_key: u64,
    /// If `Some(chunks)`, build the coarse-grained SMP-style variant instead.
    pub coarse_chunks: Option<u64>,
}

/// Size of one key in bytes (a 64-bit key or a key/pointer pair half).
pub const KEY_BYTES: u64 = 8;

impl MergeSort {
    /// A small instance for unit tests (256 keys, 32-key leaves).
    pub fn small() -> Self {
        MergeSort {
            n_keys: 256,
            grain_keys: 32,
            leaf_instr_per_key: 12,
            merge_instr_per_key: 4,
            coarse_chunks: None,
        }
    }

    fn layout(&self) -> (Region, Region) {
        let mut space = AddressSpace::new();
        let bytes = self.n_keys * KEY_BYTES;
        let a = space.alloc(bytes);
        let b = space.alloc(bytes);
        (a, b)
    }

    /// Recursive fine-grained build.  Returns `(entry, exit, depth)` where `depth`
    /// is the number of merge levels in the subtree (0 for a leaf), which
    /// determines which buffer holds the subtree's output: even depth ⇒ buffer A,
    /// odd depth ⇒ buffer B.
    fn build_range(
        &self,
        b: &mut DagBuilder,
        buf_a: &Region,
        buf_b: &Region,
        start: u64,
        len: u64,
    ) -> (TaskId, TaskId, u64) {
        if len <= self.grain_keys {
            // Base case: read and write the range in buffer A (in-place sort).
            let region = buf_a.slice(start, len, KEY_BYTES);
            let leaf = b
                .task(format_args!("sort[{start}..{}]", start + len))
                .instructions(len * self.leaf_instr_per_key)
                .access(AccessPattern::range_read(region.base, region.len))
                .access(AccessPattern::range_write(region.base, region.len))
                .build();
            return (leaf, leaf, 0);
        }

        let half = len / 2;
        let fork = b
            .task(format_args!("fork[{start}..{}]", start + len))
            .instructions(30)
            .build();
        let (le, lx, ld) = self.build_range(b, buf_a, buf_b, start, half);
        let (re, rx, rd) = self.build_range(b, buf_a, buf_b, start + half, len - half);

        // Each child's output lives in A for even depth, B for odd depth; the merge
        // reads each child from wherever it wrote and writes the buffer opposite to
        // this node's own depth parity (unbalanced splits may read both buffers).
        let depth = ld.max(rd);
        let buffer_for = |d: u64| if d.is_multiple_of(2) { buf_a } else { buf_b };
        let left_region = buffer_for(ld).slice(start, half, KEY_BYTES);
        let right_region = buffer_for(rd).slice(start + half, len - half, KEY_BYTES);
        let dst = if depth % 2 == 0 { buf_b } else { buf_a };
        let out_region = dst.slice(start, len, KEY_BYTES);
        let merge = b
            .task(format_args!("merge[{start}..{}]", start + len))
            .instructions(len * self.merge_instr_per_key)
            .access(AccessPattern::range_read(left_region.base, left_region.len))
            .access(AccessPattern::range_read(
                right_region.base,
                right_region.len,
            ))
            .access(AccessPattern::range_write(out_region.base, out_region.len))
            .build();

        b.edge(fork, le);
        b.edge(fork, re);
        b.edge(lx, merge);
        b.edge(rx, merge);
        (fork, merge, depth + 1)
    }

    fn build_coarse(&self, chunks: u64) -> TaskDag {
        let (buf_a, buf_b) = self.layout();
        let mut b = DagBuilder::new();
        let chunk_keys = (self.n_keys / chunks).max(1);
        let fork = b.task("fork-coarse").instructions(100).build();

        // Each chunk is sorted sequentially by one big task (reads and writes its
        // whole range several times, modelling the log(chunk) in-place passes).
        let passes = (chunk_keys.max(2) as f64).log2().ceil() as u32;
        let mut chunk_exits = Vec::new();
        for c in 0..chunks {
            let start = c * chunk_keys;
            let len = if c == chunks - 1 {
                self.n_keys - start
            } else {
                chunk_keys
            };
            if len == 0 {
                continue;
            }
            let region = buf_a.slice(start, len, KEY_BYTES);
            let t = b
                .task(format_args!("coarse-sort[{c}]"))
                .instructions(len * self.leaf_instr_per_key)
                .access(AccessPattern::RepeatedRange {
                    base: region.base,
                    len: region.len,
                    passes,
                    write: false,
                })
                .access(AccessPattern::range_write(region.base, region.len))
                .build();
            b.edge(fork, t);
            chunk_exits.push(t);
        }

        // One final task merges all chunks (sequential multi-way merge).
        let final_merge = b
            .task("coarse-final-merge")
            .instructions(self.n_keys * self.merge_instr_per_key)
            .access(AccessPattern::range_read(buf_a.base, buf_a.len))
            .access(AccessPattern::range_write(buf_b.base, buf_b.len))
            .build();
        for t in chunk_exits {
            b.edge(t, final_merge);
        }
        b.finish()
            .expect("coarse merge sort DAG is valid by construction")
    }

    /// Tasks [`Workload::build_dag`] creates, in closed form (saturating).
    ///
    /// Fine-grained: `L` leaves (counted by the private `leaves`) come with
    /// `L - 1` forks and as many merges.  Coarse: the fork, at most one task
    /// per chunk, and the final merge.
    pub fn task_count(&self) -> u64 {
        if let Some(chunks) = self.coarse_chunks {
            return chunks.saturating_add(2);
        }
        u64::try_from(3 * self.leaves() - 2).unwrap_or(u64::MAX)
    }

    /// Leaf tasks of the fine-grained recursion.  Halving `n` keys until a
    /// range fits `grain` leaves ranges of only two lengths per depth, `k`
    /// and `k + 1`, so counting how many of each takes one step per depth.
    fn leaves(&self) -> u128 {
        // `short` ranges of `k` keys and `long` ranges of `k + 1` keys.
        let (mut k, mut short, mut long) = (self.n_keys, 1u128, 0u128);
        let mut leaves = 0u128;
        loop {
            if k < self.grain_keys {
                leaves += short + long;
                break;
            }
            if k == self.grain_keys {
                leaves += short;
                short = 0;
            }
            // Halves: k even -> k/2, k/2 and k/2, k/2 + 1; k odd ->
            // (k-1)/2, (k+1)/2 and (k+1)/2, (k+1)/2.
            (short, long) = if k % 2 == 0 {
                (2 * short + long, long)
            } else {
                (short, short + 2 * long)
            };
            k /= 2;
        }
        leaves
    }

    /// Tasks, edges and access patterns of the fine-grained DAG (saturating):
    /// each of the `L - 1` internal nodes adds a fork with two out-edges and a
    /// merge with two in-edges and three patterns; each leaf has two patterns.
    fn dag_counts(&self) -> (u64, u64, u64) {
        let leaves = self.leaves();
        let count = |n: u128| u64::try_from(n).unwrap_or(u64::MAX);
        (
            count(3 * leaves - 2),
            count(4 * (leaves - 1)),
            count(5 * leaves - 3),
        )
    }
}

impl Workload for MergeSort {
    fn name(&self) -> &'static str {
        if self.coarse_chunks.is_some() {
            "mergesort-coarse"
        } else {
            "mergesort"
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
        assert!(self.n_keys >= 2, "need at least two keys to sort");
        assert!(self.grain_keys >= 1, "grain must be at least one key");
        if let Some(chunks) = self.coarse_chunks {
            return self.build_coarse(chunks);
        }
        let (buf_a, buf_b) = self.layout();
        let (tasks, edges, patterns) = self.dag_counts();
        let mut b = reserved_builder(tasks, edges, patterns);
        let _ = self.build_range(&mut b, &buf_a, &buf_b, 0, self.n_keys);
        b.finish().expect("merge sort DAG is valid by construction")
    }

    fn data_bytes(&self) -> u64 {
        2 * self.n_keys * KEY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_grained_dag_shape() {
        let ms = MergeSort::small(); // 256 keys, 32-key leaves -> 8 leaves
        let dag = ms.build_dag();
        let leaves = dag.nodes().filter(|n| n.label.starts_with("sort[")).count();
        let merges = dag
            .nodes()
            .filter(|n| n.label.starts_with("merge["))
            .count();
        let forks = dag.nodes().filter(|n| n.label.starts_with("fork[")).count();
        assert_eq!(leaves, 8);
        assert_eq!(merges, 7);
        assert_eq!(forks, 7);
        assert_eq!(dag.len(), 22);
        assert!(dag.is_valid_schedule_order(&dag.one_df_order()));
    }

    #[test]
    fn closed_form_counts_match_the_built_dag() {
        for ms in [
            MergeSort::small(),
            MergeSort {
                n_keys: 1000,
                grain_keys: 7,
                ..MergeSort::small()
            },
            MergeSort {
                n_keys: 16,
                grain_keys: 1,
                ..MergeSort::small()
            },
            MergeSort {
                n_keys: 5,
                grain_keys: 8,
                ..MergeSort::small()
            },
        ] {
            let dag = ms.build_dag();
            let patterns: usize = dag.nodes().map(|n| n.accesses.len()).sum();
            let built = (dag.len() as u64, dag.edge_count() as u64, patterns as u64);
            assert_eq!(ms.dag_counts(), built, "{ms:?}");
        }
    }

    #[test]
    fn top_merge_touches_the_whole_array() {
        let ms = MergeSort::small();
        let dag = ms.build_dag();
        let top = dag
            .nodes()
            .find(|n| n.label == "merge[0..256]")
            .expect("top merge exists");
        // Reads both halves (256 keys total) and writes 256 keys.
        assert_eq!(top.footprint_bytes(), 2 * 256 * KEY_BYTES);
    }

    #[test]
    fn merge_reads_the_buffer_its_children_wrote() {
        let ms = MergeSort::small();
        let (buf_a, buf_b) = ms.layout();
        let dag = ms.build_dag();
        // Leaves (depth 0) write buffer A; first-level merges read A and write B;
        // second-level merges read B and write A.
        let first_level = dag.nodes().find(|n| n.label == "merge[0..64]").unwrap();
        let reads_a = first_level.accesses.iter().any(|p| match p {
            AccessPattern::Range { base, write, .. } => {
                !write && *base >= buf_a.base && *base < buf_a.end()
            }
            _ => false,
        });
        let writes_b = first_level.accesses.iter().any(|p| match p {
            AccessPattern::Range { base, write, .. } => {
                *write && *base >= buf_b.base && *base < buf_b.end()
            }
            _ => false,
        });
        assert!(reads_a && writes_b);

        let second_level = dag.nodes().find(|n| n.label == "merge[0..128]").unwrap();
        let reads_b = second_level.accesses.iter().any(|p| match p {
            AccessPattern::Range { base, write, .. } => {
                !write && *base >= buf_b.base && *base < buf_b.end()
            }
            _ => false,
        });
        assert!(reads_b);
    }

    #[test]
    fn work_scales_roughly_n_log_n() {
        let work = |n_keys| {
            MergeSort {
                n_keys,
                grain_keys: 64,
                ..MergeSort::small()
            }
            .build_dag()
            .work()
        };
        let (small, large) = (work(1 << 12), work(1 << 14));
        // 4x the keys, ~4.7x the work (n log n): definitely more than 4x, less than 6x.
        assert!(large > 4 * small);
        assert!(large < 6 * small);
    }

    #[test]
    fn coarse_variant_has_few_big_tasks() {
        let fine = MergeSort::small();
        let coarse = MergeSort {
            coarse_chunks: Some(4),
            ..MergeSort::small()
        };
        assert_eq!(coarse.name(), "mergesort-coarse");
        assert_eq!(coarse.class(), WorkloadClass::CoarseGrained);
        let dag = coarse.build_dag();
        // fork + 4 chunk sorts + final merge.
        assert_eq!(dag.len(), 6);
        assert!(dag.len() < fine.build_dag().len());
        assert!(dag.is_valid_schedule_order(&dag.one_df_order()));
    }

    #[test]
    fn data_bytes_counts_both_buffers() {
        assert_eq!(
            MergeSort {
                n_keys: 1 << 10,
                ..MergeSort::small()
            }
            .data_bytes(),
            2 * (1 << 10) * 8
        );
    }

    #[test]
    #[should_panic(expected = "at least two keys")]
    fn single_key_is_rejected() {
        let _ = MergeSort {
            n_keys: 1,
            ..MergeSort::small()
        }
        .build_dag();
    }

    #[test]
    fn grain_of_one_is_valid() {
        let dag = MergeSort {
            n_keys: 16,
            grain_keys: 1,
            ..MergeSort::small()
        }
        .build_dag();
        assert!(dag.is_valid_schedule_order(&dag.one_df_order()));
    }
}
