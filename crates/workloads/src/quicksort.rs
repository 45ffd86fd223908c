//! Parallel quicksort — a second divide-and-conquer workload.
//!
//! Unlike merge sort the partition step happens *before* the recursive calls, so
//! the producer–consumer reuse runs parent → children, and the recursion is
//! slightly unbalanced (a deterministic 45/55 split models imperfect pivots).
//! The sort is in place: one array, no ping-pong buffer.

use crate::layout::{AddressSpace, Region};
use crate::{Workload, WorkloadClass};
use pdfws_task_dag::builder::DagBuilder;
use pdfws_task_dag::{AccessPattern, TaskDag, TaskId};

/// Element size in bytes.
pub const ELEM_BYTES: u64 = 8;

/// Parallel in-place quicksort over `n_keys` elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuickSort {
    /// Number of elements.
    pub n_keys: u64,
    /// Sub-ranges of at most this many elements are sorted by one leaf task.
    pub grain_keys: u64,
    /// Compute instructions per element in a partition pass.
    pub partition_instr_per_key: u64,
    /// Compute instructions per element in a leaf sort.
    pub leaf_instr_per_key: u64,
}

impl QuickSort {
    /// A small instance for tests.
    pub fn small() -> Self {
        QuickSort {
            n_keys: 300,
            grain_keys: 32,
            partition_instr_per_key: 3,
            leaf_instr_per_key: 14,
        }
    }

    /// Recursive build: partition task, then the two half-sorts in parallel, then a
    /// zero-work join so every subtree has a single exit.
    fn build_range(
        &self,
        b: &mut DagBuilder,
        data: &Region,
        start: u64,
        len: u64,
    ) -> (TaskId, TaskId) {
        let region = data.slice(start, len, ELEM_BYTES);
        if len <= self.grain_keys {
            let leaf = b
                .task(format_args!("qsort-leaf[{start}..{}]", start + len))
                .instructions(len * self.leaf_instr_per_key)
                .access(AccessPattern::range_read(region.base, region.len))
                .access(AccessPattern::range_write(region.base, region.len))
                .build();
            return (leaf, leaf);
        }

        // Partition: one streaming read+write pass over the whole range.
        let partition = b
            .task(format_args!("partition[{start}..{}]", start + len))
            .instructions(len * self.partition_instr_per_key)
            .access(AccessPattern::range_read(region.base, region.len))
            .access(AccessPattern::range_write(region.base, region.len))
            .build();

        // Deterministically imperfect pivot: 45 % / 55 % split.
        let left_len = (len * 45 / 100).clamp(1, len - 1);
        let (le, lx) = self.build_range(b, data, start, left_len);
        let (re, rx) = self.build_range(b, data, start + left_len, len - left_len);
        let join = b
            .task(format_args!("qsort-join[{start}..{}]", start + len))
            .instructions(20)
            .build();
        b.edge(partition, le);
        b.edge(partition, re);
        b.edge(lx, join);
        b.edge(rx, join);
        (partition, join)
    }

    /// An upper bound on the tasks [`Workload::build_dag`] creates, in
    /// closed form.  A partition of `len > grain` keys hands its smaller side
    /// at least `max(1, 45 % of (grain + 1))` keys, so no leaf is shorter;
    /// with `L` leaves there are `L - 1` partitions and as many joins.
    pub fn task_count(&self) -> u64 {
        if self.n_keys <= self.grain_keys {
            return 1;
        }
        let shortest_leaf = ((self.grain_keys as u128 + 1) * 45 / 100).max(1);
        let leaves = self.n_keys as u128 / shortest_leaf;
        u64::try_from(3 * leaves - 2).unwrap_or(u64::MAX)
    }
}

impl Workload for QuickSort {
    fn name(&self) -> &'static str {
        "quicksort"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::DivideAndConquer
    }

    fn build_dag(&self) -> TaskDag {
        assert!(self.n_keys >= 2, "need at least two keys to sort");
        let mut space = AddressSpace::new();
        let data = space.alloc(self.n_keys * ELEM_BYTES);
        let mut b = DagBuilder::new();
        let _ = self.build_range(&mut b, &data, 0, self.n_keys);
        b.finish().expect("quicksort DAG is valid by construction")
    }

    fn data_bytes(&self) -> u64 {
        self.n_keys * ELEM_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_is_valid_and_rooted_at_the_top_partition() {
        let dag = QuickSort::small().build_dag();
        assert!(dag.node(dag.root()).label.starts_with("partition[0..300]"));
        assert!(dag.is_valid_schedule_order(&dag.one_df_order()));
        assert_eq!(dag.sinks().len(), 1);
    }

    #[test]
    fn partition_precedes_the_halves_it_creates() {
        let dag = QuickSort::small().build_dag();
        let order = dag.one_df_order();
        let pos = |label: &str| {
            order
                .iter()
                .position(|&t| dag.node(t).label == label)
                .unwrap_or_else(|| panic!("missing {label}"))
        };
        // 45% of 300 = 135.
        assert!(pos("partition[0..300]") < pos("partition[0..135]"));
        assert!(pos("partition[0..300]") < pos("partition[135..300]"));
    }

    #[test]
    fn leaves_cover_the_whole_array_without_overlap() {
        let qs = QuickSort::small();
        let dag = qs.build_dag();
        let mut covered = 0u64;
        for n in dag.nodes() {
            if n.label.starts_with("qsort-leaf[") {
                covered += n.accesses[0].footprint_bytes() / ELEM_BYTES;
            }
        }
        assert_eq!(covered, qs.n_keys);
    }

    #[test]
    fn unbalanced_split_produces_subtrees_of_different_sizes() {
        let dag = QuickSort {
            n_keys: 4096,
            grain_keys: 64,
            ..QuickSort::small()
        }
        .build_dag();
        let (_, depth) = dag.longest_path(|_| 1);
        // A perfectly balanced tree over 4096/64 = 64 leaves would have depth
        // ~6 partitions + leaf + joins; the 45/55 split makes it deeper.
        assert!(depth > 14, "depth = {depth}");
    }

    #[test]
    fn work_grows_superlinearly() {
        let work = |n_keys| {
            QuickSort {
                n_keys,
                grain_keys: 64,
                ..QuickSort::small()
            }
            .build_dag()
            .work()
        };
        let (a, b) = (work(1 << 12), work(1 << 14));
        assert!(b > 4 * a);
    }
}
