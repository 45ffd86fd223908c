//! A tunable synthetic fork-join tree, used by ablation benches and tests.
//!
//! Every knob the real workloads differ in is exposed directly: tree depth and
//! fan-out, per-leaf compute, per-leaf private footprint, and the fraction of each
//! leaf's references that go to a single shared region.  Sweeping
//! `shared_fraction` from 0 to 1 moves the workload from "perfectly disjoint
//! working sets" (where the scheduler cannot matter) to "fully shared working set"
//! (where constructive sharing is everything), which is the cleanest way to
//! demonstrate the mechanism behind the paper's findings.

use crate::layout::AddressSpace;
use crate::{reserved_builder, Workload, WorkloadClass};
use pdfws_task_dag::builder::DagBuilder;
use pdfws_task_dag::{AccessPattern, TaskDag, TaskId};

/// A parameterised fork-join tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTree {
    /// Tree depth (0 = a single leaf).
    pub depth: u32,
    /// Children per internal node.
    pub fanout: u32,
    /// Compute instructions per leaf.
    pub leaf_instructions: u64,
    /// Bytes of leaf-private data each leaf streams through.
    pub leaf_private_bytes: u64,
    /// Bytes of the single region shared by all leaves.
    pub shared_bytes: u64,
    /// Fraction (0..=1) of each leaf's references that target the shared region.
    pub shared_fraction: f64,
    /// Number of passes each leaf makes over the data it touches (reuse factor).
    pub passes: u32,
}

impl SyntheticTree {
    /// A small instance for tests.
    pub fn small() -> Self {
        SyntheticTree {
            depth: 3,
            fanout: 2,
            leaf_instructions: 500,
            leaf_private_bytes: 4096,
            shared_bytes: 16 * 1024,
            shared_fraction: 0.5,
            passes: 2,
        }
    }

    /// Number of leaves the tree will have.
    pub fn leaves(&self) -> u64 {
        (self.fanout as u64).pow(self.depth)
    }

    fn build_node(
        &self,
        b: &mut DagBuilder,
        space: &mut AddressSpace,
        shared_base: u64,
        depth: u32,
        path: u64,
    ) -> (TaskId, TaskId) {
        if depth == 0 {
            let private = space.alloc(self.leaf_private_bytes.max(64));
            let (shared_len, private_len) = self.leaf_lens();
            let mut leaf = b
                .task(format_args!("syn-leaf[{path}]"))
                .instructions(self.leaf_instructions);
            if shared_len >= 64 {
                leaf = leaf.access(AccessPattern::RepeatedRange {
                    base: shared_base,
                    len: shared_len,
                    passes: self.passes,
                    write: false,
                });
            }
            if private_len >= 64 {
                leaf = leaf
                    .access(AccessPattern::RepeatedRange {
                        base: private.base,
                        len: private_len,
                        passes: self.passes,
                        write: false,
                    })
                    .access(AccessPattern::range_write(private.base, private_len));
            }
            let leaf = leaf.build();
            return (leaf, leaf);
        }
        let fork = b
            .task(format_args!("syn-fork[{depth},{path}]"))
            .instructions(20)
            .build();
        let join = b
            .task(format_args!("syn-join[{depth},{path}]"))
            .instructions(20)
            .build();
        for c in 0..self.fanout {
            let (entry, exit) = self.build_node(
                b,
                space,
                shared_base,
                depth - 1,
                path * self.fanout as u64 + c as u64,
            );
            b.edge(fork, entry);
            b.edge(exit, join);
        }
        (fork, join)
    }

    /// Bytes of the shared and of the private region each leaf reads; a
    /// region under one line is not touched.
    fn leaf_lens(&self) -> (u64, u64) {
        let shared_len = (self.shared_bytes as f64 * self.shared_fraction) as u64;
        let private_len = (self.leaf_private_bytes as f64 * (1.0 - self.shared_fraction)) as u64;
        (shared_len, private_len)
    }

    /// Leaves and internal nodes of the tree (saturating).
    fn shape(&self) -> (u64, u64) {
        if self.fanout <= 1 {
            return (1, self.depth as u64);
        }
        let (mut level, mut internal) = (1u64, 0u64);
        for _ in 0..self.depth {
            if level == u64::MAX {
                break;
            }
            internal = internal.saturating_add(level);
            level = level.saturating_mul(self.fanout as u64);
        }
        (level, internal)
    }

    /// Tasks [`Workload::build_dag`] creates, in closed form: `fanout^depth`
    /// leaves plus a fork and a join per internal node (saturating).
    pub fn task_count(&self) -> u64 {
        let (leaves, internal) = self.shape();
        leaves.saturating_add(internal.saturating_mul(2))
    }

    /// Tasks, edges and access patterns [`Workload::build_dag`] creates
    /// (saturating): every node but the root hangs off its parent's fork and
    /// join by two edges, and each leaf reads the regions of at least a line,
    /// writing back its private one.
    fn dag_counts(&self) -> (u64, u64, u64) {
        let (leaves, internal) = self.shape();
        let (shared_len, private_len) = self.leaf_lens();
        let per_leaf = (shared_len >= 64) as u64 + 2 * (private_len >= 64) as u64;
        (
            self.task_count(),
            leaves
                .saturating_add(internal)
                .saturating_sub(1)
                .saturating_mul(2),
            leaves.saturating_mul(per_leaf),
        )
    }
}

impl Workload for SyntheticTree {
    fn name(&self) -> &'static str {
        "synthetic"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::DivideAndConquer
    }

    fn build_dag(&self) -> TaskDag {
        assert!(self.fanout >= 1, "fanout must be at least 1");
        assert!(
            (0.0..=1.0).contains(&self.shared_fraction),
            "shared_fraction must be within [0, 1]"
        );
        let mut space = AddressSpace::new();
        let shared = space.alloc(self.shared_bytes.max(64));
        let (tasks, edges, patterns) = self.dag_counts();
        let mut b = reserved_builder(tasks, edges, patterns);
        let _ = self.build_node(&mut b, &mut space, shared.base, self.depth, 0);
        b.finish()
            .expect("synthetic tree DAG is valid by construction")
    }

    fn data_bytes(&self) -> u64 {
        self.shared_bytes + self.leaves() * self.leaf_private_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_count_matches_depth_and_fanout() {
        let t = SyntheticTree::small();
        assert_eq!(t.leaves(), 8);
        let dag = t.build_dag();
        let leaves = dag
            .nodes()
            .filter(|n| n.label.starts_with("syn-leaf"))
            .count();
        assert_eq!(leaves, 8);
        assert!(dag.is_valid_schedule_order(&dag.one_df_order()));
    }

    #[test]
    fn fully_shared_leaves_touch_only_the_shared_region() {
        let mut t = SyntheticTree::small();
        t.shared_fraction = 1.0;
        let dag = t.build_dag();
        for n in dag.nodes() {
            if n.label.starts_with("syn-leaf") {
                assert_eq!(n.accesses.len(), 1);
            }
        }
    }

    #[test]
    fn fully_private_leaves_do_not_touch_the_shared_region() {
        let mut t = SyntheticTree::small();
        t.shared_fraction = 0.0;
        let dag = t.build_dag();
        for n in dag.nodes() {
            if n.label.starts_with("syn-leaf") {
                // read + write of the private region only.
                assert_eq!(n.accesses.len(), 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shared_fraction")]
    fn out_of_range_shared_fraction_is_rejected() {
        let mut t = SyntheticTree::small();
        t.shared_fraction = 1.5;
        let _ = t.build_dag();
    }

    #[test]
    fn flat_dag_heap_stays_small_per_task() {
        // The zoo's nested parallel-for one level shallower: 4,226 tasks,
        // one pattern per leaf.  Flat storage holds 84 bytes a task; the
        // per-task objects it replaced held over 300.
        let t = SyntheticTree {
            depth: 2,
            fanout: 64,
            leaf_instructions: 200,
            leaf_private_bytes: 64,
            shared_bytes: 4096,
            shared_fraction: 0.25,
            passes: 1,
        };
        let dag = t.build_dag();
        assert_eq!(dag.len() as u64, t.task_count());
        let per_task = dag.heap_bytes() / dag.len();
        assert!(per_task <= 96, "{per_task} heap bytes per task");
    }

    #[test]
    fn closed_form_counts_match_the_built_dag() {
        let zoo = SyntheticTree {
            depth: 2,
            fanout: 24,
            leaf_instructions: 200,
            leaf_private_bytes: 64,
            shared_bytes: 4096,
            shared_fraction: 0.25,
            passes: 1,
        };
        let chain = SyntheticTree {
            fanout: 1,
            ..SyntheticTree::small()
        };
        let private = SyntheticTree {
            shared_fraction: 0.0,
            ..SyntheticTree::small()
        };
        for t in [SyntheticTree::small(), zoo, chain, private] {
            let dag = t.build_dag();
            let patterns: usize = dag.nodes().map(|n| n.accesses.len()).sum();
            let built = (dag.len() as u64, dag.edge_count() as u64, patterns as u64);
            assert_eq!(t.dag_counts(), built, "{t:?}");
        }
    }

    #[test]
    fn wide_flat_trees_are_supported() {
        let t = SyntheticTree {
            depth: 1,
            fanout: 16,
            ..SyntheticTree::small()
        };
        let dag = t.build_dag();
        assert_eq!(dag.successors(dag.root()).len(), 16);
    }
}
