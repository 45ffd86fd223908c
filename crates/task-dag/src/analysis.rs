//! Work, span and footprint analysis of a task DAG.
//!
//! These quantities frame every scheduling result: the *work* `T₁` bounds the
//! sequential running time, the *span* `T∞` (critical path) bounds how fast any
//! scheduler can finish, and `T₁ / T∞` (the parallelism) tells us how many cores
//! the computation can usefully occupy.  The footprint figures feed the
//! constructive-sharing analysis: the paper's argument is that PDF keeps the
//! *scheduled* working set close to the sequential one, which these helpers
//! measure the DAG-side of.

use crate::graph::TaskDag;
use crate::node::TaskId;
use serde::{Deserialize, Serialize};

/// Summary of a DAG's work/span/footprint structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagAnalysis {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of precedence edges.
    pub edges: usize,
    /// Total instructions across all tasks (T₁).
    pub work: u64,
    /// Critical-path instructions (T∞).
    pub span: u64,
    /// Parallelism (work / span).
    pub parallelism: f64,
    /// Total memory references across all tasks.
    pub memory_accesses: u64,
    /// Sum of per-task footprints, in bytes (an upper bound on the program
    /// footprint that ignores sharing between tasks).
    pub footprint_upper_bound_bytes: u64,
    /// Largest single-task footprint, in bytes.
    pub max_task_footprint_bytes: u64,
    /// Length of the longest chain, in tasks (depth of the DAG).
    pub depth_tasks: usize,
}

impl TaskDag {
    /// Total instructions across all tasks (the work, T₁).
    pub fn work(&self) -> u64 {
        self.nodes().map(|n| n.total_instructions()).sum()
    }

    /// Critical-path length in instructions (the span, T∞).
    pub fn span(&self) -> u64 {
        self.longest_path(|id| self.node(id).total_instructions()).0
    }

    /// Longest path under an arbitrary per-task weight.  Returns the path weight
    /// and the number of tasks on the path.
    pub fn longest_path(&self, weight: impl Fn(TaskId) -> u64) -> (u64, usize) {
        let order = self.topological_order();
        let mut best_weight = vec![0u64; self.len()];
        let mut best_depth = vec![0usize; self.len()];
        let mut overall = (0u64, 0usize);
        for &t in &order {
            let w = best_weight[t.index()] + weight(t);
            let d = best_depth[t.index()] + 1;
            overall = overall.max((w, d));
            for &s in self.successors(t) {
                if w > best_weight[s.index()] {
                    best_weight[s.index()] = w;
                }
                if d > best_depth[s.index()] {
                    best_depth[s.index()] = d;
                }
            }
        }
        overall
    }

    /// Full structural analysis of the DAG.
    pub fn analyze(&self) -> DagAnalysis {
        let work = self.work();
        let span = self.span();
        let (_, depth_tasks) = self.longest_path(|_| 1);
        let memory_accesses = self.nodes().map(|n| n.memory_accesses()).sum();
        let footprint_upper_bound_bytes = self.nodes().map(|n| n.footprint_bytes()).sum();
        let max_task_footprint_bytes = self.nodes().map(|n| n.footprint_bytes()).max().unwrap_or(0);
        DagAnalysis {
            tasks: self.len(),
            edges: self.edge_count(),
            work,
            span,
            parallelism: if span == 0 {
                0.0
            } else {
                work as f64 / span as f64
            },
            memory_accesses,
            footprint_upper_bound_bytes,
            max_task_footprint_bytes,
            depth_tasks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{DagBuilder, SpTree};
    use crate::memref::AccessPattern;

    fn chain(n: usize, instr: u64) -> TaskDag {
        let mut b = DagBuilder::new();
        let mut prev = None;
        for i in 0..n {
            let t = b.task(format_args!("t{i}")).instructions(instr).build();
            if let Some(p) = prev {
                b.edge(p, t);
            }
            prev = Some(t);
        }
        b.finish().unwrap()
    }

    #[test]
    fn chain_has_span_equal_to_work() {
        let dag = chain(10, 100);
        assert_eq!(dag.work(), 1000);
        assert_eq!(dag.span(), 1000);
        let a = dag.analyze();
        assert!((a.parallelism - 1.0).abs() < 1e-12);
        assert_eq!(a.depth_tasks, 10);
    }

    #[test]
    fn wide_fork_has_high_parallelism() {
        let leaves: Vec<SpTree> = (0..64)
            .map(|i| SpTree::leaf(&format!("l{i}"), 1_000))
            .collect();
        let dag = SpTree::Par(leaves).into_dag().unwrap();
        let a = dag.analyze();
        // span = fork + one leaf + join.
        assert_eq!(a.span, 20 + 1_000 + 20);
        assert_eq!(a.work, 64 * 1_000 + 40);
        assert!(a.parallelism > 30.0);
        assert_eq!(a.depth_tasks, 3);
    }

    #[test]
    fn span_never_exceeds_work() {
        let tree = SpTree::Seq(vec![
            SpTree::Par(vec![SpTree::leaf("a", 17), SpTree::leaf("b", 170)]),
            SpTree::Par(vec![
                SpTree::leaf("c", 3),
                SpTree::Seq(vec![SpTree::leaf("d", 55), SpTree::leaf("e", 5)]),
            ]),
        ]);
        let dag = tree.into_dag().unwrap();
        assert!(dag.span() <= dag.work());
        assert!(dag.span() > 0);
    }

    #[test]
    fn footprints_are_aggregated() {
        let mut b = DagBuilder::new();
        let root = b
            .task("root")
            .access(AccessPattern::range_read(0, 1024))
            .build();
        let child = b
            .task("child")
            .access(AccessPattern::range_write(0, 4096))
            .build();
        b.edge(root, child);
        let dag = b.finish().unwrap();
        let a = dag.analyze();
        assert_eq!(a.footprint_upper_bound_bytes, 1024 + 4096);
        assert_eq!(a.max_task_footprint_bytes, 4096);
        assert_eq!(a.memory_accesses, 16 + 64);
        assert_eq!(a.tasks, 2);
        assert_eq!(a.edges, 1);
    }

    #[test]
    fn instruction_work_includes_memory_accesses() {
        let mut b = DagBuilder::new();
        let _t = b
            .task("t")
            .instructions(10)
            .access(AccessPattern::range_read(0, 640))
            .build();
        let dag = b.finish().unwrap();
        assert_eq!(dag.work(), 10 + 10);
    }
}
