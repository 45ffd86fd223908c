//! The sequential depth-first (1DF) execution order and the PDF priorities
//! derived from it.
//!
//! The Parallel Depth First scheduler gives "higher scheduling priority to those
//! tasks the sequential program would have executed earlier".  The sequential
//! program is the 1-processor depth-first execution of the same DAG: whenever a
//! task completes, execution continues with its *leftmost newly-enabled successor*
//! (the first child spawned); other enabled successors are deferred, most recent
//! first — exactly a stack.  This module computes that order and exposes it as a
//! rank per task.

use crate::graph::TaskDag;
use crate::node::TaskId;

impl TaskDag {
    /// The 1DF (sequential depth-first) execution order of the DAG.
    ///
    /// The returned vector lists every task exactly once, root first, in the order
    /// a single processor would execute them; it is always a valid topological
    /// order.
    pub fn one_df_order(&self) -> Vec<TaskId> {
        let mut remaining_preds = self.in_degrees();
        let mut stack: Vec<TaskId> = vec![self.root()];
        let mut order = Vec::with_capacity(self.len());

        while let Some(task) = stack.pop() {
            order.push(task);
            // Completing `task` may enable some successors.  To make the leftmost
            // (first-listed) enabled successor run next, push enabled successors in
            // reverse listing order so the first one ends up on top of the stack.
            let succs = self.successors(task);
            for &s in succs.iter().rev() {
                remaining_preds[s.index()] -= 1;
                if remaining_preds[s.index()] == 0 {
                    stack.push(s);
                }
            }
        }

        debug_assert_eq!(order.len(), self.len(), "validated DAGs enable every task");
        order
    }

    /// The 1DF rank of every task: `rank[t.index()]` is the position of task `t`
    /// in the 1DF order (0 = executed first sequentially = highest PDF priority).
    pub fn one_df_ranks(&self) -> Vec<u64> {
        let order = self.one_df_order();
        let mut ranks = vec![0u64; self.len()];
        for (pos, t) in order.iter().enumerate() {
            ranks[t.index()] = pos as u64;
        }
        ranks
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{DagBuilder, SpTree};
    use crate::node::TaskId;

    #[test]
    fn diamond_runs_left_branch_first() {
        let mut b = DagBuilder::new();
        let a = b.task("a").build();
        let l = b.task("left").build();
        let r = b.task("right").build();
        let j = b.task("join").build();
        b.edge(a, l);
        b.edge(a, r);
        b.edge(l, j);
        b.edge(r, j);
        let dag = b.finish().unwrap();
        let order = dag.one_df_order();
        assert_eq!(order, vec![a, l, r, j]);
        let ranks = dag.one_df_ranks();
        assert_eq!(ranks[l.index()], 1);
        assert_eq!(ranks[r.index()], 2);
    }

    #[test]
    fn depth_first_descends_before_visiting_siblings() {
        // root forks {A, B}; A itself forks {A1, A2}.  Sequential execution dives
        // into A completely (A, A1, A2, joinA) before touching B.
        let tree = SpTree::Par(vec![
            SpTree::Seq(vec![
                SpTree::leaf("A", 1),
                SpTree::Par(vec![SpTree::leaf("A1", 1), SpTree::leaf("A2", 1)]),
            ]),
            SpTree::leaf("B", 1),
        ]);
        let dag = tree.into_dag().unwrap();
        let order = dag.one_df_order();
        let labels: Vec<&str> = order.iter().map(|&t| dag.node(t).label).collect();
        let pos = |l: &str| labels.iter().position(|&x| x == l).unwrap();
        assert!(pos("A") < pos("B"));
        assert!(pos("A1") < pos("B"));
        assert!(pos("A2") < pos("B"));
        assert!(pos("A1") < pos("A2"));
    }

    #[test]
    fn one_df_order_is_a_valid_topological_order() {
        let tree = SpTree::Seq(vec![
            SpTree::Par(vec![
                SpTree::leaf("a", 1),
                SpTree::Par(vec![SpTree::leaf("b", 1), SpTree::leaf("c", 1)]),
                SpTree::leaf("d", 1),
            ]),
            SpTree::Par(vec![SpTree::leaf("e", 1), SpTree::leaf("f", 1)]),
        ]);
        let dag = tree.into_dag().unwrap();
        let order = dag.one_df_order();
        assert!(dag.is_valid_schedule_order(&order));
    }

    #[test]
    fn ranks_invert_the_order() {
        let tree = SpTree::Par(vec![
            SpTree::leaf("a", 1),
            SpTree::leaf("b", 1),
            SpTree::leaf("c", 1),
        ]);
        let dag = tree.into_dag().unwrap();
        let order = dag.one_df_order();
        let ranks = dag.one_df_ranks();
        for (pos, t) in order.iter().enumerate() {
            assert_eq!(ranks[t.index()], pos as u64);
        }
        // Ranks are a permutation of 0..len.
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..dag.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn single_task_dag() {
        let mut b = DagBuilder::new();
        let only = b.task("only").build();
        let dag = b.finish().unwrap();
        assert_eq!(dag.one_df_order(), vec![only]);
        assert_eq!(dag.one_df_ranks(), vec![0]);
        assert_eq!(only, TaskId(0));
    }
}
