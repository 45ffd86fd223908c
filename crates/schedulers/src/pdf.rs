//! The Parallel Depth First (PDF) scheduler.
//!
//! "Processing cores are allocated ready-to-execute program tasks such that higher
//! scheduling priority is given to those tasks the sequential program would have
//! executed earlier."  [Blelloch–Gibbons–Matias, JACM 1999]
//!
//! The sequential program is the 1-processor depth-first execution of the DAG, so
//! a task's priority is its 1DF rank (smaller rank = earlier sequentially = higher
//! priority).  The policy keeps one global priority queue of ready tasks and hands
//! the lowest-rank ready task to whichever core asks.  Co-scheduled tasks are
//! therefore adjacent in the sequential order, which is what keeps the aggregate
//! working set close to the sequential working set [Blelloch–Gibbons, SPAA 2004].

use crate::policy::SchedulerPolicy;
use crate::spec::SchedulerSpec;
use pdfws_task_dag::{TaskDag, TaskId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The PDF policy: a global min-priority queue of ready tasks keyed by 1DF rank.
#[derive(Debug)]
pub struct PdfPolicy {
    name: String,
    /// `ranks[t.index()]` = the task's position in the sequential (1DF) order.
    ranks: Vec<u64>,
    /// Ready tasks, ordered by ascending rank.
    ready: BinaryHeap<Reverse<(u64, TaskId)>>,
}

impl PdfPolicy {
    /// Build the PDF policy, reporting `spec.canonical()` as its name.
    pub fn new(spec: &SchedulerSpec) -> Self {
        PdfPolicy {
            name: spec.canonical(),
            ranks: Vec::new(),
            ready: BinaryHeap::new(),
        }
    }

    /// The 1DF rank of a task (valid after `init`).
    pub fn rank(&self, task: TaskId) -> u64 {
        self.ranks[task.index()]
    }
}

impl SchedulerPolicy for PdfPolicy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn init(&mut self, dag: &TaskDag) {
        self.ranks = dag.one_df_ranks();
        self.ready.clear();
    }

    fn task_ready(&mut self, task: TaskId, _enabling_core: Option<usize>) {
        let rank = self.ranks[task.index()];
        self.ready.push(Reverse((rank, task)));
    }

    fn next_task(&mut self, _core: usize) -> Option<TaskId> {
        self.ready.pop().map(|Reverse((_, task))| task)
    }

    fn ready_count(&self) -> usize {
        self.ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{binary_tree, drain_policy};
    use pdfws_task_dag::builder::DagBuilder;

    fn star_dag(children: usize) -> (pdfws_task_dag::TaskDag, Vec<TaskId>) {
        let mut b = DagBuilder::new();
        let root = b.task("root").build();
        let kids: Vec<_> = (0..children)
            .map(|i| b.task(format_args!("c{i}")).build())
            .collect();
        for &c in &kids {
            b.edge(root, c);
        }
        (b.finish().unwrap(), kids)
    }

    #[test]
    fn ready_tasks_come_out_in_sequential_order() {
        // A root forking four children: the sequential order is left to right, so
        // PDF must hand them out left to right no matter the arrival order.
        let (dag, children) = star_dag(4);
        let mut pdf = PdfPolicy::new(&SchedulerSpec::pdf());
        pdf.init(&dag);
        // Enable in scrambled order.
        pdf.task_ready(children[2], Some(0));
        pdf.task_ready(children[0], Some(0));
        pdf.task_ready(children[3], Some(0));
        pdf.task_ready(children[1], Some(0));
        let order: Vec<_> = (0..4).map(|_| pdf.next_task(0).unwrap()).collect();
        assert_eq!(order, children);
        assert_eq!(pdf.next_task(0), None);
    }

    #[test]
    fn single_core_pdf_reproduces_the_sequential_order() {
        let dag = binary_tree(4, 10);
        let mut pdf = PdfPolicy::new(&SchedulerSpec::pdf());
        let started = drain_policy(&dag, &mut pdf, 1);
        assert_eq!(started, dag.one_df_order());
    }

    #[test]
    fn rank_accessor_matches_dag_ranks() {
        let dag = binary_tree(3, 10);
        let mut pdf = PdfPolicy::new(&SchedulerSpec::pdf());
        pdf.init(&dag);
        let ranks = dag.one_df_ranks();
        for t in dag.task_ids() {
            assert_eq!(pdf.rank(t), ranks[t.index()]);
        }
    }

    #[test]
    fn co_scheduled_tasks_are_adjacent_in_sequential_order() {
        // With P cores and many ready leaves, the first P tasks handed out must be
        // the P sequentially-earliest ones.
        let dag = binary_tree(5, 10); // 32 leaves
        let mut pdf = PdfPolicy::new(&SchedulerSpec::pdf());
        pdf.init(&dag);
        let ranks = dag.one_df_ranks();
        // Mark all leaves ready (simulating the state after the fork phase).
        let leaves: Vec<_> = dag
            .task_ids()
            .filter(|&t| dag.successors(t).len() == 1 && dag.node(t).label.starts_with("leaf"))
            .collect();
        for &l in &leaves {
            pdf.task_ready(l, Some(0));
        }
        let p = 4;
        let mut handed: Vec<u64> = (0..p)
            .map(|c| ranks[pdf.next_task(c).unwrap().index()])
            .collect();
        handed.sort_unstable();
        let mut all_ranks: Vec<u64> = leaves.iter().map(|l| ranks[l.index()]).collect();
        all_ranks.sort_unstable();
        assert_eq!(handed, all_ranks[..p].to_vec());
    }

    #[test]
    fn ready_count_tracks_queue_size() {
        let dag = binary_tree(2, 1);
        let mut pdf = PdfPolicy::new(&SchedulerSpec::pdf());
        pdf.init(&dag);
        assert_eq!(pdf.ready_count(), 0);
        pdf.task_ready(dag.root(), None);
        assert_eq!(pdf.ready_count(), 1);
        pdf.next_task(0);
        assert_eq!(pdf.ready_count(), 0);
        assert_eq!(pdf.migrations(), 0, "pdf has no migration concept");
    }

    #[test]
    fn names_reflect_the_parameterization() {
        assert_eq!(PdfPolicy::new(&SchedulerSpec::pdf()).name(), "pdf");
    }
}
