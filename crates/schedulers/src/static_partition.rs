//! Static round-robin partitioning — an SMP-style baseline scheduler.
//!
//! Most parallel benchmarks of the era were written for SMPs with coarse-grained
//! threading: work is divided among threads up front and each thread processes its
//! share in order, with no load balancing and no attempt at co-scheduling related
//! work.  This policy models that style at the scheduler level: every ready task is
//! assigned to a core chosen statically from its task id (round-robin), and each
//! core processes its queue FIFO.  Combined with the coarse-grained workload
//! variants it reproduces the paper's finding that such programs "cannot exploit
//! the constructive cache behavior inherent in PDF".
//!
//! The policy's [`migrations`](SchedulerPolicy::migrations) counter reports
//! *cross-core placements*: tasks whose statically assigned home core differs
//! from the core that enabled them.  Static partitioning never load-balances, but it moves
//! work between cores constantly — every cross-core placement is a transfer a
//! locality-aware scheduler would have avoided.

use crate::policy::SchedulerPolicy;
use crate::spec::SchedulerSpec;
use pdfws_task_dag::{TaskDag, TaskId};
use pdfws_trace::PolicyEvent;
use std::collections::VecDeque;

/// Static round-robin assignment with per-core FIFO queues.
#[derive(Debug)]
pub struct StaticPartitionPolicy {
    name: String,
    queues: Vec<VecDeque<TaskId>>,
    /// Tasks queued on a home core different from their enabling core.
    migrations: u64,
    /// Whether migration events are buffered for the engine's trace drain.
    tracing: bool,
    /// Buffered migration events since the last `trace_drain`.
    pending: Vec<PolicyEvent>,
}

impl StaticPartitionPolicy {
    /// Build the policy for `cores` cores, reporting `spec.canonical()` as
    /// its name.
    pub fn new(spec: &SchedulerSpec, cores: usize) -> Self {
        assert!(cores > 0, "static partitioning needs at least one core");
        StaticPartitionPolicy {
            name: spec.canonical(),
            queues: vec![VecDeque::new(); cores],
            migrations: 0,
            tracing: false,
            pending: Vec::new(),
        }
    }

    /// The core a task is statically assigned to.
    pub fn home_core(&self, task: TaskId) -> usize {
        task.index() % self.queues.len()
    }

    /// Number of tasks queued on `core`.
    pub fn queue_len(&self, core: usize) -> usize {
        self.queues[core].len()
    }
}

impl SchedulerPolicy for StaticPartitionPolicy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn init(&mut self, _dag: &TaskDag) {
        for q in &mut self.queues {
            q.clear();
        }
        self.migrations = 0;
        // `tracing` survives init; the engine enables it before the run.
        self.pending.clear();
    }

    fn task_ready(&mut self, task: TaskId, enabling_core: Option<usize>) {
        let home = self.home_core(task);
        if let Some(core) = enabling_core.filter(|&c| c != home) {
            self.migrations += 1;
            if self.tracing {
                self.pending.push(PolicyEvent::Migration {
                    core,
                    home,
                    task: task.index() as u64,
                });
            }
        }
        self.queues[home].push_back(task);
    }

    fn next_task(&mut self, core: usize) -> Option<TaskId> {
        self.queues[core].pop_front()
    }

    fn ready_count(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn migrations(&self) -> u64 {
        self.migrations
    }

    fn trace_enable(&mut self) {
        self.tracing = true;
    }

    fn trace_drain(&mut self, out: &mut Vec<PolicyEvent>) {
        out.append(&mut self.pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{binary_tree, drain_policy};
    use pdfws_task_dag::builder::DagBuilder;

    #[test]
    fn tasks_go_to_their_home_core_only() {
        let mut b = DagBuilder::new();
        let root = b.task("root").build();
        let kids: Vec<_> = (0..6)
            .map(|i| b.task(format_args!("c{i}")).build())
            .collect();
        for &c in &kids {
            b.edge(root, c);
        }
        let dag = b.finish().unwrap();
        let mut sp = StaticPartitionPolicy::new(&SchedulerSpec::static_partition(), 3);
        sp.init(&dag);
        for &c in &kids {
            sp.task_ready(c, Some(0));
        }
        // Kids have ids 1..=6, so homes are 1,2,0,1,2,0.
        assert_eq!(sp.queue_len(0), 2);
        assert_eq!(sp.queue_len(1), 2);
        assert_eq!(sp.queue_len(2), 2);
        // A core with an empty queue gets nothing, even though work exists elsewhere.
        let t = sp.next_task(0).unwrap();
        assert_eq!(sp.home_core(t), 0);
        sp.next_task(0).unwrap();
        assert_eq!(
            sp.next_task(0),
            None,
            "no stealing under static partitioning"
        );
        assert!(sp.ready_count() > 0);
    }

    #[test]
    fn cross_core_placements_are_counted_as_migrations() {
        let mut b = DagBuilder::new();
        let root = b.task("root").build();
        let kids: Vec<_> = (0..6)
            .map(|i| b.task(format_args!("c{i}")).build())
            .collect();
        for &c in &kids {
            b.edge(root, c);
        }
        let dag = b.finish().unwrap();
        let mut sp = StaticPartitionPolicy::new(&SchedulerSpec::static_partition(), 3);
        sp.init(&dag);
        assert_eq!(sp.migrations(), 0);
        // The root has no enabling core: not a migration.
        sp.task_ready(root, None);
        assert_eq!(sp.migrations(), 0);
        // Core 0 enables all six kids; homes are 1,2,0,1,2,0 so four of them
        // land away from core 0.
        for &c in &kids {
            sp.task_ready(c, Some(0));
        }
        assert_eq!(sp.migrations(), 4);
    }

    #[test]
    fn fifo_order_within_a_core() {
        let mut b = DagBuilder::new();
        let root = b.task("root").build();
        // Children with ids 1, 3 (via a dummy id-2 task) both map to core 1 of 2.
        let c1 = b.task("c1").build();
        let dummy = b.task("dummy").build();
        let c3 = b.task("c3").build();
        b.edge(root, c1);
        b.edge(root, dummy);
        b.edge(root, c3);
        let dag = b.finish().unwrap();
        let mut sp = StaticPartitionPolicy::new(&SchedulerSpec::static_partition(), 2);
        sp.init(&dag);
        sp.task_ready(c1, Some(0));
        sp.task_ready(c3, Some(0));
        assert_eq!(sp.next_task(1), Some(c1));
        assert_eq!(sp.next_task(1), Some(c3));
    }

    #[test]
    fn drains_complete_dags() {
        let dag = binary_tree(5, 10);
        for cores in [1usize, 2, 5] {
            let mut sp = StaticPartitionPolicy::new(&SchedulerSpec::static_partition(), cores);
            let started = drain_policy(&dag, &mut sp, cores);
            assert_eq!(started.len(), dag.len());
            if cores == 1 {
                assert_eq!(sp.migrations(), 0, "one core: every placement is home");
            } else {
                assert!(
                    sp.migrations() > 0,
                    "round-robin homes on {cores} cores must migrate some tasks"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = StaticPartitionPolicy::new(&SchedulerSpec::static_partition(), 0);
    }
}
