//! The scheduler-policy interface the execution engine drives.
//!
//! The engine owns time, cores and the cache hierarchy; a policy only decides
//! *which ready task a free core runs next*.  The interface mirrors how the two
//! schedulers are described in the paper: the engine tells the policy when a task
//! becomes ready (and which core enabled it, so WS can push it onto that core's
//! local deque), when a task completes (so windowed policies can track the
//! execution frontier), and asks for work on behalf of an idle core.
//!
//! Policy objects are built from a [`SchedulerSpec`](crate::SchedulerSpec)
//! through the [`registry`](crate::registry); [`SchedulerPolicy::name`] echoes
//! the canonical spec string so results stay attributable to the exact
//! parameterization that produced them.

use pdfws_task_dag::{TaskDag, TaskId};
use pdfws_trace::PolicyEvent;

/// One feedback window of engine-observed counters, delivered to policies that
/// request online feedback via [`SchedulerPolicy::feedback_window`].
///
/// All counts are *deltas* accumulated since the previous window (the engine
/// keeps the running bases), so a policy can derive rates — MPKI, migrations
/// per kilo-instruction — without tracking engine totals itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowFeedback {
    /// Simulated cycles the window spans.
    pub cycles: u64,
    /// Instructions executed during the window (all cores).
    pub instructions: u64,
    /// Shared-L2 misses during the window.
    pub l2_misses: u64,
    /// Work migrations (steals, cross-core placements) during the window.
    pub migrations: u64,
}

impl WindowFeedback {
    /// L2 misses per kilo-instruction over this window (0 when no
    /// instructions retired — an all-stall window carries no signal).
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.l2_misses as f64 * 1000.0 / self.instructions as f64
    }
}

/// A scheduling policy: decides which ready task each free core executes next.
///
/// Implementations must be deterministic: given the same sequence of calls they
/// must return the same decisions.  The engine guarantees that:
///
/// * `init` is called exactly once, before any other method;
/// * `task_ready` is called exactly once per task, only after all of the task's
///   predecessors have completed (`None` for the root task, which no core enabled);
/// * `next_task` is only called for cores that are currently idle, and a returned
///   task is immediately started on that core (it will not be offered again);
/// * `task_complete` is called exactly once per task, before the completion's
///   successors are announced via `task_ready`.
pub trait SchedulerPolicy {
    /// The canonical spec string of this policy instance (e.g. `"pdf"`,
    /// `"ws:steal=half,victim=random"`).  Reports and job-stream records carry
    /// this verbatim, so two parameterizations of the same policy remain
    /// distinguishable in output.
    fn name(&self) -> String;

    /// Inspect the DAG before simulation starts (e.g. to compute priorities).
    fn init(&mut self, dag: &TaskDag);

    /// `task` has become ready.  `enabling_core` is the core whose completion
    /// enabled it (`None` for the root).
    fn task_ready(&mut self, task: TaskId, enabling_core: Option<usize>);

    /// Core `core` is idle and asks for a task.  Returning `None` leaves the core
    /// idle until the next `task_ready` or `task_complete` event.
    fn next_task(&mut self, core: usize) -> Option<TaskId>;

    /// `task` has finished executing on `core`.  The default is a no-op and
    /// no built-in policy overrides it; the hook stays so that policies
    /// registered from outside the crate (and trace replays that drive a
    /// policy directly) can track completions.
    fn task_complete(&mut self, _task: TaskId, _core: usize) {}

    /// Number of ready tasks currently queued (all cores combined).
    fn ready_count(&self) -> usize;

    /// Number of work migrations performed so far.
    ///
    /// What counts as a migration depends on the policy: steal events for the
    /// deque-based policies (`ws`, and `hybrid` after its switch), and
    /// cross-core placements for `static` (a task queued on a home core other
    /// than the core that enabled it).  `pdf` reports 0 by construction — its
    /// single global queue gives tasks no home core, so no handoff is a
    /// migration.  The default implementation returns 0 for policies with no
    /// migration concept.
    fn migrations(&self) -> u64 {
        0
    }

    /// Cycles of dispatch overhead incurred by the *most recent*
    /// [`next_task`](SchedulerPolicy::next_task) call, consumed by the engine.
    ///
    /// Priced policies (e.g. `ws:steal_cycles=N,fail_backoff=M`) report the
    /// cost of a successful steal (charged to the thief core before the stolen
    /// task starts) or of a failed victim probe (the thief backs off and stays
    /// idle for that long).  The engine calls this exactly once after every
    /// `next_task` and must observe 0 on the next call until another
    /// `next_task` happens — hence "take".  The default is free dispatch.
    fn take_dispatch_cost(&mut self) -> u64 {
        0
    }

    /// Ask the policy whether it wants periodic [`WindowFeedback`] deliveries,
    /// and at what cycle granularity.
    ///
    /// The engine reads this once at simulation start.  `None` (the default)
    /// means the policy is open-loop and the engine skips feedback bookkeeping
    /// entirely; `Some(w)` requests a delivery roughly every `w` simulated
    /// cycles (sampled at task-step boundaries, so delivery times are
    /// deterministic and independent of `run_for` quantization).
    fn feedback_window(&self) -> Option<u64> {
        None
    }

    /// Deliver one window of observed counters to a feedback-driven policy.
    ///
    /// Only called when [`feedback_window`](SchedulerPolicy::feedback_window)
    /// returned `Some`.  The default ignores the delivery.
    fn observe_window(&mut self, _feedback: WindowFeedback) {}

    /// Switch on buffering of scheduler-internal trace events.
    ///
    /// The engine calls this once when a trace sink is installed.  Policies
    /// that have nothing to report (or custom registered policies that predate
    /// tracing) keep the default no-op and stay trace-silent; the in-tree
    /// policies start buffering [`PolicyEvent`]s for the engine to drain.
    /// Buffering must survive a subsequent [`init`](SchedulerPolicy::init).
    fn trace_enable(&mut self) {}

    /// Drain buffered [`PolicyEvent`]s into `out`, preserving emission order.
    ///
    /// Policies do not know the simulation clock, so events are drained by the
    /// engine right after the policy call that produced them and stamped with
    /// the current simulation time.  The default is a no-op for policies that
    /// never buffer.
    fn trace_drain(&mut self, _out: &mut Vec<PolicyEvent>) {}
}

#[cfg(test)]
pub(crate) mod testing {
    //! Shared helpers for policy unit tests.

    use crate::spec::SchedulerSpec;
    use pdfws_task_dag::builder::SpTree;
    use pdfws_task_dag::TaskDag;

    /// Parse a scheduler spec string the test knows is valid.
    pub fn spec(s: &str) -> SchedulerSpec {
        s.parse().unwrap_or_else(|e| panic!("'{s}': {e}"))
    }

    /// A balanced binary fork-join tree of the given depth; leaves carry `leaf_instr`
    /// instructions.  Depth 0 is a single leaf.
    pub fn binary_tree(depth: u32, leaf_instr: u64) -> TaskDag {
        fn build(depth: u32, leaf_instr: u64, path: String) -> SpTree {
            if depth == 0 {
                SpTree::leaf(&format!("leaf-{path}"), leaf_instr)
            } else {
                SpTree::Par(vec![
                    build(depth - 1, leaf_instr, format!("{path}0")),
                    build(depth - 1, leaf_instr, format!("{path}1")),
                ])
            }
        }
        build(depth, leaf_instr, String::new()).into_dag().unwrap()
    }

    /// Drain a policy by simulating instantaneous task execution on `cores` cores:
    /// repeatedly give every idle core a task, "complete" all running tasks, and
    /// feed newly-enabled tasks back.  Returns the order in which tasks started.
    /// This exercises policies independently of the timing engine.
    pub fn drain_policy(
        dag: &TaskDag,
        policy: &mut dyn super::SchedulerPolicy,
        cores: usize,
    ) -> Vec<pdfws_task_dag::TaskId> {
        let mut remaining_preds = dag.in_degrees();
        let mut started = Vec::with_capacity(dag.len());
        policy.init(dag);
        policy.task_ready(dag.root(), None);
        loop {
            // Give every core at most one task this round.
            let mut running = Vec::new();
            for core in 0..cores {
                if let Some(t) = policy.next_task(core) {
                    started.push(t);
                    running.push((core, t));
                }
            }
            if running.is_empty() {
                break;
            }
            // Complete them all and enable successors.  Completion is announced
            // before the successors (the engine's convention), and successors
            // are enabled in reverse listing order so that a LIFO owner (WS)
            // picks up the leftmost child first, matching the sequential
            // depth-first descent.
            for (core, t) in running {
                policy.task_complete(t, core);
                for &s in dag.successors(t).iter().rev() {
                    remaining_preds[s.index()] -= 1;
                    if remaining_preds[s.index()] == 0 {
                        policy.task_ready(s, Some(core));
                    }
                }
            }
        }
        started
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use crate::make_policy;

    #[test]
    fn every_policy_schedules_every_task_exactly_once() {
        for cores in [1usize, 2, 4, 8] {
            let dag = binary_tree(4, 100);
            for s in [
                "pdf",
                "ws",
                "static",
                "hybrid:threshold=3",
                "adaptive:threshold=3",
            ] {
                let mut policy = make_policy(&spec(s), cores);
                let started = drain_policy(&dag, policy.as_mut(), cores);
                assert_eq!(
                    started.len(),
                    dag.len(),
                    "{} on {cores} cores",
                    policy.name()
                );
                let mut sorted: Vec<_> = started.iter().map(|t| t.index()).collect();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(
                    sorted.len(),
                    dag.len(),
                    "{} duplicated a task",
                    policy.name()
                );
                assert_eq!(policy.ready_count(), 0);
            }
        }
    }

    #[test]
    fn started_order_respects_precedence_for_all_policies() {
        let dag = binary_tree(3, 10);
        for cores in [1usize, 3] {
            for s in [
                "pdf",
                "ws",
                "static",
                "hybrid:threshold=2",
                "adaptive:threshold=2",
            ] {
                let mut policy = make_policy(&spec(s), cores);
                let started = drain_policy(&dag, policy.as_mut(), cores);
                // In drain_policy a task only becomes ready after its predecessors
                // completed in an earlier round, so a valid start order is also a
                // valid schedule order.
                assert!(
                    dag.is_valid_schedule_order(&started),
                    "{} violated precedence",
                    policy.name()
                );
            }
        }
    }
}
