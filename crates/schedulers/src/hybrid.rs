//! The adaptive hybrid scheduler: PDF while parallelism is scarce, per-core
//! deques (work stealing) once it is plentiful.
//!
//! The paper's two schedulers sit at opposite ends of a trade-off: PDF's
//! global priority queue maximises constructive cache sharing but serialises
//! every dispatch through one structure, while WS's per-core deques are cheap
//! and local but let the cores drift apart.  The hybrid starts in PDF mode
//! and watches the ready-queue depth; the moment it exceeds the configured
//! `threshold`, the backlog is split across per-core deques in *contiguous
//! rank chunks* (core 0 receives the sequentially-earliest run of tasks, core
//! 1 the next run, and so on — each core starts from a sequentially-adjacent
//! working set) and the policy behaves like work stealing from then on.
//!
//! Post-switch behaviour is literally a [`WorkStealingPolicy`]: the hybrid
//! delegates to an embedded instance rather than re-implementing deques, so
//! the WS parameters (victim selection — including `victim=hier` with
//! `cluster=N` — steal granularity, seed, and the steal prices
//! `steal_cycles`/`fail_backoff`) are available to the hybrid too.
//!
//! Spec form:
//! `hybrid:threshold=N[,victim=...,steal=...,seed=...,cluster=...,steal_cycles=...,fail_backoff=...]`
//! (default `N = 2 × cores`; the other parameters default like `ws`).

use crate::policy::SchedulerPolicy;
use crate::ws::{StealGranularity, VictimSelect, WorkStealingPolicy};
use pdfws_task_dag::{TaskDag, TaskId};
use pdfws_trace::PolicyEvent;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// PDF until ready depth exceeds a threshold, then per-core deques.
#[derive(Debug)]
pub struct HybridPolicy {
    name: String,
    threshold: usize,
    switched: bool,
    /// 1DF rank per task (the PDF priority), computed in `init`.
    ranks: Vec<u64>,
    /// PDF-mode ready queue (min-rank first).
    heap: BinaryHeap<Reverse<(u64, TaskId)>>,
    /// The post-switch engine; unused until the switch.
    ws: WorkStealingPolicy,
    /// Whether the switch event is buffered for the engine's trace drain.
    tracing: bool,
    /// Buffered switch event since the last `trace_drain` (steals live in the
    /// embedded WS policy's own buffer).
    pending: Vec<PolicyEvent>,
}

impl HybridPolicy {
    /// Create a hybrid policy that switches to classic deques (round-robin
    /// victims, steal-one) once more than `threshold` tasks are ready.
    pub fn new(cores: usize, threshold: usize) -> Self {
        Self::with_ws_options(
            cores,
            threshold,
            VictimSelect::RoundRobin,
            StealGranularity::One,
            0,
        )
    }

    /// Create a hybrid whose post-switch deques use the given work-stealing
    /// options (see [`WorkStealingPolicy::with_options`]).
    pub fn with_ws_options(
        cores: usize,
        threshold: usize,
        victim: VictimSelect,
        steal: StealGranularity,
        seed: u64,
    ) -> Self {
        assert!(cores > 0, "the hybrid scheduler needs at least one core");
        let ws = WorkStealingPolicy::with_options(cores, victim, steal, seed);
        // Synthesize the canonical spec for direct construction (the registry
        // overrides this with the exact spec it resolved) through a real
        // SchedulerSpec, reusing the one canonicalisation implementation.
        // Inert parameters are dropped — a seed only matters for the random
        // victim — so the synthesized name always re-parses through
        // `SchedulerSpec::from_str` (the factories reject inert combinations).
        let mut params = crate::ws::ws_spec_params(victim, steal, seed, 0, 0);
        params.insert("threshold".to_string(), threshold.to_string());
        let name = crate::spec::SchedulerSpec::known_valid("hybrid", params).canonical();
        HybridPolicy {
            name,
            threshold,
            switched: false,
            ranks: Vec::new(),
            heap: BinaryHeap::new(),
            ws,
            tracing: false,
            pending: Vec::new(),
        }
    }

    /// Price the deque mode's stealing (see [`WorkStealingPolicy::priced`]):
    /// `steal_cycles` per successful steal, `fail_backoff` after an empty
    /// scan.  Zero keeps free steals bit-identically.
    pub fn priced(mut self, steal_cycles: u64, fail_backoff: u64) -> Self {
        self.ws = self.ws.priced(steal_cycles, fail_backoff);
        let (victim, steal, seed, sc, fb) = self.ws.options();
        let mut params = crate::ws::ws_spec_params(victim, steal, seed, sc, fb);
        params.insert("threshold".to_string(), self.threshold.to_string());
        self.name = crate::spec::SchedulerSpec::known_valid("hybrid", params).canonical();
        self
    }

    /// Replace the reported name (the registry passes the canonical spec string).
    pub fn named(mut self, name: String) -> Self {
        self.name = name;
        self
    }

    /// Whether the PDF → deques switch has happened.
    pub fn switched(&self) -> bool {
        self.switched
    }

    /// Move the queued backlog from the global priority queue onto the
    /// per-core deques — contiguous rank chunks, so every core starts from a
    /// sequentially-adjacent run of tasks — and enter WS mode.
    fn switch_to_deques(&mut self) {
        self.switched = true;
        if self.tracing {
            self.pending.push(PolicyEvent::HybridSwitch {
                ready: self.heap.len() as u64,
            });
        }
        let mut backlog = Vec::with_capacity(self.heap.len());
        while let Some(Reverse((_, task))) = self.heap.pop() {
            backlog.push(task);
        }
        let chunk = backlog.len().div_ceil(self.ws.cores()).max(1);
        for (i, task) in backlog.into_iter().enumerate() {
            self.ws.task_ready(task, Some(i / chunk));
        }
    }
}

impl SchedulerPolicy for HybridPolicy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn init(&mut self, dag: &TaskDag) {
        self.ranks = dag.one_df_ranks();
        self.heap.clear();
        self.ws.init(dag);
        self.switched = false;
        // `tracing` survives init, matching the embedded WS policy.
        self.pending.clear();
    }

    fn task_ready(&mut self, task: TaskId, enabling_core: Option<usize>) {
        if self.switched {
            self.ws.task_ready(task, enabling_core);
        } else {
            let rank = self.ranks[task.index()];
            self.heap.push(Reverse((rank, task)));
            if self.heap.len() > self.threshold {
                self.switch_to_deques();
            }
        }
    }

    fn next_task(&mut self, core: usize) -> Option<TaskId> {
        if self.switched {
            self.ws.next_task(core)
        } else {
            self.heap.pop().map(|Reverse((_, task))| task)
        }
    }

    fn ready_count(&self) -> usize {
        self.heap.len() + self.ws.ready_count()
    }

    fn migrations(&self) -> u64 {
        self.ws.migrations()
    }

    fn take_dispatch_cost(&mut self) -> u64 {
        // Pre-switch dispatch (heap pops) is free; the embedded WS instance
        // reports 0 until the switch, so unconditional delegation is exact.
        self.ws.take_dispatch_cost()
    }

    fn trace_enable(&mut self) {
        self.tracing = true;
        self.ws.trace_enable();
    }

    fn trace_drain(&mut self, out: &mut Vec<PolicyEvent>) {
        // The switch event precedes any steal the deque mode performed.
        out.append(&mut self.pending);
        self.ws.trace_drain(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdf::PdfPolicy;
    use crate::policy::testing::{binary_tree, drain_policy};

    #[test]
    fn high_threshold_hybrid_is_pdf() {
        // A threshold the ready queue never reaches: the hybrid must produce
        // exactly the PDF schedule.
        let dag = binary_tree(5, 10);
        for cores in [1usize, 2, 4] {
            let mut hybrid = HybridPolicy::new(cores, usize::MAX);
            let hybrid_order = drain_policy(&dag, &mut hybrid, cores);
            let mut pdf = PdfPolicy::new();
            let pdf_order = drain_policy(&dag, &mut pdf, cores);
            assert_eq!(hybrid_order, pdf_order, "{cores} cores");
            assert!(!hybrid.switched());
            assert_eq!(hybrid.migrations(), 0, "never switched, never stole");
        }
    }

    #[test]
    fn threshold_parameter_changes_the_schedule() {
        // The acceptance property for `threshold`: an immediate switch behaves
        // like WS (steals happen, order differs from PDF); a huge threshold
        // behaves like PDF.
        let dag = binary_tree(5, 10);
        let cores = 2;
        let mut eager = HybridPolicy::new(cores, 0);
        let eager_order = drain_policy(&dag, &mut eager, cores);
        let mut lazy = HybridPolicy::new(cores, usize::MAX);
        let lazy_order = drain_policy(&dag, &mut lazy, cores);
        assert!(eager.switched());
        assert!(!lazy.switched());
        assert!(eager.migrations() > 0, "deque mode must have stolen");
        assert_ne!(
            eager_order, lazy_order,
            "threshold did not change the schedule"
        );
    }

    #[test]
    fn switch_distributes_the_backlog_in_contiguous_rank_chunks() {
        // Build a backlog of 4 ready tasks behind a threshold of 3, then watch
        // the switch hand each core a sequentially-adjacent run.
        let dag = binary_tree(2, 10);
        let mut hybrid = HybridPolicy::new(2, 3);
        hybrid.init(&dag);
        let ranks = dag.one_df_ranks();
        let mut by_rank: Vec<TaskId> = dag.task_ids().collect();
        by_rank.sort_by_key(|t| ranks[t.index()]);
        // Feed the four lowest-rank tasks as "ready" in scrambled order.
        for &i in &[2usize, 0, 3, 1] {
            hybrid.task_ready(by_rank[i], Some(0));
        }
        assert!(hybrid.switched(), "4 ready > threshold 3");
        // Contiguous chunks: core 0 owns ranks {0, 1}, core 1 owns {2, 3};
        // owners pop LIFO so core 0 starts with rank 1, core 1 with rank 3.
        assert_eq!(hybrid.next_task(0), Some(by_rank[1]));
        assert_eq!(hybrid.next_task(1), Some(by_rank[3]));
        assert_eq!(hybrid.next_task(0), Some(by_rank[0]));
        assert_eq!(hybrid.next_task(1), Some(by_rank[2]));
        assert_eq!(
            hybrid.migrations(),
            0,
            "everyone worked from their own deque"
        );
    }

    #[test]
    fn post_switch_idle_cores_steal() {
        let dag = binary_tree(6, 10);
        let mut hybrid = HybridPolicy::new(4, 0);
        let started = drain_policy(&dag, &mut hybrid, 4);
        assert_eq!(started.len(), dag.len());
        assert!(hybrid.switched());
        assert!(hybrid.migrations() > 0);
    }

    #[test]
    fn post_switch_mode_honours_ws_options() {
        // steal=half in the hybrid's deque mode needs fewer steal events than
        // steal=one on the same DAG, exactly as it does for plain WS.
        let wide = pdfws_task_dag::builder::SpTree::Par(
            (0..64)
                .map(|i| pdfws_task_dag::builder::SpTree::leaf(&format!("l{i}"), 50))
                .collect(),
        )
        .into_dag()
        .unwrap();
        let run = |steal: StealGranularity| {
            let mut hybrid =
                HybridPolicy::with_ws_options(4, 0, VictimSelect::RoundRobin, steal, 0);
            let started = drain_policy(&wide, &mut hybrid, 4);
            assert_eq!(started.len(), wide.len());
            hybrid.migrations()
        };
        let one = run(StealGranularity::One);
        let half = run(StealGranularity::Half);
        assert!(half < one, "half={half} one={one}");
    }

    #[test]
    fn single_core_hybrid_drains_in_both_modes() {
        let dag = binary_tree(4, 10);
        for threshold in [0usize, 2, usize::MAX] {
            let mut hybrid = HybridPolicy::new(1, threshold);
            let started = drain_policy(&dag, &mut hybrid, 1);
            assert_eq!(started.len(), dag.len(), "threshold {threshold}");
        }
    }

    #[test]
    fn names_reflect_the_parameterization() {
        assert_eq!(HybridPolicy::new(2, 5).name(), "hybrid:threshold=5");
        let tuned =
            HybridPolicy::with_ws_options(2, 5, VictimSelect::Random, StealGranularity::Half, 7);
        assert_eq!(
            tuned.name(),
            "hybrid:seed=7,steal=half,threshold=5,victim=random"
        );
        assert_eq!(
            HybridPolicy::new(2, 5).priced(64, 128).name(),
            "hybrid:fail_backoff=128,steal_cycles=64,threshold=5"
        );
        assert_eq!(
            HybridPolicy::new(2, 5).priced(0, 0).name(),
            "hybrid:threshold=5"
        );
    }

    #[test]
    fn every_constructor_path_synthesizes_a_reparseable_name() {
        // Mirror of the WS regression: direct construction must only report
        // spec strings `SchedulerSpec::from_str` accepts (inert seeds dropped).
        use crate::spec::SchedulerSpec;
        for victim in [
            VictimSelect::RoundRobin,
            VictimSelect::Random,
            VictimSelect::Hier { cluster: 1 },
            VictimSelect::Hier { cluster: 2 },
            VictimSelect::Hier { cluster: 3 },
        ] {
            for steal in [StealGranularity::One, StealGranularity::Half] {
                for seed in [0u64, 7] {
                    for (sc, fb) in [(0u64, 0u64), (16, 99)] {
                        let name = HybridPolicy::with_ws_options(2, 3, victim, steal, seed)
                            .priced(sc, fb)
                            .name();
                        let spec: SchedulerSpec = name
                            .parse()
                            .unwrap_or_else(|e| panic!("'{name}' does not re-parse: {e}"));
                        assert_eq!(
                            spec.canonical(),
                            name,
                            "{victim:?}/{steal:?}/seed={seed}/{sc}/{fb}"
                        );
                    }
                }
            }
        }
        let inert =
            HybridPolicy::with_ws_options(2, 3, VictimSelect::RoundRobin, StealGranularity::One, 9);
        assert_eq!(inert.name(), "hybrid:threshold=3");
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = HybridPolicy::new(0, 2);
    }
}
