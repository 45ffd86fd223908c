//! The two-mode scheduler: PDF while parallelism is scarce, per-core deques
//! (work stealing) once it is plentiful.
//!
//! The paper's two schedulers sit at opposite ends of a trade-off: PDF's
//! global priority queue maximises constructive cache sharing but serialises
//! every dispatch through one structure, while WS's per-core deques are cheap
//! and local but let the cores drift apart.  The policy starts in PDF mode
//! and watches the ready-queue depth; the moment it exceeds the `threshold`,
//! the backlog is split across per-core deques in *contiguous rank chunks*
//! (core 0 receives the sequentially-earliest run of tasks, core 1 the next
//! run, and so on — each core starts from a sequentially-adjacent working
//! set) and the policy behaves like work stealing from then on.
//!
//! Both modes are the real policies: a [`PdfPolicy`] and a
//! [`WorkStealingPolicy`] built from the same spec, so the WS parameters
//! (victim selection — including `victim=hier` with `cluster=N` — steal
//! granularity, seed, and the steal prices `steal_cycles`/`fail_backoff`)
//! shape the deque mode.
//!
//! `hybrid` switches once, at a fixed threshold.  `adaptive` is the same
//! policy plus the online tuner of [`crate::adaptive`]: each feedback window
//! retunes the threshold, and a hot window drains the deques back into the
//! PDF queue.
//!
//! Spec forms:
//! `hybrid:threshold=N[,victim=...,steal=...,seed=...,cluster=...,steal_cycles=...,fail_backoff=...]`
//! (default `N = 2 × cores`; the other parameters default like `ws`) and
//! `adaptive[:threshold=N,window=W,step=S,lo=F,hi=F,...]` with the same
//! deque-mode parameters (its threshold is floored at 1).

use crate::adaptive::{tuned_threshold, window_pressure, AdaptiveConfig};
use crate::pdf::PdfPolicy;
use crate::policy::{SchedulerPolicy, WindowFeedback};
use crate::spec::SchedulerSpec;
use crate::ws::WorkStealingPolicy;
use pdfws_task_dag::{TaskDag, TaskId};
use pdfws_trace::PolicyEvent;

/// PDF until ready depth exceeds a threshold, then per-core deques; with a
/// tuner, the threshold follows windowed feedback and hot windows fall back.
#[derive(Debug)]
pub struct HybridPolicy {
    name: String,
    /// The PDF mode's global 1DF-rank queue.
    pdf: PdfPolicy,
    /// The deque mode.
    ws: WorkStealingPolicy,
    /// The threshold every run starts from.
    initial_threshold: usize,
    /// The live threshold (fixed unless a tuner moves it).
    threshold: usize,
    /// Whether the policy is currently in deque (work-stealing) mode.
    deque_mode: bool,
    /// Mode transitions so far (either direction).
    switches: u64,
    /// The online tuner (`adaptive` only).
    tuner: Option<AdaptiveConfig>,
    /// Whether mode-switch events are buffered for the engine's trace drain.
    tracing: bool,
    /// Buffered switch events since the last `trace_drain` (steals live in
    /// the deque mode's own buffer).
    pending: Vec<PolicyEvent>,
}

impl HybridPolicy {
    /// Build the policy a validated `hybrid` or `adaptive` spec describes for
    /// `cores` cores, reporting `spec.canonical()` as its name.  An
    /// `adaptive` spec adds the tuner and floors the threshold at 1, the
    /// tuner's own floor.
    pub fn new(spec: &SchedulerSpec, cores: usize) -> Self {
        let tuner = (spec.name() == "adaptive").then(|| AdaptiveConfig::of(spec));
        let threshold = spec.u64_param("threshold").unwrap_or(2 * cores as u64) as usize;
        let threshold = if tuner.is_some() {
            threshold.max(1)
        } else {
            threshold
        };
        HybridPolicy {
            name: spec.canonical(),
            pdf: PdfPolicy::new(spec),
            ws: WorkStealingPolicy::new(spec, cores),
            initial_threshold: threshold,
            threshold,
            deque_mode: false,
            switches: 0,
            tuner,
            tracing: false,
            pending: Vec::new(),
        }
    }

    /// Whether the policy is currently in deque (work-stealing) mode.
    pub fn deque_mode(&self) -> bool {
        self.deque_mode
    }

    /// Mode transitions so far (PDF→deques and deques→PDF both count).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The live switch threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Move the queued backlog from the PDF queue onto the per-core deques —
    /// contiguous rank chunks, so every core starts from a
    /// sequentially-adjacent run of tasks — and enter deque mode.
    fn switch_to_deques(&mut self) {
        self.deque_mode = true;
        self.switches += 1;
        let ready = self.pdf.ready_count();
        if self.tracing {
            self.pending.push(PolicyEvent::HybridSwitch {
                ready: ready as u64,
            });
        }
        let chunk = ready.div_ceil(self.ws.cores()).max(1);
        for i in 0..ready {
            let task = self.pdf.next_task(0).expect("a queued PDF task");
            self.ws.task_ready(task, Some(i / chunk));
        }
    }

    /// Abandon the deque phase: drain every deque back into the PDF queue
    /// (the steal counters stay cumulative) and resume PDF dispatch.
    fn fall_back_to_pdf(&mut self) {
        self.deque_mode = false;
        self.switches += 1;
        let drained = self.ws.drain_all();
        if self.tracing {
            self.pending.push(PolicyEvent::HybridSwitch {
                ready: drained.len() as u64,
            });
        }
        for task in drained {
            self.pdf.task_ready(task, None);
        }
    }
}

impl SchedulerPolicy for HybridPolicy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn init(&mut self, dag: &TaskDag) {
        self.pdf.init(dag);
        self.ws.init(dag);
        self.threshold = self.initial_threshold;
        self.deque_mode = false;
        self.switches = 0;
        // `tracing` survives init, matching the embedded WS policy.
        self.pending.clear();
    }

    fn task_ready(&mut self, task: TaskId, enabling_core: Option<usize>) {
        if self.deque_mode {
            self.ws.task_ready(task, enabling_core);
        } else {
            self.pdf.task_ready(task, enabling_core);
            if self.pdf.ready_count() > self.threshold {
                self.switch_to_deques();
            }
        }
    }

    fn next_task(&mut self, core: usize) -> Option<TaskId> {
        if self.deque_mode {
            self.ws.next_task(core)
        } else {
            self.pdf.next_task(core)
        }
    }

    fn ready_count(&self) -> usize {
        self.pdf.ready_count() + self.ws.ready_count()
    }

    fn migrations(&self) -> u64 {
        self.ws.migrations()
    }

    fn take_dispatch_cost(&mut self) -> u64 {
        // PDF dispatch is free; the embedded WS instance reports 0 outside
        // deque mode, so unconditional delegation is exact.
        self.ws.take_dispatch_cost()
    }

    fn feedback_window(&self) -> Option<u64> {
        self.tuner.map(|tuner| tuner.window)
    }

    fn observe_window(&mut self, feedback: WindowFeedback) {
        let Some(tuner) = self.tuner else {
            return;
        };
        let pressure = window_pressure(&feedback);
        self.threshold = tuned_threshold(self.threshold, pressure, tuner.lo, tuner.hi, tuner.step);
        // Above the band the deque phase is actively losing constructive
        // sharing: abandon it.  The threshold was just raised, so re-entry
        // needs a deeper backlog than the one that triggered this phase —
        // repeated hot windows keep raising the bar (damped flapping).
        if self.deque_mode && pressure > tuner.hi {
            self.fall_back_to_pdf();
        }
    }

    fn trace_enable(&mut self) {
        self.tracing = true;
        self.ws.trace_enable();
    }

    fn trace_drain(&mut self, out: &mut Vec<PolicyEvent>) {
        // A mode switch precedes any steal the deque mode performed.
        out.append(&mut self.pending);
        self.ws.trace_drain(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{binary_tree, drain_policy, spec};

    /// The policy `hybrid_spec` describes, on `cores` cores.
    fn hybrid_policy(hybrid_spec: &str, cores: usize) -> HybridPolicy {
        HybridPolicy::new(&spec(hybrid_spec), cores)
    }

    /// `hybrid` with a threshold the ready queue never exceeds.
    fn never_switches() -> String {
        format!("hybrid:threshold={}", u64::MAX)
    }

    #[test]
    fn high_threshold_hybrid_is_pdf() {
        // A threshold the ready queue never reaches: the hybrid must produce
        // exactly the PDF schedule.
        let dag = binary_tree(5, 10);
        for cores in [1usize, 2, 4] {
            let mut hybrid = hybrid_policy(&never_switches(), cores);
            let hybrid_order = drain_policy(&dag, &mut hybrid, cores);
            let mut pdf = PdfPolicy::new(&spec("pdf"));
            let pdf_order = drain_policy(&dag, &mut pdf, cores);
            assert_eq!(hybrid_order, pdf_order, "{cores} cores");
            assert!(!hybrid.deque_mode());
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
        let mut eager = hybrid_policy("hybrid:threshold=0", cores);
        let eager_order = drain_policy(&dag, &mut eager, cores);
        let mut lazy = hybrid_policy(&never_switches(), cores);
        let lazy_order = drain_policy(&dag, &mut lazy, cores);
        assert!(eager.deque_mode());
        assert!(!lazy.deque_mode());
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
        let mut hybrid = hybrid_policy("hybrid:threshold=3", 2);
        hybrid.init(&dag);
        let ranks = dag.one_df_ranks();
        let mut by_rank: Vec<TaskId> = dag.task_ids().collect();
        by_rank.sort_by_key(|t| ranks[t.index()]);
        // Feed the four lowest-rank tasks as "ready" in scrambled order.
        for &i in &[2usize, 0, 3, 1] {
            hybrid.task_ready(by_rank[i], Some(0));
        }
        assert!(hybrid.deque_mode(), "4 ready > threshold 3");
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
        let mut hybrid = hybrid_policy("hybrid:threshold=0", 4);
        let started = drain_policy(&dag, &mut hybrid, 4);
        assert_eq!(started.len(), dag.len());
        assert!(hybrid.deque_mode());
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
        let run = |hybrid_spec| {
            let mut hybrid = hybrid_policy(hybrid_spec, 4);
            let started = drain_policy(&wide, &mut hybrid, 4);
            assert_eq!(started.len(), wide.len());
            hybrid.migrations()
        };
        let one = run("hybrid:threshold=0");
        let half = run("hybrid:threshold=0,steal=half");
        assert!(half < one, "half={half} one={one}");
    }

    #[test]
    fn single_core_hybrid_drains_in_both_modes() {
        let dag = binary_tree(4, 10);
        for threshold in [0, 2, u64::MAX] {
            let mut hybrid = hybrid_policy(&format!("hybrid:threshold={threshold}"), 1);
            let started = drain_policy(&dag, &mut hybrid, 1);
            assert_eq!(started.len(), dag.len(), "threshold {threshold}");
        }
    }

    #[test]
    fn adaptive_floors_its_threshold_at_one() {
        // Threshold 0 sends `hybrid` to the deques as soon as the root is
        // ready; `adaptive` starts from the tuner's floor of 1 and stays in
        // PDF mode with one ready task.
        let dag = binary_tree(2, 10);
        for (threshold_zero, deque_mode) in [
            ("hybrid:threshold=0", true),
            ("adaptive:threshold=0", false),
        ] {
            let mut policy = hybrid_policy(threshold_zero, 2);
            policy.init(&dag);
            policy.task_ready(dag.root(), None);
            assert_eq!(policy.deque_mode(), deque_mode, "{threshold_zero}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = hybrid_policy("hybrid:threshold=2", 0);
    }
}
