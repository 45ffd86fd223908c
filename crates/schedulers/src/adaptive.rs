//! The self-tuning adaptive scheduler: a hybrid whose PDF→deques threshold is
//! tuned *online* from windowed feedback, and which can fall back to the
//! global priority queue when the deque phase turns cache-hostile.
//!
//! The fixed [`HybridPolicy`](crate::hybrid::HybridPolicy) commits to one
//! `threshold` for the whole run; the right value depends on the workload
//! phase.  `adaptive` starts from an initial threshold and, once per feedback
//! window (delivered by the engine via
//! [`SchedulerPolicy::observe_window`]), re-evaluates the *scheduling
//! pressure* — L2 misses per kilo-instruction plus migration events per
//! kilo-instruction, both signals that cores are fighting over the shared
//! cache or churning work across deques:
//!
//! * pressure above the `hi` band: constructive sharing is being lost — raise
//!   the threshold by `step` (stay in, or lean towards, PDF mode), and if
//!   currently in deque mode, drain every deque back into the global
//!   priority queue;
//! * pressure below the `lo` band: the caches are comfortable — lower the
//!   threshold by `step` (floor 1), so the next parallelism burst switches to
//!   cheap per-core deques sooner;
//! * pressure inside the band: leave the threshold alone.
//!
//! The tuning rule is the pure function [`tuned_threshold`]; it is monotone —
//! higher observed pressure never lowers the threshold — which
//! `tests/adaptive.rs` pins property-style.
//!
//! Spec form:
//! `adaptive[:threshold=N,window=W,step=S,lo=F,hi=F,victim=...,steal=...,seed=...,cluster=...,steal_cycles=...,fail_backoff=...]`
//! (defaults: `threshold = 2 × cores`, `window = 4096` cycles, `step = 1`,
//! `lo = 0.5`, `hi = 4` MPKI; the deque-mode parameters default like `ws`).

use crate::policy::{SchedulerPolicy, WindowFeedback};
use crate::ws::{StealGranularity, VictimSelect, WorkStealingPolicy};
use pdfws_task_dag::{TaskDag, TaskId};
use pdfws_trace::PolicyEvent;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default feedback-window length in simulated cycles.
pub const DEFAULT_WINDOW: u64 = 4096;
/// Default threshold adjustment per window.
pub const DEFAULT_STEP: usize = 1;
/// Default lower pressure band (MPKI + migrations/KI) — below it the
/// threshold decays towards deque mode.
pub const DEFAULT_LO: f64 = 0.5;
/// Default upper pressure band — above it the threshold grows towards PDF
/// mode and a running deque phase is abandoned.
pub const DEFAULT_HI: f64 = 4.0;

/// The tuning knobs of an [`AdaptivePolicy`], separate from the deque-mode
/// (work-stealing) options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Initial PDF→deques switch threshold (ready-queue depth).
    pub threshold: usize,
    /// Feedback-window length in simulated cycles (must be non-zero).
    pub window: u64,
    /// Threshold adjustment per out-of-band window.
    pub step: usize,
    /// Lower scheduling-pressure band.
    pub lo: f64,
    /// Upper scheduling-pressure band.
    pub hi: f64,
}

impl AdaptiveConfig {
    /// Defaults with an explicit initial threshold.
    pub fn new(threshold: usize) -> Self {
        AdaptiveConfig {
            threshold,
            window: DEFAULT_WINDOW,
            step: DEFAULT_STEP,
            lo: DEFAULT_LO,
            hi: DEFAULT_HI,
        }
    }
}

/// One window's scheduling pressure: L2 MPKI plus migration events per
/// kilo-instruction.  Both components argue for the shared-queue (PDF) mode —
/// misses mean the cores' working sets stopped sharing constructively,
/// migrations mean the deque mode is churning work across cores.
pub fn window_pressure(fb: &WindowFeedback) -> f64 {
    if fb.instructions == 0 {
        return 0.0;
    }
    fb.l2_mpki() + fb.migrations as f64 * 1000.0 / fb.instructions as f64
}

/// The pure threshold-tuning rule: one step up above the `hi` band, one step
/// down (floored at 1) below the `lo` band, unchanged inside it.
///
/// For any fixed `current`/`lo`/`hi`/`step` this is monotone non-decreasing in
/// `pressure` (`current − step ≤ current ≤ current + step`), so higher
/// observed MPKI can never *lower* the switch threshold — the property
/// `tests/adaptive.rs` pins.
pub fn tuned_threshold(current: usize, pressure: f64, lo: f64, hi: f64, step: usize) -> usize {
    if pressure > hi {
        current.saturating_add(step)
    } else if pressure < lo {
        current.saturating_sub(step).max(1)
    } else {
        current
    }
}

/// The adaptive policy: PDF with an online-tuned switch threshold, deques
/// while the pressure stays low, and a drain-back path when it does not.
#[derive(Debug)]
pub struct AdaptivePolicy {
    name: String,
    config: AdaptiveConfig,
    /// The live threshold (starts at `config.threshold`, tuned per window).
    threshold: usize,
    /// Whether the policy is currently in deque (work-stealing) mode.
    deque_mode: bool,
    /// Mode transitions so far (either direction).
    switches: u64,
    /// 1DF rank per task (the PDF priority), computed in `init`.
    ranks: Vec<u64>,
    /// PDF-mode ready queue (min-rank first).
    heap: BinaryHeap<Reverse<(u64, TaskId)>>,
    /// The deque-mode engine.
    ws: WorkStealingPolicy,
    /// Whether mode-switch events are buffered for the engine's trace drain.
    tracing: bool,
    /// Buffered switch events since the last `trace_drain`.
    pending: Vec<PolicyEvent>,
}

impl AdaptivePolicy {
    /// Create an adaptive policy with default tuning knobs and classic
    /// deque-mode options.
    pub fn new(cores: usize, threshold: usize) -> Self {
        Self::with_options(
            cores,
            AdaptiveConfig::new(threshold),
            VictimSelect::RoundRobin,
            StealGranularity::One,
            0,
        )
    }

    /// Create an adaptive policy with explicit tuning knobs and deque-mode
    /// (work-stealing) options.
    pub fn with_options(
        cores: usize,
        config: AdaptiveConfig,
        victim: VictimSelect,
        steal: StealGranularity,
        seed: u64,
    ) -> Self {
        assert!(cores > 0, "the adaptive scheduler needs at least one core");
        assert!(config.window > 0, "the feedback window must be non-zero");
        assert!(
            config.lo > 0.0 && config.hi >= config.lo,
            "the pressure band needs 0 < lo <= hi"
        );
        let ws = WorkStealingPolicy::with_options(cores, victim, steal, seed);
        let mut policy = AdaptivePolicy {
            name: String::new(),
            config,
            threshold: config.threshold.max(1),
            deque_mode: false,
            switches: 0,
            ranks: Vec::new(),
            heap: BinaryHeap::new(),
            ws,
            tracing: false,
            pending: Vec::new(),
        };
        policy.synthesize_name();
        policy
    }

    /// Price the deque mode's stealing (see
    /// [`WorkStealingPolicy::priced`](crate::ws::WorkStealingPolicy::priced)).
    pub fn priced(mut self, steal_cycles: u64, fail_backoff: u64) -> Self {
        self.ws = self.ws.priced(steal_cycles, fail_backoff);
        self.synthesize_name();
        self
    }

    /// Replace the reported name (the registry passes the canonical spec string).
    pub fn named(mut self, name: String) -> Self {
        self.name = name;
        self
    }

    /// Re-derive the canonical spec string from the current options, dropping
    /// default-valued tuning knobs (the registry overrides this with the
    /// exact spec it resolved).
    fn synthesize_name(&mut self) {
        let (victim, steal, seed, sc, fb) = self.ws.options();
        let mut params = crate::ws::ws_spec_params(victim, steal, seed, sc, fb);
        params.insert("threshold".to_string(), self.config.threshold.to_string());
        if self.config.window != DEFAULT_WINDOW {
            params.insert("window".to_string(), self.config.window.to_string());
        }
        if self.config.step != DEFAULT_STEP {
            params.insert("step".to_string(), self.config.step.to_string());
        }
        if self.config.lo != DEFAULT_LO {
            params.insert("lo".to_string(), self.config.lo.to_string());
        }
        if self.config.hi != DEFAULT_HI {
            params.insert("hi".to_string(), self.config.hi.to_string());
        }
        self.name = crate::spec::SchedulerSpec::known_valid("adaptive", params).canonical();
    }

    /// Whether the policy is currently in deque (work-stealing) mode.
    pub fn deque_mode(&self) -> bool {
        self.deque_mode
    }

    /// Mode transitions so far (PDF→deques and deques→PDF both count).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The live (tuned) switch threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Move the queued backlog from the global priority queue onto the
    /// per-core deques in contiguous rank chunks (the hybrid's discipline)
    /// and enter deque mode.
    fn switch_to_deques(&mut self) {
        self.deque_mode = true;
        self.switches += 1;
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

    /// Abandon the deque phase: drain every deque back into the global
    /// priority queue (the steal counters stay cumulative) and resume PDF
    /// dispatch.
    fn fall_back_to_heap(&mut self) {
        self.deque_mode = false;
        self.switches += 1;
        let drained = self.ws.drain_all();
        if self.tracing {
            self.pending.push(PolicyEvent::HybridSwitch {
                ready: drained.len() as u64,
            });
        }
        for task in drained {
            let rank = self.ranks[task.index()];
            self.heap.push(Reverse((rank, task)));
        }
    }
}

impl SchedulerPolicy for AdaptivePolicy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn init(&mut self, dag: &TaskDag) {
        self.ranks = dag.one_df_ranks();
        self.heap.clear();
        self.ws.init(dag);
        self.threshold = self.config.threshold.max(1);
        self.deque_mode = false;
        self.switches = 0;
        // `tracing` survives init, matching the embedded WS policy.
        self.pending.clear();
    }

    fn task_ready(&mut self, task: TaskId, enabling_core: Option<usize>) {
        if self.deque_mode {
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
        if self.deque_mode {
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
        // Heap pops are free; the embedded WS instance reports 0 outside
        // deque mode, so unconditional delegation is exact.
        self.ws.take_dispatch_cost()
    }

    fn feedback_window(&self) -> Option<u64> {
        Some(self.config.window)
    }

    fn observe_window(&mut self, feedback: WindowFeedback) {
        let pressure = window_pressure(&feedback);
        self.threshold = tuned_threshold(
            self.threshold,
            pressure,
            self.config.lo,
            self.config.hi,
            self.config.step,
        );
        // Above the band the deque phase is actively losing constructive
        // sharing: abandon it.  The threshold was just raised, so re-entry
        // needs a deeper backlog than the one that triggered this phase —
        // repeated hot windows keep raising the bar (damped flapping).
        if self.deque_mode && pressure > self.config.hi {
            self.fall_back_to_heap();
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
    use crate::pdf::PdfPolicy;
    use crate::policy::testing::{binary_tree, drain_policy};

    #[test]
    fn high_threshold_adaptive_is_pdf_until_feedback_says_otherwise() {
        let dag = binary_tree(5, 10);
        for cores in [1usize, 2, 4] {
            let mut adaptive = AdaptivePolicy::new(cores, usize::MAX);
            let order = drain_policy(&dag, &mut adaptive, cores);
            let mut pdf = PdfPolicy::new();
            let pdf_order = drain_policy(&dag, &mut pdf, cores);
            assert_eq!(order, pdf_order, "{cores} cores");
            assert!(!adaptive.deque_mode());
            assert_eq!(adaptive.switches(), 0);
        }
    }

    #[test]
    fn zero_pressure_feedback_decays_the_threshold_towards_deque_mode() {
        let mut adaptive = AdaptivePolicy::new(2, 8);
        adaptive.init(&binary_tree(2, 10));
        assert_eq!(adaptive.threshold(), 8);
        for expect in [7, 6, 5] {
            adaptive.observe_window(WindowFeedback {
                cycles: DEFAULT_WINDOW,
                instructions: 10_000,
                l2_misses: 0,
                migrations: 0,
            });
            assert_eq!(adaptive.threshold(), expect);
        }
    }

    #[test]
    fn hot_windows_raise_the_threshold_and_abandon_the_deque_phase() {
        let dag = binary_tree(3, 10);
        let mut adaptive = AdaptivePolicy::new(2, 1);
        adaptive.init(&dag);
        let ranks = dag.one_df_ranks();
        let mut by_rank: Vec<TaskId> = dag.task_ids().collect();
        by_rank.sort_by_key(|t| ranks[t.index()]);
        // Two ready tasks exceed threshold 1: deque mode engages.
        adaptive.task_ready(by_rank[0], Some(0));
        adaptive.task_ready(by_rank[1], Some(0));
        assert!(adaptive.deque_mode());
        assert_eq!(adaptive.switches(), 1);
        // A hot window (MPKI way above the hi band) raises the threshold and
        // drains the deques back into the global queue.
        adaptive.observe_window(WindowFeedback {
            cycles: DEFAULT_WINDOW,
            instructions: 1_000,
            l2_misses: 100, // 100 MPKI
            migrations: 0,
        });
        assert!(!adaptive.deque_mode());
        assert_eq!(adaptive.switches(), 2);
        assert_eq!(adaptive.threshold(), 1 + DEFAULT_STEP);
        // PDF dispatch resumes in rank order.
        assert_eq!(adaptive.next_task(0), Some(by_rank[0]));
        assert_eq!(adaptive.next_task(1), Some(by_rank[1]));
        assert_eq!(adaptive.next_task(0), None);
    }

    #[test]
    fn drained_tasks_are_not_lost_across_a_fallback() {
        // Engage deque mode, fall back, and still schedule every task once.
        let dag = binary_tree(5, 10);
        let mut adaptive = AdaptivePolicy::new(3, 1);
        // drain_policy never delivers feedback, so inject a fallback by hand
        // partway: run a few rounds, observe a hot window, then drain fully.
        adaptive.init(&dag);
        let mut remaining = dag.in_degrees();
        let mut started = Vec::new();
        adaptive.task_ready(dag.root(), None);
        let mut rounds = 0;
        loop {
            let mut running = Vec::new();
            for core in 0..3 {
                if let Some(t) = adaptive.next_task(core) {
                    started.push(t);
                    running.push((core, t));
                }
            }
            if running.is_empty() {
                break;
            }
            for (core, t) in running {
                adaptive.task_complete(t, core);
                for &s in dag.successors(t).iter().rev() {
                    remaining[s.index()] -= 1;
                    if remaining[s.index()] == 0 {
                        adaptive.task_ready(s, Some(core));
                    }
                }
            }
            rounds += 1;
            if rounds == 4 {
                adaptive.observe_window(WindowFeedback {
                    cycles: DEFAULT_WINDOW,
                    instructions: 1_000,
                    l2_misses: 100,
                    migrations: 50,
                });
            }
        }
        assert_eq!(started.len(), dag.len());
        let mut sorted: Vec<_> = started.iter().map(|t| t.index()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), dag.len(), "a task was lost or duplicated");
        assert!(adaptive.switches() >= 2, "switched out and back");
    }

    #[test]
    fn tuned_threshold_is_monotone_and_floored() {
        assert_eq!(tuned_threshold(5, 10.0, 0.5, 4.0, 2), 7);
        assert_eq!(tuned_threshold(5, 2.0, 0.5, 4.0, 2), 5);
        assert_eq!(tuned_threshold(5, 0.1, 0.5, 4.0, 2), 3);
        assert_eq!(tuned_threshold(1, 0.0, 0.5, 4.0, 2), 1, "floored at 1");
        assert_eq!(tuned_threshold(usize::MAX, 9.0, 0.5, 4.0, 1), usize::MAX);
    }

    #[test]
    fn pressure_combines_mpki_and_migration_rate() {
        let fb = WindowFeedback {
            cycles: 4096,
            instructions: 1_000,
            l2_misses: 3,
            migrations: 2,
        };
        assert!((window_pressure(&fb) - 5.0).abs() < 1e-12);
        assert_eq!(window_pressure(&WindowFeedback::default()), 0.0);
    }

    #[test]
    fn names_reflect_the_parameterization() {
        assert_eq!(AdaptivePolicy::new(2, 4).name(), "adaptive:threshold=4");
        let mut config = AdaptiveConfig::new(4);
        config.window = 1024;
        config.step = 2;
        config.lo = 0.25;
        config.hi = 8.0;
        let tuned = AdaptivePolicy::with_options(
            2,
            config,
            VictimSelect::Random,
            StealGranularity::Half,
            7,
        );
        assert_eq!(
            tuned.name(),
            "adaptive:hi=8,lo=0.25,seed=7,steal=half,step=2,threshold=4,victim=random,window=1024"
        );
        assert_eq!(
            AdaptivePolicy::new(2, 4).priced(64, 128).name(),
            "adaptive:fail_backoff=128,steal_cycles=64,threshold=4"
        );
    }

    #[test]
    fn every_constructor_path_synthesizes_a_reparseable_name() {
        use crate::spec::SchedulerSpec;
        for victim in [
            VictimSelect::RoundRobin,
            VictimSelect::Random,
            VictimSelect::Hier { cluster: 1 },
            VictimSelect::Hier { cluster: 2 },
            VictimSelect::Hier { cluster: 4 },
        ] {
            for seed in [0u64, 7] {
                for window in [DEFAULT_WINDOW, 512] {
                    let mut config = AdaptiveConfig::new(3);
                    config.window = window;
                    let name = AdaptivePolicy::with_options(
                        2,
                        config,
                        victim,
                        StealGranularity::One,
                        seed,
                    )
                    .name();
                    let spec: SchedulerSpec = name
                        .parse()
                        .unwrap_or_else(|e| panic!("'{name}' does not re-parse: {e}"));
                    assert_eq!(spec.canonical(), name, "{victim:?}/seed={seed}/w={window}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = AdaptivePolicy::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        let mut config = AdaptiveConfig::new(2);
        config.window = 0;
        let _ = AdaptivePolicy::with_options(
            2,
            config,
            VictimSelect::RoundRobin,
            StealGranularity::One,
            0,
        );
    }
}
