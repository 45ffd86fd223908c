//! The online tuner behind the `adaptive` scheduler: the two-mode
//! [`HybridPolicy`](crate::hybrid::HybridPolicy) plus a PDF→deques threshold
//! tuned from windowed feedback, and a fall-back to the PDF queue when the
//! deque phase turns cache-hostile.
//!
//! `hybrid` commits to one `threshold` for the whole run; the right value
//! depends on the workload phase.  `adaptive` starts from an initial
//! threshold (floored at 1) and, once per feedback window (delivered by the
//! engine via [`observe_window`](crate::SchedulerPolicy::observe_window)),
//! re-evaluates the *scheduling pressure* — L2 misses per kilo-instruction
//! plus migration events per kilo-instruction, both signals that cores are
//! fighting over the shared cache or churning work across deques:
//!
//! * pressure above the `hi` band: constructive sharing is being lost — raise
//!   the threshold by `step` (stay in, or lean towards, PDF mode), and if
//!   currently in deque mode, drain every deque back into the PDF queue;
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

use crate::policy::WindowFeedback;
use crate::spec::SchedulerSpec;

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

/// The tuning knobs of an `adaptive` spec, separate from its threshold and
/// its deque-mode (work-stealing) options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
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
    /// Decode the tuning knobs of a validated `adaptive` spec, with the
    /// defaults for the keys it leaves out.
    pub fn of(spec: &SchedulerSpec) -> Self {
        let config = AdaptiveConfig {
            window: spec.u64_param("window").unwrap_or(DEFAULT_WINDOW),
            step: spec.u64_param("step").unwrap_or(DEFAULT_STEP as u64) as usize,
            lo: spec.f64_param("lo").unwrap_or(DEFAULT_LO),
            hi: spec.f64_param("hi").unwrap_or(DEFAULT_HI),
        };
        assert!(config.window > 0, "the feedback window must be non-zero");
        assert!(
            config.lo > 0.0 && config.hi >= config.lo,
            "the pressure band needs 0 < lo <= hi"
        );
        config
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridPolicy;
    use crate::pdf::PdfPolicy;
    use crate::policy::testing::{binary_tree, drain_policy, spec};
    use crate::policy::SchedulerPolicy;
    use pdfws_task_dag::TaskId;

    /// The policy `adaptive_spec` describes, on `cores` cores.
    fn adaptive_policy(adaptive_spec: &str, cores: usize) -> HybridPolicy {
        HybridPolicy::new(&spec(adaptive_spec), cores)
    }

    #[test]
    fn high_threshold_adaptive_is_pdf_until_feedback_says_otherwise() {
        let dag = binary_tree(5, 10);
        for cores in [1usize, 2, 4] {
            let mut adaptive = adaptive_policy(&format!("adaptive:threshold={}", u64::MAX), cores);
            let order = drain_policy(&dag, &mut adaptive, cores);
            let mut pdf = PdfPolicy::new(&spec("pdf"));
            let pdf_order = drain_policy(&dag, &mut pdf, cores);
            assert_eq!(order, pdf_order, "{cores} cores");
            assert!(!adaptive.deque_mode());
            assert_eq!(adaptive.switches(), 0);
        }
    }

    #[test]
    fn zero_pressure_feedback_decays_the_threshold_towards_deque_mode() {
        let mut adaptive = adaptive_policy("adaptive:threshold=8", 2);
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
        let mut adaptive = adaptive_policy("adaptive:threshold=1", 2);
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
        let mut adaptive = adaptive_policy("adaptive:threshold=1", 3);
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
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = adaptive_policy("adaptive:threshold=2", 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        // Parsing rejects `window=0`; the tuner also refuses one built
        // around the parser.
        let params = [("window".to_string(), "0".to_string())].into();
        let _ = HybridPolicy::new(&SchedulerSpec::known_valid("adaptive", params), 2);
    }
}
