//! The paper's two schedulers — Parallel Depth First (PDF) and Work Stealing
//! (WS) — plus baselines and parameterized variants, behind an open
//! [`SchedulerSpec`] API, and the cycle-level CMP execution engine they drive.
//!
//! # Scheduler specs
//!
//! "Which scheduler" is described by a [`SchedulerSpec`]: a policy name plus
//! typed `key=value` parameters, parsed from strings like:
//!
//! ```text
//! pdf                                  classic Parallel Depth First
//! ws                                   classic work stealing
//! ws:victim=random,steal=half,seed=7   parameterized work stealing
//! ws:steal_cycles=64,fail_backoff=128  priced stealing (cycles charged to the thief)
//! ws:victim=hier,cluster=4             hierarchical stealing (prefer same-cluster victims)
//! static                               static round-robin partitioning
//! hybrid:threshold=2                   PDF until ready depth > 2, then deques
//! adaptive                             hybrid that tunes its threshold online
//! ```
//!
//! Specs resolve through the [`registry`] — a name-keyed set of
//! [`PolicyFactory`] objects that declare their parameters (so parsing
//! type-checks values and rejects unknown keys with helpful errors) and build
//! the policy.  The registry is open: register your own factory and its name
//! parses everywhere a spec is accepted (see `examples/custom_policy.rs`).
//!
//! # The schedulers
//!
//! * [`pdf::PdfPolicy`] — ready tasks are prioritized by the order the *sequential*
//!   program would have executed them (their 1DF rank, computed by
//!   `pdfws-task-dag`).  A free core always receives the highest-priority ready
//!   task.  Because co-scheduled tasks are adjacent in the sequential order, their
//!   aggregate working set stays close to the sequential working set — the
//!   *constructive cache sharing* the paper is about.
//! * [`ws::WorkStealingPolicy`] — each core owns a deque of ready tasks.  Tasks a
//!   core enables are pushed onto its own deque; the owner pops from the top
//!   (LIFO, depth-first locally), and a core whose deque is empty steals from the
//!   *bottom* of a victim's deque.  `victim=` picks the scan strategy
//!   (round-robin / seeded-random / hierarchical), `steal=` the granularity
//!   (one task or half the deque), and `steal_cycles=` / `fail_backoff=`
//!   price the steal protocol in real simulated cycles.
//! * [`hybrid::HybridPolicy`] — the two-mode policy: a PDF queue while the
//!   ready queue is shallow, per-core deques once its depth exceeds
//!   `threshold`.  `hybrid` switches once; `adaptive` is the same policy plus
//!   the [`adaptive`] tuner, which retunes the threshold from windowed
//!   feedback (L2 MPKI plus migration rate) the engine reports back through
//!   [`policy::WindowFeedback`] and, under sustained cache pressure, drains
//!   the deques back into the PDF queue.
//! * [`static_partition::StaticPartitionPolicy`] — an SMP-style baseline that
//!   assigns ready tasks to cores statically (round-robin by task id) with FIFO
//!   per-core queues; used by the coarse-grained-threading experiment.
//!
//! The sequential baseline the paper's speedups are measured against is
//! [`SchedulerSpec::sequential_baseline`] on one core (on one core the PDF
//! schedule *is* the sequential depth-first execution).
//!
//! # The engine
//!
//! [`engine::SimEngine`] is an event core over one memory layer.  The event
//! core advances simulated cores through the task DAG in bounded steps of
//! compute and memory references, lets idle cores pick up work as tasks
//! complete, and owns steal prices, the co-runner and policy feedback; a
//! traced run also calls the hooks of a crate-private tracer, which decides
//! every emitted event.  The memory layer prices what the tasks touch, the same for
//! every policy: a reference pricer that sends every reference through the
//! shared [`pdfws_cache_sim::CmpCacheHierarchy`], and the off-chip model every L2 miss crosses ([`pdfws_memsys::OffChip`]:
//! the shared bus and banked DRAM, or `memsys=legacy`).  The
//! result is a [`result::SimResult`] carrying the makespan, per-core utilisation,
//! cache statistics and scheduler counters — everything the paper's figures need.
//! The result's `scheduler` field is the spec's canonical string, so two
//! parameterizations of the same policy stay distinguishable in reports.
//!
//! # Example
//!
//! ```
//! use pdfws_schedulers::{simulate, SchedulerSpec, SimOptions};
//! use pdfws_task_dag::builder::SpTree;
//! use pdfws_cmp_model::default_config;
//!
//! let dag = SpTree::Par((0..8).map(|i| SpTree::leaf(&format!("leaf{i}"), 10_000)).collect())
//!     .into_dag()
//!     .unwrap();
//! let cfg = default_config(4).unwrap();
//! let pdf = simulate(&dag, &cfg, &SchedulerSpec::pdf(), &SimOptions::default());
//! let ws: SchedulerSpec = "ws:steal=half".parse().unwrap();
//! let ws = simulate(&dag, &cfg, &ws, &SimOptions::default());
//! assert!(pdf.cycles > 0 && ws.cycles > 0);
//! assert_eq!(ws.scheduler, "ws:steal=half");
//! ```

pub mod adaptive;
pub mod engine;
pub mod hybrid;
pub mod pdf;
pub mod policy;
mod pricing;
pub mod registry;
pub mod result;
pub mod spec;
pub mod static_partition;
mod tracer;
pub mod ws;

pub use adaptive::{tuned_threshold, window_pressure, AdaptiveConfig};
pub use engine::{Disturbance, EngineCounters, EngineError, EngineStatus, SimEngine, SimOptions};
pub use hybrid::HybridPolicy;
pub use pdf::PdfPolicy;
pub use policy::{SchedulerPolicy, WindowFeedback};
pub use registry::{ParamKind, ParamSpec, PolicyFactory, Registry, SchedulerDomain};
pub use result::SimResult;
pub use spec::{SchedulerSpec, SpecError};
pub use static_partition::StaticPartitionPolicy;
pub use ws::WorkStealingPolicy;

use pdfws_cmp_model::CmpConfig;
use pdfws_task_dag::TaskDag;

/// Build the policy object a spec describes, via the global [`Registry`].
pub fn make_policy(spec: &SchedulerSpec, cores: usize) -> Box<dyn SchedulerPolicy> {
    Registry::global().resolve(spec).build(spec, cores)
}

/// Simulate `dag` on the machine described by `config` under the given scheduler.
///
/// This is the main entry point used by the experiment harness: it builds the
/// cache hierarchy, runs the engine to completion and returns the full result.
pub fn simulate(
    dag: &TaskDag,
    config: &CmpConfig,
    spec: &SchedulerSpec,
    options: &SimOptions,
) -> SimResult {
    let policy = make_policy(spec, config.cores);
    let mut engine = SimEngine::new(dag, config, policy, options.clone());
    engine.run()
}

/// [`simulate`] over an already-shared DAG: no per-run DAG clone.
///
/// This is the entry point the sweep runner uses — every (cores × scheduler)
/// cell of a sweep holds the same `Arc<TaskDag>`, so a grid of N cells builds
/// the DAG once instead of cloning it N times.  Results are bit-identical to
/// [`simulate`] on the same inputs.
pub fn simulate_shared(
    dag: std::sync::Arc<TaskDag>,
    config: &CmpConfig,
    spec: &SchedulerSpec,
    options: &SimOptions,
) -> SimResult {
    let policy = make_policy(spec, config.cores);
    let mut engine = SimEngine::with_shared_dag(dag, config, policy, options.clone());
    engine.run()
}

/// [`simulate`] with a trace: returns the result plus every [`pdfws_trace::TraceEvent`]
/// the run emitted (task start/complete per core, steals and migrations,
/// idle/busy transitions, ready-depth and windowed cache counters).
///
/// Tracing buffers events but never perturbs the simulation: the returned
/// [`SimResult`] is bit-identical to [`simulate`] on the same inputs.  Feed the
/// events to [`pdfws_trace::chrome_trace_json`] for a Perfetto timeline or to
/// [`pdfws_trace::timeline_table`] for a binned summary table.
pub fn simulate_traced(
    dag: &TaskDag,
    config: &CmpConfig,
    spec: &SchedulerSpec,
    options: &SimOptions,
) -> (SimResult, Vec<pdfws_trace::TraceEvent>) {
    let policy = make_policy(spec, config.cores);
    let mut engine = SimEngine::new(dag, config, policy, options.clone());
    let shared = pdfws_trace::SharedTrace::new();
    engine.set_trace_sink(Box::new(shared.clone()));
    let result = engine.run();
    (result, shared.take_events())
}

/// Simulate the sequential (single-core, depth-first) execution of `dag` on the
/// given configuration but with exactly one core.  The paper's speedups divide
/// this run's makespan by the parallel run's makespan.
///
/// The baseline scheduler is [`SchedulerSpec::sequential_baseline`] (PDF: on
/// one core the PDF schedule *is* the sequential depth-first execution).
pub fn simulate_sequential(dag: &TaskDag, config: &CmpConfig, options: &SimOptions) -> SimResult {
    let mut cfg = *config;
    cfg.cores = 1;
    simulate(dag, &cfg, &SchedulerSpec::sequential_baseline(), options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_policy_returns_the_canonical_spec_as_name() {
        assert_eq!(make_policy(&SchedulerSpec::pdf(), 4).name(), "pdf");
        assert_eq!(make_policy(&SchedulerSpec::ws(), 4).name(), "ws");
        assert_eq!(
            make_policy(&SchedulerSpec::static_partition(), 4).name(),
            "static"
        );
        let parameterized: SchedulerSpec = "ws:steal=half,victim=hier,cluster=1".parse().unwrap();
        assert_eq!(
            make_policy(&parameterized, 4).name(),
            "ws:cluster=1,steal=half,victim=hier"
        );
    }

    #[test]
    fn paper_pair_specs_resolve() {
        for spec in SchedulerSpec::paper_pair() {
            let policy = make_policy(&spec, 2);
            assert_eq!(policy.name(), spec.canonical());
        }
    }

    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        use pdfws_task_dag::builder::SpTree;
        let dag = SpTree::Par(
            (0..16)
                .map(|i| SpTree::leaf(&format!("leaf{i}"), 5_000))
                .collect(),
        )
        .into_dag()
        .unwrap();
        let cfg = pdfws_cmp_model::default_config(4).unwrap();
        let options = SimOptions::default();
        for spec in [
            "pdf",
            "ws",
            "static",
            "hybrid:threshold=2",
            "adaptive",
            "ws:steal_cycles=64,fail_backoff=128",
            "ws:victim=hier,cluster=2",
        ] {
            let spec: SchedulerSpec = spec.parse().unwrap();
            let plain = simulate(&dag, &cfg, &spec, &options);
            let (traced, events) = simulate_traced(&dag, &cfg, &spec, &options);
            assert_eq!(plain, traced, "{}: tracing changed the result", spec);
            let starts = events.iter().filter(|e| e.kind() == "task_start").count();
            let completes = events
                .iter()
                .filter(|e| e.kind() == "task_complete")
                .count();
            assert_eq!(starts, dag.len(), "{spec}: one start per task");
            assert_eq!(completes, dag.len(), "{spec}: one complete per task");
        }
    }

    #[test]
    fn traced_runs_capture_policy_events() {
        use pdfws_task_dag::builder::SpTree;
        let dag = SpTree::Par(
            (0..32)
                .map(|i| SpTree::leaf(&format!("leaf{i}"), 2_000))
                .collect(),
        )
        .into_dag()
        .unwrap();
        let cfg = pdfws_cmp_model::default_config(4).unwrap();
        let options = SimOptions::default();

        let (ws, events) = simulate_traced(&dag, &cfg, &"ws".parse().unwrap(), &options);
        let steals = events.iter().filter(|e| e.kind() == "steal").count() as u64;
        assert_eq!(steals, ws.migrations, "every steal shows up in the trace");

        let (st, events) = simulate_traced(&dag, &cfg, &"static".parse().unwrap(), &options);
        let migrations = events.iter().filter(|e| e.kind() == "migration").count() as u64;
        assert_eq!(migrations, st.migrations, "every migration is traced");

        let (_hy, events) =
            simulate_traced(&dag, &cfg, &"hybrid:threshold=2".parse().unwrap(), &options);
        let switches = events
            .iter()
            .filter(|e| e.kind() == "hybrid_switch")
            .count();
        assert_eq!(switches, 1, "hybrid switches exactly once on this DAG");
    }
}
