//! The real-thread stream backend: serving the same job stream on the
//! `pdfws-runtime` pools.
//!
//! Where the sim backend answers "what would the caches do", this backend
//! answers "does the policy hold up as an actual runtime": a closed-loop
//! population of client threads submits DAG jobs to a shared [`WsPool`] or
//! [`PdfPool`], each job executes its DAG level-parallel with fork-join
//! `join`s, and sojourn times are measured in wall-clock nanoseconds.
//!
//! DAG compute instructions are burned as arithmetic spins, scaled by
//! [`ThreadStreamConfig::ns_per_kinstr`]; memory traces are not replayed (the
//! cache story is the simulator's job).

use crate::source::JobMix;
use pdfws_metrics::Quantiles;
use pdfws_runtime::{ForkJoinPool, PdfPool, PoolError, WsPool};
use pdfws_schedulers::SchedulerSpec;
use pdfws_task_dag::{TaskDag, TaskId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of one stream run on the real-thread backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadStreamConfig {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Pool flavour: a parameterless spec whose policy is `pdf` or `ws` (the
    /// real-thread pools implement only the classic paper pair; parameterized
    /// variants are rejected rather than silently served by the plain pool).
    pub scheduler: SchedulerSpec,
    /// Closed-loop client population (concurrent submitters).
    pub population: usize,
    /// Client think time between a completion and the next submission.
    pub think: Duration,
    /// Wall-clock nanoseconds burned per 1000 DAG instructions.
    pub ns_per_kinstr: u64,
    /// Seed for job sampling.
    pub seed: u64,
}

impl ThreadStreamConfig {
    /// Defaults sized for tests: 2 workers, 2 clients, no think time.
    pub fn new(threads: usize, scheduler: SchedulerSpec) -> Self {
        ThreadStreamConfig {
            threads,
            scheduler,
            population: 2,
            think: Duration::ZERO,
            ns_per_kinstr: 50,
            seed: 42,
        }
    }
}

/// Wall-clock record for one job served by the thread backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadJobRecord {
    /// The job's stream-unique id.
    pub id: u64,
    /// Canonical workload spec string the job was instantiated from.
    pub workload: String,
    /// Submission-to-completion latency.
    pub sojourn: Duration,
    /// Tasks in the job's DAG.
    pub tasks: usize,
    /// Offset from run start when a client thread picked the job up.
    pub t_admit: Duration,
    /// Offset from run start when the pool began executing the job's DAG.
    pub t_dispatch: Duration,
    /// Offset from run start when the job's last task finished.
    pub t_complete: Duration,
}

/// Result of one real-thread stream run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadStreamOutcome {
    /// Spec of the pool flavour that served the stream.
    pub scheduler: SchedulerSpec,
    /// Worker threads.
    pub threads: usize,
    /// Per-job records in completion order.
    pub records: Vec<ThreadJobRecord>,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
}

impl ThreadStreamOutcome {
    /// Sojourn-time quantiles in microseconds.
    pub fn sojourn_micros(&self) -> Quantiles {
        let micros: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.sojourn.as_secs_f64() * 1e6)
            .collect();
        Quantiles::from_values(&micros)
    }

    /// Achieved throughput in jobs per second.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.records.len() as f64 / secs
        }
    }
}

/// Burn roughly `instructions` worth of compute (scaled by `ns_per_kinstr`).
fn burn(instructions: u64, ns_per_kinstr: u64) -> u64 {
    // ~1 wrapping multiply-add per "instruction bundle"; the multiplier keeps
    // the loop honest under optimisation via black_box on the result.
    let iters = (instructions * ns_per_kinstr) / 1_000 / 4 + 1;
    let mut acc = instructions | 1;
    for _ in 0..iters {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    std::hint::black_box(acc)
}

/// Group the DAG's tasks into precedence levels (every task's predecessors are
/// in strictly earlier levels).
fn levels(dag: &TaskDag) -> Vec<Vec<TaskId>> {
    let mut level_of = vec![0usize; dag.len()];
    let mut grouped: Vec<Vec<TaskId>> = Vec::new();
    for task in dag.topological_order() {
        let level = dag
            .predecessors(task)
            .iter()
            .map(|p| level_of[p.index()] + 1)
            .max()
            .unwrap_or(0);
        level_of[task.index()] = level;
        if grouped.len() <= level {
            grouped.resize_with(level + 1, Vec::new);
        }
        grouped[level].push(task);
    }
    grouped
}

/// Execute `tasks` (an independent set) in parallel via recursive joins.
fn run_level<P: ForkJoinPool>(pool: &P, dag: &TaskDag, tasks: &[TaskId], ns_per_kinstr: u64) {
    match tasks {
        [] => {}
        [one] => {
            let node = dag.node(*one);
            burn(
                node.compute_instructions + node.memory_accesses(),
                ns_per_kinstr,
            );
        }
        many => {
            let (left, right) = many.split_at(many.len() / 2);
            pool.join(
                || run_level(pool, dag, left, ns_per_kinstr),
                || run_level(pool, dag, right, ns_per_kinstr),
            );
        }
    }
}

/// Execute one whole DAG job on the pool, level by level.
fn execute_dag<P: ForkJoinPool>(pool: &P, dag: &TaskDag, ns_per_kinstr: u64) {
    for level in levels(dag) {
        run_level(pool, dag, &level, ns_per_kinstr);
    }
}

fn serve<P: ForkJoinPool>(
    pool: &P,
    mix: &JobMix,
    n_jobs: usize,
    cfg: &ThreadStreamConfig,
) -> ThreadStreamOutcome {
    let jobs = mix.generate(n_jobs, cfg.seed);
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<ThreadJobRecord>> = Mutex::new(Vec::with_capacity(n_jobs));
    let start = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..cfg.population.max(1) {
            let next = &next;
            let records = &records;
            let jobs = &jobs;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let job = &jobs[i];
                let submitted = Instant::now();
                let t_admit = submitted.duration_since(start);
                let mut t_dispatch = t_admit;
                pool.install(|| {
                    t_dispatch = start.elapsed();
                    execute_dag(pool, &job.dag, cfg.ns_per_kinstr)
                });
                let record = ThreadJobRecord {
                    id: job.id,
                    workload: job.workload.canonical(),
                    sojourn: submitted.elapsed(),
                    tasks: job.dag.len(),
                    t_admit,
                    t_dispatch,
                    t_complete: start.elapsed(),
                };
                records
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(record);
                if !cfg.think.is_zero() {
                    std::thread::sleep(cfg.think);
                }
            });
        }
    });

    ThreadStreamOutcome {
        scheduler: cfg.scheduler.clone(),
        threads: cfg.threads,
        records: records
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
        wall: start.elapsed(),
    }
}

/// Drive `n_jobs` sampled from `mix` through a real thread pool, closed loop.
pub fn run_stream_threads(
    mix: &JobMix,
    n_jobs: usize,
    cfg: &ThreadStreamConfig,
) -> Result<ThreadStreamOutcome, PoolError> {
    if let Some((key, _)) = cfg.scheduler.params().next() {
        // Running the plain pool but labelling the outcome with a
        // parameterized spec would misattribute the results.
        return Err(PoolError::SpawnFailed {
            message: format!(
                "the thread backend implements only the classic pools; \
                 parameter '{key}' in '{}' is not supported here",
                cfg.scheduler
            ),
        });
    }
    match cfg.scheduler.name() {
        "ws" => {
            let pool = WsPool::new(cfg.threads)?;
            Ok(serve(&pool, mix, n_jobs, cfg))
        }
        "pdf" => {
            let pool = PdfPool::new(cfg.threads)?;
            Ok(serve(&pool, mix, n_jobs, cfg))
        }
        other => Err(PoolError::SpawnFailed {
            message: format!(
                "the thread backend implements only the paper pair (pdf, ws), got '{other}'"
            ),
        }),
    }
}

/// [`run_stream_threads`] with a trace sink: after the run, job-lifecycle
/// [`TraceEvent`](pdfws_trace::TraceEvent)s (`JobAdmit` / `JobDispatch` /
/// `JobComplete`) are
/// synthesized from the per-job wall-clock records and emitted in timestamp
/// order, with nanosecond offsets from run start as the time base.
///
/// Events are synthesized post-run rather than emitted live because the sink
/// trait is single-threaded and the serving loop runs on scoped client
/// threads.  Wall-clock timestamps are host-dependent by nature — thread-tier
/// traces are for inspection, never for golden files.
pub fn run_stream_threads_traced(
    mix: &JobMix,
    n_jobs: usize,
    cfg: &ThreadStreamConfig,
    sink: &mut dyn pdfws_trace::TraceSink,
) -> Result<ThreadStreamOutcome, PoolError> {
    use pdfws_trace::TraceEvent;
    let outcome = run_stream_threads(mix, n_jobs, cfg)?;
    let mut events: Vec<TraceEvent> = Vec::with_capacity(outcome.records.len() * 3);
    for r in &outcome.records {
        events.push(TraceEvent::JobAdmit {
            t: r.t_admit.as_nanos() as u64,
            job: r.id,
        });
        events.push(TraceEvent::JobDispatch {
            t: r.t_dispatch.as_nanos() as u64,
            job: r.id,
        });
        events.push(TraceEvent::JobComplete {
            t: r.t_complete.as_nanos() as u64,
            job: r.id,
        });
    }
    // Stable sort: equal timestamps keep admit -> dispatch -> complete order.
    events.sort_by_key(TraceEvent::time);
    for event in events {
        sink.emit(event);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_task_dag::builder::SpTree;

    #[test]
    fn levels_respect_precedence() {
        let dag = SpTree::Seq(vec![
            SpTree::leaf("a", 10),
            SpTree::Par(vec![SpTree::leaf("b", 10), SpTree::leaf("c", 10)]),
            SpTree::leaf("d", 10),
        ])
        .into_dag()
        .unwrap();
        let ls = levels(&dag);
        let mut level_of = vec![0usize; dag.len()];
        for (i, level) in ls.iter().enumerate() {
            for t in level {
                level_of[t.index()] = i;
            }
        }
        for t in dag.task_ids() {
            for p in dag.predecessors(t) {
                assert!(level_of[p.index()] < level_of[t.index()]);
            }
        }
        assert_eq!(ls.iter().map(Vec::len).sum::<usize>(), dag.len());
    }

    #[test]
    fn both_pools_serve_the_stream() {
        let mix = JobMix::class_b();
        for spec in SchedulerSpec::paper_pair() {
            let mut cfg = ThreadStreamConfig::new(2, spec.clone());
            cfg.ns_per_kinstr = 5; // keep the test fast
            let outcome = run_stream_threads(&mix, 6, &cfg).unwrap();
            assert_eq!(outcome.records.len(), 6, "{spec}");
            assert!(outcome.wall > Duration::ZERO);
            assert!(outcome.jobs_per_sec() > 0.0);
            let q = outcome.sojourn_micros();
            assert_eq!(q.count, 6);
            assert!(q.p99 >= q.p50);
            for r in &outcome.records {
                assert!(r.t_admit <= r.t_dispatch, "{spec}: dispatch before admit");
                assert!(
                    r.t_dispatch <= r.t_complete,
                    "{spec}: complete before dispatch"
                );
                assert!(r.t_complete <= outcome.wall + Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn traced_thread_stream_synthesizes_sorted_job_events() {
        let mix = JobMix::class_b();
        let mut cfg = ThreadStreamConfig::new(2, SchedulerSpec::ws());
        cfg.ns_per_kinstr = 5;
        let mut trace = pdfws_trace::EventTrace::new();
        let outcome = run_stream_threads_traced(&mix, 5, &cfg, &mut trace).unwrap();
        assert_eq!(outcome.records.len(), 5);
        assert_eq!(trace.count("job_admit"), 5);
        assert_eq!(trace.count("job_dispatch"), 5);
        assert_eq!(trace.count("job_complete"), 5);
        let times: Vec<u64> = trace.events().iter().map(|e| e.time()).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "unsorted: {times:?}"
        );
    }

    #[test]
    fn non_pool_policies_are_rejected() {
        let mix = JobMix::class_b();
        for spec in [SchedulerSpec::static_partition(), SchedulerSpec::hybrid(2)] {
            let cfg = ThreadStreamConfig::new(2, spec);
            assert!(run_stream_threads(&mix, 2, &cfg).is_err());
        }
    }

    #[test]
    fn parameterized_pool_specs_are_rejected_not_misattributed() {
        // "ws:steal=half" would run the plain WsPool while claiming to be the
        // half-stealing variant; the backend must refuse instead.
        let mix = JobMix::class_b();
        let cfg = ThreadStreamConfig::new(2, "ws:steal=half".parse().unwrap());
        let err = run_stream_threads(&mix, 2, &cfg).unwrap_err();
        assert!(err.to_string().contains("steal"), "{err}");
    }
}
