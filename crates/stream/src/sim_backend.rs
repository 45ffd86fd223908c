//! The cycle-level stream backend: time-multiplexing one simulated CMP across
//! a stream of DAG jobs.
//!
//! Each admitted job owns a [`SimEngine`] (its DAG, its scheduler policy
//! instance, its cache state).  A supervisor loop grants the engines
//! round-robin quanta of the machine via [`SimEngine::run_for`] and advances a
//! global wall-clock by the cycles each quantum actually consumed — exactly an
//! OS-style gang-scheduled time-share of the CMP.  Cache interference between
//! co-resident jobs is modelled with the engine's [`Disturbance`]
//! (multiprogramming) hook: while `k` jobs share the machine, each job's
//! engine sees a co-runner polluting its shared L2 in proportion to `k - 1`,
//! re-tuned at every admission and completion.
//!
//! Admission is first come, first served: jobs take free slots in arrival
//! order, ties broken by job id.  Everything is deterministic for a fixed
//! seed: job sampling, arrival times, admission order and per-job sojourn
//! times are pure functions of the inputs.
//!
//! Three entry points share one supervisor loop, and each returns a
//! [`StreamOutcome`] holding every job's [`JobRecord`]: [`run_stream_sim`]
//! samples the jobs, [`run_stream_sim_with_jobs`] takes jobs already sampled,
//! and [`run_stream_sim_traced`] also emits job-lifecycle trace events.

use crate::arrival_spec::ArrivalSpec;
use crate::job::StreamJob;
use crate::record::{JobRecord, StreamOutcome};
use crate::source::JobMix;
use pdfws_cmp_model::{default_config, CmpConfig, MemSysParams, ModelError};
use pdfws_schedulers::{
    make_policy, Disturbance, EngineStatus, SchedulerSpec, SimEngine, SimOptions,
};
use pdfws_trace::{TraceEvent, TraceSink};
use std::collections::VecDeque;

/// Cache-interference model: L2 blocks polluted per co-resident rival per
/// disturbance period.
const RIVAL_POLLUTION_BLOCKS: u64 = 64;

/// Configuration of one stream run on the simulated backend.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Cores of the simulated CMP.
    pub cores: usize,
    /// Scheduler spec every job's engine resolves (any registered policy,
    /// with parameters — e.g. `"ws:victim=random,seed=7".parse()`).
    pub scheduler: SchedulerSpec,
    /// Machine quantum granted per scheduling turn, in cycles.  Must be large
    /// relative to [`TIME_SLICE_CYCLES`](pdfws_schedulers::engine::TIME_SLICE_CYCLES).
    pub quantum_cycles: u64,
    /// Maximum number of co-resident (admitted, unfinished) jobs.
    pub max_concurrent: usize,
    /// When jobs enter the system.
    pub arrivals: ArrivalSpec,
    /// Memory-system model override for the simulated machine (`None`: the
    /// default configuration's own model, the component bus+DRAM system).
    /// Parse a `--memsys` string into a `pdfws_memsys::MemSysSpec` and store
    /// its `memsys_params()` here.
    pub memsys: Option<MemSysParams>,
    /// Seed for job sampling.
    pub seed: u64,
    /// Seed for the arrival generator, independent of the job-sampling
    /// `seed`.
    pub arrival_seed: u64,
}

impl StreamConfig {
    /// Sensible defaults: Poisson arrivals at 40 jobs/Mcycle, 4 slots,
    /// 20k-cycle quanta.
    pub fn new(cores: usize, scheduler: SchedulerSpec) -> Self {
        StreamConfig {
            cores,
            scheduler,
            quantum_cycles: 20_000,
            max_concurrent: 4,
            arrivals: ArrivalSpec::poisson(40.0),
            memsys: None,
            seed: 42,
            arrival_seed: 0x57_2EA4,
        }
    }
}

/// One admitted job: its engine plus bookkeeping.
struct ActiveJob {
    id: u64,
    tenant: u32,
    slo_class: String,
    workload: pdfws_workloads::WorkloadSpec,
    class: pdfws_workloads::WorkloadClass,
    arrival_cycle: u64,
    admit_cycle: u64,
    /// Global cycle of the job's first quantum grant (None until it runs).
    dispatch_cycle: Option<u64>,
    engine: SimEngine,
}

/// Drive `n_jobs` sampled from `mix` through the simulated CMP.
///
/// Returns the per-job records, in completion order.
pub fn run_stream_sim(
    mix: &JobMix,
    n_jobs: usize,
    cfg: &StreamConfig,
) -> Result<StreamOutcome, ModelError> {
    // Validate before sampling: a bad config must not cost a stream of DAG
    // builds first.
    validate_stream_cfg(cfg)?;
    stream_sim_impl(mix.generate(n_jobs, cfg.seed), cfg, None)
}

/// Check the config invariants every stream entry point requires.  Public so
/// callers that sample jobs themselves (e.g. `StreamExperiment`) can also
/// validate *before* paying for DAG generation.
///
/// Returns [`ModelError::InvalidSweepParameter`] on a zero quantum or zero
/// job slots.
pub fn validate_stream_cfg(cfg: &StreamConfig) -> Result<(), ModelError> {
    let reject = |reason: &str| {
        Err(ModelError::InvalidSweepParameter {
            reason: reason.into(),
        })
    };
    if cfg.quantum_cycles == 0 {
        return reject("the stream quantum must be positive");
    }
    if cfg.max_concurrent == 0 {
        return reject("a stream needs at least one job slot");
    }
    Ok(())
}

/// [`run_stream_sim`] over already-sampled jobs.
///
/// Callers that replay the *same* stream under several schedulers (the
/// `StreamExperiment` comparison) sample once and pass clones: each job's DAG
/// is behind an `Arc`, so the clone shares every DAG instead of rebuilding
/// the whole stream per scheduler.
pub fn run_stream_sim_with_jobs(
    jobs: Vec<StreamJob>,
    cfg: &StreamConfig,
) -> Result<StreamOutcome, ModelError> {
    validate_stream_cfg(cfg)?;
    stream_sim_impl(jobs, cfg, None)
}

/// [`run_stream_sim`] with a trace sink: the supervisor additionally emits
/// job-lifecycle [`TraceEvent`]s — `JobAdmit` when a job wins a slot,
/// `JobDispatch` at its first quantum grant, `JobComplete` when it finishes,
/// and an `OutstandingJobs` counter tracking co-residency — all stamped with
/// the stream's global cycle clock.
///
/// Tracing never perturbs the run: the returned [`StreamOutcome`] is
/// bit-identical to [`run_stream_sim`] on the same inputs.
pub fn run_stream_sim_traced(
    mix: &JobMix,
    n_jobs: usize,
    cfg: &StreamConfig,
    sink: &mut dyn TraceSink,
) -> Result<StreamOutcome, ModelError> {
    validate_stream_cfg(cfg)?;
    stream_sim_impl(mix.generate(n_jobs, cfg.seed), cfg, Some(sink))
}

/// The supervisor loop shared by every entry point, each of which has
/// validated `cfg`: it records each job's completion in the
/// [`StreamOutcome`] it returns.
fn stream_sim_impl(
    mut jobs: Vec<StreamJob>,
    cfg: &StreamConfig,
    mut sink: Option<&mut dyn TraceSink>,
) -> Result<StreamOutcome, ModelError> {
    let mut machine: CmpConfig = default_config(cfg.cores)?;
    if let Some(memsys) = cfg.memsys {
        machine.memsys = memsys;
        machine.validate()?;
    }

    let n_jobs = jobs.len();
    let mut arrivals = cfg.arrivals.generator(cfg.arrival_seed);
    for job in jobs.iter_mut() {
        job.arrival_cycle = arrivals.next_arrival();
    }
    // FIFO admission: the queue is filled in arrival order, ties by id, and
    // drained from the front.
    jobs.sort_by_key(|job| (job.arrival_cycle, job.id));
    let mut arriving = jobs.into_iter().peekable();
    let mut queue: VecDeque<StreamJob> = VecDeque::new();

    let mut active: Vec<ActiveJob> = Vec::new();
    let mut outcome = StreamOutcome {
        scheduler: cfg.scheduler.clone(),
        cores: cfg.cores,
        records: Vec::new(),
        peak_concurrency: 0,
        makespan_cycles: 0,
    };
    let mut last_outstanding: Option<u64> = None;
    let mut now: u64 = 0;
    let mut turn = 0usize;

    while outcome.records.len() < n_jobs {
        // 1. Move every job that has arrived by `now` into the admission queue.
        while let Some(job) = arriving.next_if(|job| job.arrival_cycle <= now) {
            queue.push_back(job);
        }

        // 2. Fill free slots from the head of the queue.
        while active.len() < cfg.max_concurrent {
            let Some(job) = queue.pop_front() else { break };
            let StreamJob {
                id,
                tenant,
                slo_class,
                workload,
                class,
                dag,
                arrival_cycle,
            } = job;
            let engine = SimEngine::with_shared_dag(
                dag,
                &machine,
                make_policy(&cfg.scheduler, machine.cores),
                SimOptions::default(),
            );
            if let Some(s) = sink.as_deref_mut() {
                s.emit(TraceEvent::JobAdmit { t: now, job: id });
            }
            active.push(ActiveJob {
                id,
                tenant,
                slo_class,
                workload,
                class,
                arrival_cycle,
                admit_cycle: now,
                dispatch_cycle: None,
                engine,
            });
        }
        outcome.peak_concurrency = outcome.peak_concurrency.max(active.len());
        if let Some(s) = sink.as_deref_mut() {
            let jobs_now = active.len() as u64;
            if last_outstanding != Some(jobs_now) {
                last_outstanding = Some(jobs_now);
                s.emit(TraceEvent::OutstandingJobs {
                    t: now,
                    jobs: jobs_now,
                });
            }
        }

        // 3. Nothing runnable: jump the clock to the next arrival.
        if active.is_empty() {
            let next = arriving.peek().expect(
                "with free slots and an empty queue, an unfinished stream has arrivals left",
            );
            now = now.max(next.arrival_cycle);
            continue;
        }

        // 4. Grant the next job its quantum, with the co-residency disturbance
        // sized for the *other* jobs currently sharing the machine.
        turn = turn.checked_rem(active.len()).unwrap_or(0);
        let rivals = active.len() - 1;
        let slot = &mut active[turn];
        let disturbance = if rivals > 0 {
            let blocks = RIVAL_POLLUTION_BLOCKS * rivals as u64;
            Some(Disturbance {
                period_cycles: (cfg.quantum_cycles / 4).max(1),
                blocks_per_burst: blocks,
                region_base_block: 1 << 32, // far above any workload's data
                region_blocks: (blocks * 4).max(1),
            })
        } else {
            None
        };
        slot.engine
            .set_disturbance(disturbance)
            .expect("a co-residency disturbance has a positive period and region");
        if slot.dispatch_cycle.is_none() {
            slot.dispatch_cycle = Some(now);
            if let Some(s) = sink.as_deref_mut() {
                let job = slot.id;
                s.emit(TraceEvent::JobDispatch { t: now, job });
            }
        }
        let before = slot.engine.now();
        let status = slot.engine.run_for(cfg.quantum_cycles);
        let consumed = slot.engine.now() - before;
        // The machine was granted to this job for `consumed` cycles of
        // wall-clock (time sharing: nobody else ran meanwhile).
        now += consumed.max(1);

        if status == EngineStatus::Done {
            let done = active.swap_remove(turn);
            let metrics = done.engine.result().expect("a Done engine has a result");
            if let Some(s) = sink.as_deref_mut() {
                s.emit(TraceEvent::JobComplete {
                    t: now,
                    job: done.id,
                });
                let jobs_now = active.len() as u64;
                last_outstanding = Some(jobs_now);
                s.emit(TraceEvent::OutstandingJobs {
                    t: now,
                    jobs: jobs_now,
                });
            }
            outcome.records.push(JobRecord {
                id: done.id,
                tenant: done.tenant,
                slo_class: done.slo_class,
                workload: done.workload,
                class: done.class,
                scheduler: cfg.scheduler.clone(),
                arrival_cycle: done.arrival_cycle,
                admit_cycle: done.admit_cycle,
                dispatch_cycle: done
                    .dispatch_cycle
                    .expect("a completed job was dispatched at least once"),
                completion_cycle: now,
                queue_cycles: done.admit_cycle - done.arrival_cycle,
                sojourn_cycles: now - done.arrival_cycle,
                service_cycles: metrics.cycles,
                instructions: metrics.instructions,
                l2_mpki: metrics.l2_mpki(),
            });
            // swap_remove moved the tail job into `turn`; do not advance, so
            // the moved job is not skipped this round.
        } else {
            turn += 1;
        }
    }

    outcome.makespan_cycles = now;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(scheduler: SchedulerSpec) -> StreamConfig {
        let mut cfg = StreamConfig::new(4, scheduler);
        cfg.quantum_cycles = 5_000;
        cfg.arrivals = ArrivalSpec::poisson(200.0);
        cfg.arrival_seed = 7;
        cfg
    }

    #[test]
    fn all_jobs_complete_and_are_recorded_once() {
        let mix = JobMix::class_b();
        let outcome = run_stream_sim(&mix, 10, &quick_cfg(SchedulerSpec::pdf())).unwrap();
        assert_eq!(outcome.records.len(), 10);
        let mut ids: Vec<u64> = outcome.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        for r in &outcome.records {
            assert!(r.admit_cycle >= r.arrival_cycle);
            assert!(r.completion_cycle > r.admit_cycle);
            assert_eq!(r.sojourn_cycles, r.completion_cycle - r.arrival_cycle);
            assert!(r.service_cycles > 0);
            assert!(r.instructions > 0);
        }
        assert!(outcome.peak_concurrency >= 1);
        assert!(outcome.peak_concurrency <= 4);
        assert!(
            outcome.makespan_cycles
                >= outcome
                    .records
                    .iter()
                    .map(|r| r.completion_cycle)
                    .max()
                    .unwrap()
        );
    }

    #[test]
    fn traced_stream_matches_untraced_and_captures_job_lifecycles() {
        let mix = JobMix::class_b();
        let cfg = quick_cfg(SchedulerSpec::pdf());
        let plain = run_stream_sim(&mix, 8, &cfg).unwrap();
        let mut trace = pdfws_trace::EventTrace::new();
        let traced = run_stream_sim_traced(&mix, 8, &cfg, &mut trace).unwrap();
        assert_eq!(plain, traced, "tracing changed the stream outcome");
        assert_eq!(trace.count("job_admit"), 8);
        assert_eq!(trace.count("job_dispatch"), 8);
        assert_eq!(trace.count("job_complete"), 8);
        assert!(trace.count("outstanding_jobs") > 0);
        for r in &traced.records {
            assert!(r.dispatch_cycle >= r.admit_cycle);
            assert!(r.dispatch_cycle < r.completion_cycle);
        }
    }

    #[test]
    fn identical_seeds_reproduce_the_stream_exactly() {
        let mix = JobMix::class_a();
        let cfg = quick_cfg(SchedulerSpec::ws());
        let a = run_stream_sim(&mix, 8, &cfg).unwrap();
        let b = run_stream_sim(&mix, 8, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_flood_on_one_slot_is_admitted_in_id_order() {
        let mix = JobMix::class_b();
        let mut cfg = quick_cfg(SchedulerSpec::pdf());
        cfg.arrivals = ArrivalSpec::uniform(1);
        cfg.max_concurrent = 1;
        let outcome = run_stream_sim(&mix, 8, &cfg).unwrap();
        // One slot: completion order is admission order.
        let ids: Vec<u64> = outcome.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert!(outcome
            .records
            .windows(2)
            .all(|w| w[0].admit_cycle <= w[1].admit_cycle));
        assert!(outcome.records.iter().any(|r| r.queue_cycles > 0));
    }

    #[test]
    fn higher_offered_load_increases_sojourn_times() {
        let mix = JobMix::class_b();
        let mut slow = quick_cfg(SchedulerSpec::pdf());
        slow.arrivals = ArrivalSpec::poisson(5.0);
        slow.arrival_seed = 11;
        let mut fast = slow.clone();
        fast.arrivals = ArrivalSpec::poisson(500.0);
        let relaxed = run_stream_sim(&mix, 10, &slow).unwrap().summary();
        let loaded = run_stream_sim(&mix, 10, &fast).unwrap().summary();
        assert!(
            loaded.sojourn.p95 > relaxed.sojourn.p95,
            "overload should raise p95: {} vs {}",
            loaded.sojourn.p95,
            relaxed.sojourn.p95
        );
    }

    #[test]
    fn zero_quanta_and_zero_slots_are_typed_errors() {
        let mix = JobMix::class_b();
        let mut cfg = quick_cfg(SchedulerSpec::pdf());
        cfg.quantum_cycles = 0;
        let err = run_stream_sim(&mix, 3, &cfg).unwrap_err();
        assert!(
            matches!(&err, ModelError::InvalidSweepParameter { reason } if reason.contains("quantum")),
            "{err}"
        );
        let mut cfg = quick_cfg(SchedulerSpec::pdf());
        cfg.max_concurrent = 0;
        let err = run_stream_sim_with_jobs(mix.generate(3, cfg.seed), &cfg).unwrap_err();
        assert!(
            matches!(&err, ModelError::InvalidSweepParameter { reason } if reason.contains("job slot")),
            "{err}"
        );
    }
}
