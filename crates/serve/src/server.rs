//! The serving loop: calibrated processor-sharing over streaming arrivals.
//!
//! Driving every job of a 10⁶–10⁷-job day through the cycle-level engine
//! would take hours; the serving tier instead splits the work in two:
//!
//! 1. **Calibration** — every (tenant, mix template, size multiplier) job
//!    shape is run *once* through the real [`SimEngine`] at every core level
//!    the autoscaler may select, honouring the configured scheduler, cache
//!    mode, and memory system.  The measured completion cycles become the
//!    job shape's service requirement at that level.
//! 2. **Serving** — a fluid *generalized processor sharing* (GPS) event
//!    loop replays the arrival stream against those calibrated service
//!    times.  The machine's capacity is split across the tenants that have
//!    active jobs in proportion to their weights, and within a tenant the
//!    slice goes wholly to the *oldest* active job (FIFO).  Weighted
//!    sharing is what makes tenants *isolated*: a flood of loose-SLO batch
//!    work cannot dilute an interactive tenant below its guaranteed share.
//!    FIFO within the tenant is what makes sojourns *predictable*: a job's
//!    finish time is bounded by draining the tenant work ahead of it at the
//!    guaranteed rate, which is exactly the quantity the admission
//!    estimator computes — so its raw prediction is a genuine upper bound.
//!    A level change rescales every in-flight job's remaining work by the
//!    ratio of its calibrated service times.  Between-job cache
//!    interference beyond what calibration captured is deliberately out of
//!    scope at this tier — the exact per-quantum model stays available in
//!    `pdfws-stream`.
//!
//! Around that core sit the serving-tier policies: per-tenant
//! deficit-round-robin dispatch, a tail-corrected admission estimator that
//! sheds jobs predicted to violate their tenant's p99 sojourn target
//! (predictions are denominated in the tenant's own backlog over its
//! *guaranteed* GPS share, corrected by a streaming p99 of each tenant's
//! realised prediction error), and a hysteresis [`Autoscaler`] stepping
//! through core levels.  All
//! per-job statistics fold into constant-size [`StreamingQuantiles`], so
//! memory use is independent of the job count.

use crate::autoscale::{AutoscalePolicy, Autoscaler};
use crate::tenant::TenantSpec;
use pdfws_cmp_model::{default_config, CmpConfig, MemSysParams, ModelError};
use pdfws_metrics::{P2Quantile, Quantiles, Series, StreamingQuantiles, Table};
use pdfws_schedulers::{make_policy, SchedulerSpec, SimEngine, SimOptions};
use pdfws_stream::ArrivalSpec;
use pdfws_trace::{TraceEvent, TraceSink};
use pdfws_workloads::{WorkloadRegistry, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Size multipliers the job sampler draws from (matching
/// [`JobMix::generate`]'s `1..=4` scaling).
const SCALES: u64 = 4;

/// Sub-cycle slack when deciding a fluid job has finished.
const REMAINING_EPS: f64 = 1e-3;

/// Most scale decisions kept verbatim in the report (the count is always
/// exact; the log is capped so sustained runs stay constant-memory).
const SCALE_LOG_CAP: usize = 32;

/// Configuration of one serving run.  Mirrors `StreamConfig`'s plain-struct
/// style: construct with [`ServeConfig::new`], then set fields directly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cores of the machine at full capacity (the autoscaler's top rung).
    pub cores: usize,
    /// Scheduler calibration runs under (any registered spec).
    pub scheduler: SchedulerSpec,
    /// The arrival process; must be open loop.
    pub arrivals: ArrivalSpec,
    /// The tenants sharing the tier (offered traffic splits evenly across
    /// tenants; `weight` governs *dispatch* share, not arrival share).
    pub tenants: Vec<TenantSpec>,
    /// Jobs to offer before draining and reporting.
    pub jobs: usize,
    /// Whether the SLO-aware shedder is active; when off, every arrival is
    /// queued no matter how far behind the tier is (the overload baseline).
    pub shedding: bool,
    /// Shed when the predicted sojourn exceeds `target * slo_headroom`; 1.0
    /// sheds exactly at the target, lower values shed earlier.
    pub slo_headroom: f64,
    /// The core-autoscaling policy; `None` pins the tier at `cores`.
    pub autoscale: Option<AutoscalePolicy>,
    /// Most jobs sharing the machine at once (the processor-sharing
    /// multiprogramming level; the fluid analogue of `max_concurrent`).
    pub max_active: usize,
    /// Deficit-round-robin quantum in estimated-service cycles credited per
    /// tenant weight per dispatch round.
    pub drr_quantum_cycles: u64,
    /// Engine options for calibration runs (the cache-mode axis applies
    /// here).
    pub sim_options: SimOptions,
    /// Memory-system override for calibration machines.
    pub memsys: Option<MemSysParams>,
    /// Seed for arrival generation and job sampling.
    pub seed: u64,
}

impl ServeConfig {
    /// Defaults: Poisson 40 jobs/Mcycle over the
    /// [`TenantSpec::default_pair`], 4096 offered jobs, shedding on at
    /// headroom 1.0, autoscaling over [`AutoscalePolicy::for_cores`],
    /// multiprogramming level `2 * cores`, 50k-cycle DRR quantum, seed 42.
    pub fn new(cores: usize, scheduler: SchedulerSpec) -> Self {
        ServeConfig {
            cores,
            scheduler,
            arrivals: ArrivalSpec::poisson(40.0),
            tenants: TenantSpec::default_pair(),
            jobs: 4096,
            shedding: true,
            slo_headroom: 1.0,
            autoscale: Some(AutoscalePolicy::for_cores(cores)),
            max_active: 2 * cores.max(1),
            drr_quantum_cycles: 50_000,
            sim_options: SimOptions::default(),
            memsys: None,
            seed: 42,
        }
    }
}

/// Assert the config invariants the serving loop requires.
///
/// # Panics
///
/// Panics on closed-loop arrivals, an empty tenant list, zero jobs or slots,
/// a non-positive headroom, a zero DRR quantum, or an autoscale ladder whose
/// top rung is not `cores`.
pub fn validate_serve_cfg(cfg: &ServeConfig) {
    assert!(
        cfg.arrivals.is_open_loop(),
        "the serving tier needs an open-loop arrival spec, got '{}'",
        cfg.arrivals
    );
    assert!(!cfg.tenants.is_empty(), "need at least one tenant");
    assert!(cfg.jobs > 0, "need at least one offered job");
    assert!(cfg.max_active > 0, "need at least one serving slot");
    assert!(
        cfg.slo_headroom > 0.0,
        "slo_headroom must be positive, got {}",
        cfg.slo_headroom
    );
    assert!(cfg.drr_quantum_cycles > 0, "DRR quantum must be positive");
    if let Some(policy) = &cfg.autoscale {
        policy.validate();
        assert_eq!(
            *policy.levels.last().expect("validated ladder is non-empty"),
            cfg.cores,
            "the autoscale ladder's top rung must be the machine's cores"
        );
    }
}

/// One tenant's calibrated templates: the parsed mix entries plus the
/// measured alone-run service cycles per (entry, scale, level).
struct TenantTables {
    entries: Vec<(WorkloadSpec, u32)>,
    entry_weight_total: u64,
    /// `service[entry][scale - 1][level_idx]` — alone-run cycles.
    service: Vec<Vec<Vec<u64>>>,
}

/// Calibrated machine: core levels plus per-tenant service tables.
struct Calibration {
    levels: Vec<usize>,
    tenants: Vec<TenantTables>,
}

impl Calibration {
    fn level_idx(&self, cores: usize) -> usize {
        self.levels
            .iter()
            .position(|&c| c == cores)
            .expect("autoscaler only selects calibrated levels")
    }

    fn service(&self, tenant: usize, entry: usize, scale: u64, level_idx: usize) -> u64 {
        self.tenants[tenant].service[entry][(scale - 1) as usize][level_idx]
    }
}

/// Run every job shape once per core level through the real engine.
fn calibrate(cfg: &ServeConfig, levels: &[usize]) -> Result<Calibration, ModelError> {
    let mut machines: Vec<CmpConfig> = Vec::with_capacity(levels.len());
    for &cores in levels {
        let mut machine = default_config(cores)?;
        if let Some(memsys) = cfg.memsys {
            machine.memsys = memsys;
            machine.validate()?;
        }
        machines.push(machine);
    }
    let mut tenants = Vec::with_capacity(cfg.tenants.len());
    for (t, tenant) in cfg.tenants.iter().enumerate() {
        let mix = tenant.mix();
        let entries: Vec<(WorkloadSpec, u32)> =
            mix.entries().map(|(s, w)| (s.clone(), w)).collect();
        let entry_weight_total = entries.iter().map(|&(_, w)| w as u64).sum();
        let mut service = Vec::with_capacity(entries.len());
        for (e, (spec, _)) in entries.iter().enumerate() {
            let factory = WorkloadRegistry::global()
                .factory(spec.name())
                .unwrap_or_else(|| panic!("workload '{}' is not in the registry", spec.name()));
            let mut per_scale = Vec::with_capacity(SCALES as usize);
            for scale in 1..=SCALES {
                // One fixed DAG per job shape: deterministic, and the same
                // shape every arrival of this (tenant, entry, scale) reuses.
                let calib_seed =
                    cfg.seed ^ 0xCA11_B8A7 ^ ((t as u64) << 32 | (e as u64) << 16 | scale);
                let shaped = factory.reseed(&factory.scale(spec, scale), calib_seed);
                let dag = std::sync::Arc::new(shaped.build().build_dag());
                let mut per_level = Vec::with_capacity(levels.len());
                for machine in &machines {
                    let mut engine = SimEngine::with_shared_dag(
                        dag.clone(),
                        machine,
                        make_policy(&cfg.scheduler, machine.cores),
                        cfg.sim_options.clone(),
                    );
                    per_level.push(engine.run().cycles.max(1));
                }
                per_scale.push(per_level);
            }
            service.push(per_scale);
        }
        tenants.push(TenantTables {
            entries,
            entry_weight_total,
            service,
        });
    }
    Ok(Calibration {
        levels: levels.to_vec(),
        tenants,
    })
}

/// A job waiting in its tenant's dispatch queue.
struct QueuedJob {
    id: u64,
    entry: usize,
    scale: u64,
    arrival: f64,
    /// Raw (uncorrected) sojourn prediction made at arrival, for the EWMA.
    raw_prediction: f64,
}

/// A job currently sharing the machine.
struct ActiveJob {
    id: u64,
    tenant: usize,
    entry: usize,
    scale: u64,
    arrival: f64,
    /// Alone-run cycles still owed at the current core level.
    remaining: f64,
    raw_prediction: f64,
}

/// Constant-size per-tenant accumulator.
#[derive(Default)]
struct TenantStats {
    offered: u64,
    shed: u64,
    completed: u64,
    slo_met: u64,
    sojourn: StreamingQuantiles,
}

/// Drive one serving run (see the module docs for the model).
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeReport, ModelError> {
    serve_impl(cfg, None)
}

/// [`run_serve`] with a trace sink: emits `JobAdmit` / `JobComplete` /
/// `JobShed` job-lifecycle events plus the `OutstandingJobs` and
/// `ActiveCores` counter tracks.  Tracing never perturbs the run.
pub fn run_serve_traced(
    cfg: &ServeConfig,
    sink: &mut dyn TraceSink,
) -> Result<ServeReport, ModelError> {
    serve_impl(cfg, Some(sink))
}

fn serve_impl(
    cfg: &ServeConfig,
    mut sink: Option<&mut dyn TraceSink>,
) -> Result<ServeReport, ModelError> {
    validate_serve_cfg(cfg);
    let levels: Vec<usize> = cfg
        .autoscale
        .as_ref()
        .map(|p| p.levels.clone())
        .unwrap_or_else(|| vec![cfg.cores]);
    let calib = calibrate(cfg, &levels)?;
    let mut scaler = cfg.autoscale.clone().map(Autoscaler::new);

    let n_tenants = cfg.tenants.len();
    let mut gen = cfg
        .arrivals
        .generator(cfg.seed)
        .expect("validated open-loop spec");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5E2E_7E4A);

    let mut queues: Vec<VecDeque<QueuedJob>> = (0..n_tenants).map(|_| VecDeque::new()).collect();
    let mut deficits: Vec<f64> = vec![0.0; n_tenants];
    let mut drr_cursor = 0usize;
    let mut active: Vec<ActiveJob> = Vec::new();
    let mut stats: Vec<TenantStats> = (0..n_tenants).map(|_| TenantStats::default()).collect();

    // GPS shares: tenant `t` is guaranteed `weights[t] / w_all` of the
    // machine whenever it has active jobs (more when other tenants idle).
    let weights: Vec<f64> = cfg.tenants.iter().map(|t| t.weight() as f64).collect();
    let w_all: f64 = weights.iter().sum();
    let mut n_active: Vec<usize> = vec![0; n_tenants];
    // Serving slots are partitioned by weight too (min 1 each).  Shared
    // slots would let slow-draining batch jobs occupy every slot and make an
    // interactive job's *activation* wait depend on other tenants — the one
    // delay the GPS guarantee cannot bound, and therefore the admission
    // estimator could not predict.
    let quotas: Vec<usize> = weights
        .iter()
        .map(|w| ((cfg.max_active as f64 * w / w_all).floor() as usize).max(1))
        .collect();

    let mut level_idx = calib.level_idx(scaler.as_ref().map_or(cfg.cores, Autoscaler::cores));
    let mut now = 0.0f64;
    let mut offered = 0usize;
    let mut resolved = 0usize; // completed + shed
    let mut queued_total = 0usize;
    // Estimated service cycles waiting in each tenant's queue.
    let mut queued_backlog: Vec<f64> = vec![0.0; n_tenants];
    let mut next_arrival = gen.next_arrival() as f64;
    // The admission estimator's learned correction, per tenant: a streaming
    // P² tail quantile of the realised `sojourn / raw_prediction` ratio.
    // With FIFO service inside each tenant the raw prediction is already an
    // upper bound at a fixed core level, so the correction usually sits at
    // its 1.0 floor; it exists to absorb what the bound does not cover —
    // autoscale re-denomination of in-flight work mid-sojourn.  The SLO is
    // a p99, so the tracker follows the *tail* of the error, not its mean:
    // an average-tracking correction admits borderline jobs whose worst
    // few percent still miss.  The 1.0 floor means a stretch of idle
    // competitors can never teach the estimator to predict better than the
    // guaranteed share.
    let mut error_tail: Vec<P2Quantile> = (0..n_tenants).map(|_| P2Quantile::new(0.99)).collect();
    let correction = |tracker: &P2Quantile| tracker.estimate().max(1.0);
    let mut peak_active = 0usize;
    let mut last_outstanding: Option<u64> = None;
    let mut core_cycles = 0.0f64; // ∫ cores dt
    let mut last_core_t = 0.0f64;
    let mut scale_events = 0u64;
    let mut scale_log: Vec<(u64, usize)> = Vec::new();

    if let Some(s) = sink.as_deref_mut() {
        s.emit(TraceEvent::ActiveCores {
            t: 0,
            cores: calib.levels[level_idx] as u64,
        });
    }

    macro_rules! outstanding {
        ($s:expr, $t:expr) => {
            let jobs_now = active.len() as u64;
            if last_outstanding != Some(jobs_now) {
                last_outstanding = Some(jobs_now);
                $s.emit(TraceEvent::OutstandingJobs {
                    t: $t as u64,
                    jobs: jobs_now,
                });
            }
        };
    }

    while resolved < cfg.jobs {
        // 1. Deficit-round-robin dispatch into free slots (each tenant
        // bounded by its slot quota).  Deficits grow by quantum * weight per
        // visited round, so a head job larger than one quantum still
        // dispatches after enough rounds — large jobs are delayed
        // proportionally to their size, never starved.
        n_active.iter_mut().for_each(|n| *n = 0);
        for job in &active {
            n_active[job.tenant] += 1;
        }
        loop {
            let dispatchable = |t: usize| !queues[t].is_empty() && n_active[t] < quotas[t];
            if !(0..n_tenants).any(dispatchable) {
                break;
            }
            for _ in 0..n_tenants {
                let t = drr_cursor;
                drr_cursor = (drr_cursor + 1) % n_tenants;
                if queues[t].is_empty() {
                    // An idle tenant banks no credit (classic DRR).
                    deficits[t] = 0.0;
                    continue;
                }
                if n_active[t] >= quotas[t] {
                    continue;
                }
                deficits[t] += cfg.drr_quantum_cycles as f64 * cfg.tenants[t].weight() as f64;
                while n_active[t] < quotas[t] {
                    let Some(head) = queues[t].front() else { break };
                    let est = calib.service(t, head.entry, head.scale, level_idx) as f64;
                    if est > deficits[t] {
                        break;
                    }
                    deficits[t] -= est;
                    let job = queues[t].pop_front().expect("head exists");
                    queued_total -= 1;
                    queued_backlog[t] = (queued_backlog[t] - est).max(0.0);
                    if let Some(s) = sink.as_deref_mut() {
                        s.emit(TraceEvent::JobAdmit {
                            t: now as u64,
                            job: job.id,
                        });
                    }
                    active.push(ActiveJob {
                        id: job.id,
                        tenant: t,
                        entry: job.entry,
                        scale: job.scale,
                        arrival: job.arrival,
                        remaining: est,
                        raw_prediction: job.raw_prediction,
                    });
                    n_active[t] += 1;
                }
            }
            // Un-dispatchable heads only grow their deficits; loop again.
        }
        peak_active = peak_active.max(active.len());
        if let Some(s) = sink.as_deref_mut() {
            outstanding!(s, now);
        }

        // 2. Pick the next event: completion, autoscale tick, or arrival.
        // GPS rates hold constant between events: busy tenants split the
        // machine by weight, and within a tenant the whole slice serves its
        // oldest active job (FIFO, by admission order = job id), so tenant
        // `t`'s head progresses at `weights[t] / w_busy` alone-cycles per
        // cycle and every other active job of `t` waits.
        let k = active.len();
        n_active.iter_mut().for_each(|n| *n = 0);
        let mut head: Vec<Option<usize>> = vec![None; n_tenants];
        for (i, job) in active.iter().enumerate() {
            n_active[job.tenant] += 1;
            match head[job.tenant] {
                Some(h) if active[h].id <= job.id => {}
                _ => head[job.tenant] = Some(i),
            }
        }
        let w_busy: f64 = (0..n_tenants)
            .filter(|&t| n_active[t] > 0)
            .map(|t| weights[t])
            .sum();
        let t_complete = if k > 0 {
            let horizon = head
                .iter()
                .enumerate()
                .filter_map(|(t, h)| {
                    h.map(|h| active[h].remaining.max(0.0) * (w_busy / weights[t]))
                })
                .fold(f64::INFINITY, f64::min);
            now + horizon
        } else {
            f64::INFINITY
        };
        let t_tick = scaler
            .as_ref()
            .map_or(f64::INFINITY, |s| (s.next_eval() as f64).max(now));
        let t_arrival = if offered < cfg.jobs {
            next_arrival.max(now)
        } else {
            f64::INFINITY
        };
        let t_event = t_complete.min(t_tick).min(t_arrival);
        assert!(
            t_event.is_finite(),
            "serving loop stalled: {resolved} of {} jobs resolved, {} active, {} queued",
            cfg.jobs,
            k,
            queued_total
        );

        // 3. Advance the fluid shares to the event time.
        if k > 0 && t_event > now {
            let dt = t_event - now;
            for (t, h) in head.iter().enumerate() {
                if let Some(h) = *h {
                    active[h].remaining -= dt * (weights[t] / w_busy);
                }
            }
        }
        core_cycles += (t_event - last_core_t) * calib.levels[level_idx] as f64;
        last_core_t = t_event;
        now = t_event;

        // 4a. Completions.
        if t_event == t_complete {
            let mut i = 0;
            while i < active.len() {
                if active[i].remaining > REMAINING_EPS {
                    i += 1;
                    continue;
                }
                let done = active.swap_remove(i);
                let sojourn = (now - done.arrival).max(0.0);
                let st = &mut stats[done.tenant];
                st.completed += 1;
                st.sojourn.observe(sojourn);
                if sojourn <= cfg.tenants[done.tenant].p99_target_cycles() as f64 {
                    st.slo_met += 1;
                }
                // Fold the realised sojourn into the tenant's estimator.
                if done.raw_prediction > 0.0 {
                    let ratio = (sojourn / done.raw_prediction).clamp(0.1, 20.0);
                    error_tail[done.tenant].observe(ratio);
                }
                resolved += 1;
                if let Some(s) = sink.as_deref_mut() {
                    s.emit(TraceEvent::JobComplete {
                        t: now as u64,
                        job: done.id,
                    });
                    outstanding!(s, now);
                }
            }
        }

        // 4b. Autoscale tick.
        if let Some(scaler) = scaler.as_mut() {
            if t_event == t_tick {
                if let Some(new_cores) = scaler.observe(now as u64, active.len() + queued_total) {
                    let new_idx = calib.level_idx(new_cores);
                    // Rescale in-flight work: keep each job's completed
                    // *fraction*, re-denominated in the new level's service.
                    for job in &mut active {
                        let old = calib.service(job.tenant, job.entry, job.scale, level_idx) as f64;
                        let new = calib.service(job.tenant, job.entry, job.scale, new_idx) as f64;
                        job.remaining = (job.remaining / old).max(0.0) * new;
                    }
                    level_idx = new_idx;
                    // Queued estimates change denomination too.
                    for (t, queue) in queues.iter().enumerate() {
                        queued_backlog[t] = queue
                            .iter()
                            .map(|j| calib.service(t, j.entry, j.scale, level_idx) as f64)
                            .sum();
                    }
                    scale_events += 1;
                    if scale_log.len() < SCALE_LOG_CAP {
                        scale_log.push((now as u64, new_cores));
                    }
                    if let Some(s) = sink.as_deref_mut() {
                        s.emit(TraceEvent::ActiveCores {
                            t: now as u64,
                            cores: new_cores as u64,
                        });
                    }
                }
            }
        }

        // 4c. Arrival: sample the job shape, then admit or shed.
        if t_event == t_arrival && offered < cfg.jobs {
            let id = offered as u64;
            offered += 1;
            next_arrival = (gen.next_arrival() as f64).max(next_arrival);
            // Offered traffic splits evenly across tenants; the tenant's mix
            // weights pick the template, and sizes scale 1..=4 uniformly
            // (matching JobMix::generate's heterogeneity).
            let tenant = rng.gen_range(0..n_tenants as u64) as usize;
            let tables = &calib.tenants[tenant];
            let mut pick = rng.gen_range(0..tables.entry_weight_total);
            let mut entry = 0usize;
            for (i, &(_, w)) in tables.entries.iter().enumerate() {
                if pick < w as u64 {
                    entry = i;
                    break;
                }
                pick -= w as u64;
            }
            let scale = rng.gen_range(1u64..=SCALES);
            stats[tenant].offered += 1;

            let est = calib.service(tenant, entry, scale, level_idx) as f64;
            // Predicted sojourn, denominated per tenant: GPS guarantees the
            // tenant at least `weights/w_all` of the machine while it is
            // busy, so its own in-flight plus queued backlog (plus this job)
            // drains in at most that many cycles — other tenants' traffic
            // cannot stretch it, which is what makes the bound usable.  The
            // per-tenant EWMA folds realised error back in: under-use of the
            // guarantee (other tenants idle) pulls it below 1, same-tenant
            // queueing behind this job pushes it above.
            let tenant_active: f64 = active
                .iter()
                .filter(|j| j.tenant == tenant)
                .map(|j| j.remaining.max(0.0))
                .sum();
            let raw_prediction =
                (tenant_active + queued_backlog[tenant] + est) * (w_all / weights[tenant]);
            let predicted = raw_prediction * correction(&error_tail[tenant]);
            let target = cfg.tenants[tenant].p99_target_cycles() as f64;
            if cfg.shedding && predicted > target * cfg.slo_headroom {
                stats[tenant].shed += 1;
                resolved += 1;
                if let Some(s) = sink.as_deref_mut() {
                    s.emit(TraceEvent::JobShed {
                        t: now as u64,
                        job: id,
                    });
                }
            } else {
                queues[tenant].push_back(QueuedJob {
                    id,
                    entry,
                    scale,
                    arrival: now,
                    raw_prediction,
                });
                queued_total += 1;
                queued_backlog[tenant] += est;
            }
        }
    }

    let makespan_cycles = now as u64;
    let tenants = cfg
        .tenants
        .iter()
        .zip(&stats)
        .map(|(spec, st)| {
            let admitted = st.offered - st.shed;
            TenantReport {
                name: spec.name().to_string(),
                slo_class: spec.slo_class().to_string(),
                p99_target_cycles: spec.p99_target_cycles(),
                offered: st.offered,
                admitted,
                shed: st.shed,
                completed: st.completed,
                shed_rate: if st.offered == 0 {
                    0.0
                } else {
                    st.shed as f64 / st.offered as f64
                },
                slo_attainment: if st.completed == 0 {
                    0.0
                } else {
                    st.slo_met as f64 / st.completed as f64
                },
                sojourn: st.sojourn.quantiles(),
                goodput_jobs_per_mcycle: if makespan_cycles == 0 {
                    0.0
                } else {
                    st.slo_met as f64 * 1.0e6 / makespan_cycles as f64
                },
            }
        })
        .collect();
    Ok(ServeReport {
        scheduler: cfg.scheduler.clone(),
        arrivals: cfg.arrivals.canonical(),
        shedding: cfg.shedding,
        offered: offered as u64,
        completed: stats.iter().map(|s| s.completed).sum(),
        shed: stats.iter().map(|s| s.shed).sum(),
        makespan_cycles,
        peak_active,
        mean_active_cores: if makespan_cycles == 0 {
            calib.levels[level_idx] as f64
        } else {
            core_cycles / now
        },
        final_cores: calib.levels[level_idx],
        scale_events,
        scale_log,
        tenants,
    })
}

/// One tenant's share of a [`ServeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// SLO class label (`"latency"` / `"batch"`).
    pub slo_class: String,
    /// The tenant's p99 sojourn target, in cycles.
    pub p99_target_cycles: u64,
    /// Jobs the arrival process offered to this tenant.
    pub offered: u64,
    /// Offered minus shed.
    pub admitted: u64,
    /// Jobs rejected by the SLO-aware shedder.
    pub shed: u64,
    /// Admitted jobs that ran to completion.
    pub completed: u64,
    /// `shed / offered`.
    pub shed_rate: f64,
    /// Fraction of completed jobs whose sojourn met the p99 target.
    pub slo_attainment: f64,
    /// Streaming sojourn quantiles over completed jobs, in cycles.
    pub sojourn: Quantiles,
    /// SLO-met completions per million cycles of makespan.
    pub goodput_jobs_per_mcycle: f64,
}

impl TenantReport {
    /// The admitted-traffic p99 sojourn as a multiple of the target
    /// (`< 1.0` means the SLO held at the 99th percentile).
    pub fn p99_over_target(&self) -> f64 {
        self.sojourn.p99 / self.p99_target_cycles as f64
    }
}

/// Results of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Scheduler calibration ran under.
    pub scheduler: SchedulerSpec,
    /// Canonical arrival spec string.
    pub arrivals: String,
    /// Whether the shedder was active.
    pub shedding: bool,
    /// Total offered jobs.
    pub offered: u64,
    /// Total completions.
    pub completed: u64,
    /// Total sheds.
    pub shed: u64,
    /// Cycle the last job resolved at.
    pub makespan_cycles: u64,
    /// Largest number of co-resident jobs.
    pub peak_active: usize,
    /// Time-weighted mean of cores powered on.
    pub mean_active_cores: f64,
    /// Cores online when the run ended.
    pub final_cores: usize,
    /// Number of autoscale level changes.
    pub scale_events: u64,
    /// The first 32 scale decisions as `(cycle, cores)`
    /// (capped so sustained runs stay constant-memory; `scale_events` is
    /// always the exact count).
    pub scale_log: Vec<(u64, usize)>,
    /// Per-tenant breakdown, in config order.
    pub tenants: Vec<TenantReport>,
}

impl ServeReport {
    /// Overall `shed / offered`.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// One tenant's report, by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// The worst tenant's [`TenantReport::p99_over_target`] (0.0 when no
    /// tenant completed a job).
    pub fn worst_p99_over_target(&self) -> f64 {
        self.tenants
            .iter()
            .filter(|t| t.completed > 0)
            .map(TenantReport::p99_over_target)
            .fold(0.0, f64::max)
    }

    /// Render the per-tenant breakdown as one [`Table`]: one row per tenant,
    /// one series per serving quantity — the table the `serve` binary and
    /// the artifact renderers share.
    pub fn summary_table(&self) -> Table {
        let x: Vec<String> = self.tenants.iter().map(|t| t.name.clone()).collect();
        let mut table = Table::new(
            format!(
                "Serving tier ({} arrivals, scheduler {}, shedding {}): per-tenant summary",
                self.arrivals,
                self.scheduler.canonical(),
                if self.shedding { "on" } else { "off" },
            ),
            "tenant",
            x,
        );
        let col = |name: &str, f: &dyn Fn(&TenantReport) -> f64| {
            Series::new(name, self.tenants.iter().map(f).collect())
        };
        table.push_series(col("p50_sojourn_kcyc", &|t| t.sojourn.p50 / 1_000.0));
        table.push_series(col("p95_sojourn_kcyc", &|t| t.sojourn.p95 / 1_000.0));
        table.push_series(col("p99_sojourn_kcyc", &|t| t.sojourn.p99 / 1_000.0));
        table.push_series(col("p99_target_kcyc", &|t| {
            t.p99_target_cycles as f64 / 1_000.0
        }));
        table.push_series(col("shed_rate", &|t| t.shed_rate));
        table.push_series(col("slo_attainment", &|t| t.slo_attainment));
        table.push_series(col("goodput_jobs_per_mcyc", &|t| t.goodput_jobs_per_mcycle));
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_trace::EventTrace;

    /// A small machine with a single core level so tests calibrate quickly.
    fn quick_cfg(jobs: usize, rate: f64) -> ServeConfig {
        let mut cfg = ServeConfig::new(4, SchedulerSpec::pdf());
        cfg.jobs = jobs;
        cfg.arrivals = ArrivalSpec::poisson(rate);
        cfg.autoscale = None;
        cfg
    }

    #[test]
    fn every_offered_job_is_resolved_exactly_once() {
        let report = run_serve(&quick_cfg(300, 30.0)).unwrap();
        assert_eq!(report.offered, 300);
        assert_eq!(report.completed + report.shed, 300);
        let by_tenant: u64 = report.tenants.iter().map(|t| t.offered).sum();
        assert_eq!(by_tenant, 300);
        for t in &report.tenants {
            assert_eq!(t.admitted, t.offered - t.shed);
            assert_eq!(t.completed, t.admitted, "no jobs left behind");
            assert!(t.sojourn.p99 >= t.sojourn.p50);
        }
        assert!(report.peak_active >= 1);
        assert!(report.makespan_cycles > 0);
    }

    #[test]
    fn serving_runs_are_deterministic() {
        let a = run_serve(&quick_cfg(250, 60.0)).unwrap();
        let b = run_serve(&quick_cfg(250, 60.0)).unwrap();
        assert_eq!(a, b);
        let mut other = quick_cfg(250, 60.0);
        other.seed = 43;
        assert_ne!(run_serve(&other).unwrap(), a);
    }

    #[test]
    fn overload_sheds_while_light_load_does_not() {
        // Far beyond capacity: the shedder must engage...
        let overload = run_serve(&quick_cfg(600, 2_000.0)).unwrap();
        assert!(
            overload.shed_rate() > 0.2,
            "expected heavy shedding, got {}",
            overload.shed_rate()
        );
        // ...and the traffic it does admit meets the p99 target.
        assert!(
            overload.worst_p99_over_target() <= 1.0,
            "admitted p99 blew the target: {:?}",
            overload
                .tenants
                .iter()
                .map(TenantReport::p99_over_target)
                .collect::<Vec<_>>()
        );
        // A lightly-loaded tier sheds nothing.
        let light = run_serve(&quick_cfg(200, 2.0)).unwrap();
        assert_eq!(light.shed, 0, "light load must not shed");
    }

    #[test]
    fn disabling_the_shedder_violates_the_slo_under_overload() {
        let mut baseline = quick_cfg(600, 2_000.0);
        baseline.shedding = false;
        let report = run_serve(&baseline).unwrap();
        assert_eq!(report.shed, 0);
        assert!(
            report.worst_p99_over_target() > 1.0,
            "an unshed overload should violate the p99 target, got {}",
            report.worst_p99_over_target()
        );
    }

    #[test]
    fn autoscaler_powers_down_a_lightly_loaded_tier() {
        let mut cfg = ServeConfig::new(8, SchedulerSpec::pdf());
        cfg.jobs = 200;
        cfg.arrivals = ArrivalSpec::poisson(1.0);
        let report = run_serve(&cfg).unwrap();
        assert!(
            report.final_cores < 8,
            "idle tier should scale below the top rung, stayed at {}",
            report.final_cores
        );
        assert!(report.scale_events > 0);
        assert!(report.mean_active_cores < 8.0);
        assert_eq!(report.scale_log.len() as u64, report.scale_events.min(32));
    }

    #[test]
    fn traced_runs_match_untraced_and_emit_serving_events() {
        let mut cfg = quick_cfg(400, 2_000.0);
        cfg.autoscale = Some(AutoscalePolicy::for_cores(4));
        let plain = run_serve(&cfg).unwrap();
        let mut trace = EventTrace::new();
        let traced = run_serve_traced(&cfg, &mut trace).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the run");
        assert!(trace.count("job_admit") > 0);
        assert!(trace.count("job_complete") > 0);
        assert!(trace.count("job_shed") > 0, "overload must shed");
        assert!(trace.count("active_cores") > 0);
        assert!(trace.count("outstanding_jobs") > 0);
        assert_eq!(trace.count("job_complete") as u64, traced.completed);
        assert_eq!(trace.count("job_shed") as u64, traced.shed);
    }

    #[test]
    fn summary_table_has_one_row_per_tenant() {
        let report = run_serve(&quick_cfg(200, 40.0)).unwrap();
        let table = report.summary_table();
        assert_eq!(table.rows(), 2);
        assert_eq!(
            table.x_values,
            vec!["interactive".to_string(), "batch".to_string()]
        );
        assert_eq!(table.series.len(), 7);
    }

    #[test]
    #[should_panic(expected = "open-loop")]
    fn closed_loop_arrivals_are_rejected() {
        let mut cfg = quick_cfg(10, 40.0);
        cfg.arrivals = ArrivalSpec::closed(2, 100);
        let _ = run_serve(&cfg);
    }

    #[test]
    #[should_panic(expected = "top rung")]
    fn autoscale_ladders_must_top_out_at_the_machine() {
        let mut cfg = quick_cfg(10, 40.0);
        cfg.autoscale = Some(AutoscalePolicy::for_cores(8));
        let _ = run_serve(&cfg);
    }

    #[test]
    fn model_errors_surface() {
        let mut cfg = quick_cfg(10, 40.0);
        cfg.cores = 999;
        assert!(run_serve(&cfg).is_err());
    }
}
