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
//!
//! # Cost per event
//!
//! The loop pays per job, not per autoscale tick.  An arrival costs
//! O(its tenant's active jobs): the admission estimate walks that tenant's
//! jobs in active-set order.  A completion costs O(active + tenants): one
//! scan of the active set retires the finished jobs, and the GPS state (each
//! tenant's head job and its two rate factors) is re-derived, the rates only
//! when the set of busy tenants changed.  Either may run a dispatch pass,
//! which skips in closed form the deficit-round-robin rounds that would
//! admit nothing.  A tick that cannot change the level (the scaler's quiet
//! time for the current load has not come, or never comes inside the
//! hysteresis band) only moves the fluid progress, the core-cycle integral
//! and the schedule, so runs of them are taken in one tight loop up to the
//! next arrival or completion; a tick at the same cycle as either stays in
//! the main loop, and so does every tick from 2^53 cycles on, where tick
//! times round as `f64`.  A shed arrival or a tick changes neither a queue
//! nor the active set, so neither runs a dispatch pass.  Nothing is
//! allocated inside the loop.  The floating-point operations are the same,
//! in the same order, as a loop that takes every tick as an event and
//! re-derives all of that state at every event: each event decrements
//! `remaining` and adds to the core-cycle integral once, and the admission
//! estimate sums in active-set order.

use crate::autoscale::{AutoscalePolicy, Autoscaler};
use crate::tenant::TenantSpec;
use pdfws_cmp_model::{default_config, CmpConfig, MemSysParams, ModelError};
use pdfws_metrics::{P2Quantile, Quantiles, Series, StreamingQuantiles, Table};
use pdfws_schedulers::{make_policy, SchedulerSpec, SimEngine, SimOptions};
use pdfws_stream::{ArrivalGen, ArrivalSpec};
use pdfws_trace::{TraceEvent, TraceSink};
use pdfws_workloads::{WorkloadRegistry, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// Size multipliers the job sampler draws from (matching
/// [`JobMix::generate`]'s `1..=4` scaling).
const SCALES: u64 = 4;

/// Sub-cycle slack when deciding a fluid job has finished.
const REMAINING_EPS: f64 = 1e-3;

/// Whole cycles from here on are not all exact as `f64`: tick times round,
/// so quiet ticks stop, and so do sums of whole-cycle deficits, so idle DRR
/// rounds are no longer banked in closed form.
const EXACT_CYCLES: u64 = 1 << 53;

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
            memsys: None,
            seed: 42,
        }
    }
}

/// Why a serving run could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The configuration breaks an invariant the serving loop needs.
    Config(String),
    /// A calibration machine could not be derived or validated.
    Model(ModelError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(reason) => write!(f, "invalid serving configuration: {reason}"),
            ServeError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

/// Check the config invariants the serving loop requires.
///
/// Rejects an empty tenant list, zero jobs or slots, a headroom that is not
/// positive (NaN included), a zero DRR quantum, an invalid autoscale policy,
/// or an autoscale ladder whose top rung is not `cores`.
pub fn validate_serve_cfg(cfg: &ServeConfig) -> Result<(), ServeError> {
    let reject = |reason: String| Err(ServeError::Config(reason));
    if cfg.tenants.is_empty() {
        return reject("need at least one tenant".into());
    }
    if cfg.jobs == 0 {
        return reject("need at least one offered job".into());
    }
    if cfg.max_active == 0 {
        return reject("need at least one serving slot".into());
    }
    if cfg.slo_headroom.is_nan() || cfg.slo_headroom <= 0.0 {
        return reject(format!(
            "slo_headroom must be positive, got {}",
            cfg.slo_headroom
        ));
    }
    if cfg.drr_quantum_cycles == 0 {
        return reject("DRR quantum must be positive".into());
    }
    if let Some(policy) = &cfg.autoscale {
        policy.validate().map_err(ServeError::Config)?;
        if policy.levels.last() != Some(&cfg.cores) {
            return reject(format!(
                "the autoscale ladder's top rung must be the machine's {} cores, got {:?}",
                cfg.cores, policy.levels
            ));
        }
    }
    Ok(())
}

/// One tenant's calibrated templates: the parsed mix entries and where its
/// job shapes start in the service table.
struct TenantTables {
    entries: Vec<(WorkloadSpec, u32)>,
    entry_weight_total: u64,
    /// Shape index of (entry 0, scale 1); the tenant's shape for `(entry,
    /// scale)` is `first_shape + entry * SCALES + scale - 1`.
    first_shape: usize,
}

/// Calibrated machine: core levels, per-tenant templates, and the measured
/// alone-run service cycles of every job shape at every level.
struct Calibration {
    levels: Vec<usize>,
    tenants: Vec<TenantTables>,
    /// `service[shape * levels.len() + level_idx]` — alone-run cycles.
    service: Vec<u64>,
}

impl Calibration {
    fn level_idx(&self, cores: usize) -> usize {
        self.levels
            .iter()
            .position(|&c| c == cores)
            .expect("autoscaler only selects calibrated levels")
    }

    fn shape(&self, tenant: usize, entry: usize, scale: u64) -> usize {
        self.tenants[tenant].first_shape + entry * SCALES as usize + (scale - 1) as usize
    }

    fn service(&self, shape: usize, level_idx: usize) -> u64 {
        self.service[shape * self.levels.len() + level_idx]
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
    let mut service = Vec::new();
    for (t, tenant) in cfg.tenants.iter().enumerate() {
        let mix = tenant.mix();
        let entries: Vec<(WorkloadSpec, u32)> =
            mix.entries().map(|(s, w)| (s.clone(), w)).collect();
        let entry_weight_total = entries.iter().map(|&(_, w)| w as u64).sum();
        let first_shape = service.len() / levels.len();
        for (e, (spec, _)) in entries.iter().enumerate() {
            let factory = WorkloadRegistry::global()
                .factory(spec.name())
                .unwrap_or_else(|| panic!("workload '{}' is not in the registry", spec.name()));
            for scale in 1..=SCALES {
                // One fixed DAG per job shape: deterministic, and the same
                // shape every arrival of this (tenant, entry, scale) reuses.
                let calib_seed =
                    cfg.seed ^ 0xCA11_B8A7 ^ ((t as u64) << 32 | (e as u64) << 16 | scale);
                let shaped = factory.reseed(&factory.scale(spec, scale), calib_seed);
                let dag = std::sync::Arc::new(shaped.build().build_dag());
                for machine in &machines {
                    let mut engine = SimEngine::with_shared_dag(
                        dag.clone(),
                        machine,
                        make_policy(&cfg.scheduler, machine.cores),
                        SimOptions::default(),
                    );
                    service.push(engine.run().cycles.max(1));
                }
            }
        }
        tenants.push(TenantTables {
            entries,
            entry_weight_total,
            first_shape,
        });
    }
    Ok(Calibration {
        levels: levels.to_vec(),
        tenants,
        service,
    })
}

/// A job waiting in its tenant's dispatch queue.
struct QueuedJob {
    id: u64,
    /// Index of the job's shape in the calibrated service table.
    shape: usize,
    arrival: f64,
    /// Raw (uncorrected) sojourn prediction made at arrival, for the EWMA.
    raw_prediction: f64,
}

/// A job currently sharing the machine.
struct ActiveJob {
    id: u64,
    tenant: usize,
    shape: usize,
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

/// The fluid GPS rates, which hold constant while the active set does.
///
/// Busy tenants split the machine by weight, and within a tenant the whole
/// slice serves its oldest active job (FIFO, by admission order = job id),
/// so tenant `t`'s head progresses at `weights[t] / w_busy` alone-cycles per
/// cycle and every other active job of `t` waits.  Rebuilt only when the
/// active set changes; between rebuilds it describes the active set exactly.
struct Gps {
    /// Active jobs per tenant.
    n_active: Vec<usize>,
    /// Index into the active set of each busy tenant's oldest job (stale for
    /// idle tenants).
    head: Vec<usize>,
    /// Scratch for the head search: the smallest job id seen per tenant.
    head_id: Vec<u64>,
    /// The busy tenants (`n_active > 0`), ascending; `rate` and `stretch`
    /// run parallel to it.
    busy: Vec<usize>,
    /// `weights[t] / w_busy`: alone-cycles per cycle for tenant `t`'s head.
    rate: Vec<f64>,
    /// `w_busy / weights[t]`: cycles per alone-cycle for tenant `t`'s head.
    stretch: Vec<f64>,
}

impl Gps {
    fn new(tenants: usize) -> Self {
        Gps {
            n_active: vec![0; tenants],
            head: vec![0; tenants],
            head_id: vec![u64::MAX; tenants],
            busy: Vec::with_capacity(tenants),
            rate: Vec::with_capacity(tenants),
            stretch: Vec::with_capacity(tenants),
        }
    }

    /// Note job `index` of the active set joining tenant `t`.  Jobs leave a
    /// tenant's queue in id order, so only the first active job of a tenant
    /// becomes its head; call [`settle`](Self::settle) after the last one.
    fn admit(&mut self, t: usize, index: usize) {
        if self.n_active[t] == 0 {
            self.head[t] = index;
        }
        self.n_active[t] += 1;
    }

    /// Re-derive every tenant's count and head from the active set, then
    /// [`settle`](Self::settle).
    fn rebuild(&mut self, active: &[ActiveJob], weights: &[f64]) {
        self.n_active.fill(0);
        self.head_id.fill(u64::MAX);
        for (i, job) in active.iter().enumerate() {
            let t = job.tenant;
            self.n_active[t] += 1;
            // Selects, not branches: which job heads its tenant is data.
            let older = job.id < self.head_id[t];
            self.head_id[t] = if older { job.id } else { self.head_id[t] };
            self.head[t] = if older { i } else { self.head[t] };
        }
        self.settle(weights);
    }

    /// Recompute the rates if the set of busy tenants changed.  They depend
    /// on nothing else, so the same set gives the same bits.
    fn settle(&mut self, weights: &[f64]) {
        let busy = (0..self.n_active.len()).filter(|&t| self.n_active[t] > 0);
        if busy.clone().eq(self.busy.iter().copied()) {
            return;
        }
        self.busy.clear();
        self.busy.extend(busy);
        let w_busy: f64 = self.busy.iter().map(|&t| weights[t]).sum();
        self.rate.clear();
        self.rate
            .extend(self.busy.iter().map(|&t| weights[t] / w_busy));
        self.stretch.clear();
        self.stretch
            .extend(self.busy.iter().map(|&t| w_busy / weights[t]));
    }

    /// Cycles until the first head job finishes at the current rates.
    fn horizon(&self, active: &[ActiveJob]) -> f64 {
        self.busy
            .iter()
            .zip(&self.stretch)
            .map(|(&t, stretch)| active[self.head[t]].remaining.max(0.0) * stretch)
            .fold(f64::INFINITY, f64::min)
    }

    /// Zero the remaining work of every head whose completion time,
    /// `now` plus its horizon, rounds to `now`.
    fn finish_rounded_heads(&self, active: &mut [ActiveJob], now: f64) {
        for (&t, stretch) in self.busy.iter().zip(&self.stretch) {
            let head = &mut active[self.head[t]];
            if now + head.remaining.max(0.0) * stretch == now {
                head.remaining = 0.0;
            }
        }
    }

    /// Progress every head job by `dt` cycles of fluid service.
    fn progress(&self, active: &mut [ActiveJob], dt: f64) {
        for (&t, rate) in self.busy.iter().zip(&self.rate) {
            active[self.head[t]].remaining -= dt * rate;
        }
    }
}

/// Drive one serving run (see the module docs for the model).
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    serve_impl(cfg, None)
}

/// [`run_serve`] with a trace sink: emits `JobAdmit` / `JobComplete` /
/// `JobShed` job-lifecycle events plus the `OutstandingJobs` and
/// `ActiveCores` counter tracks.  Tracing never perturbs the run.
pub fn run_serve_traced(
    cfg: &ServeConfig,
    sink: &mut dyn TraceSink,
) -> Result<ServeReport, ServeError> {
    serve_impl(cfg, Some(sink))
}

fn serve_impl<'a>(
    cfg: &'a ServeConfig,
    sink: Option<&'a mut dyn TraceSink>,
) -> Result<ServeReport, ServeError> {
    validate_serve_cfg(cfg)?;
    let levels: Vec<usize> = cfg
        .autoscale
        .as_ref()
        .map(|p| p.levels.clone())
        .unwrap_or_else(|| vec![cfg.cores]);
    let calib = calibrate(cfg, &levels)?;
    let mut tier = Tier::new(cfg, calib, sink);
    tier.run();
    Ok(tier.report())
}

/// The serving loop's state between events.
struct Tier<'a> {
    cfg: &'a ServeConfig,
    calib: Calibration,
    sink: Option<&'a mut dyn TraceSink>,
    scaler: Option<Autoscaler>,
    gen: Box<dyn ArrivalGen>,
    rng: StdRng,
    /// Tenant weights as `f64`, and their sum.
    weights: Vec<f64>,
    w_all: f64,
    /// Serving slots per tenant.
    quotas: Vec<usize>,
    queues: Vec<VecDeque<QueuedJob>>,
    queued_total: usize,
    /// Estimated service cycles waiting in each tenant's queue.
    queued_backlog: Vec<f64>,
    deficits: Vec<f64>,
    drr_cursor: usize,
    active: Vec<ActiveJob>,
    /// Each tenant's jobs as ascending indices into the active set, so the
    /// admission estimate walks one tenant's jobs in active-set order.
    members: Vec<Vec<usize>>,
    gps: Gps,
    level_idx: usize,
    now: f64,
    next_arrival: f64,
    offered: usize,
    /// Completed plus shed jobs.
    resolved: usize,
    stats: Vec<TenantStats>,
    /// The admission estimator's learned correction, per tenant: a
    /// streaming P² tail quantile of the realised `sojourn / raw_prediction`
    /// ratio.  With FIFO service inside each tenant the raw prediction is
    /// already an upper bound at a fixed core level, so the correction
    /// usually sits at its 1.0 floor; it exists to absorb what the bound
    /// does not cover — autoscale re-denomination of in-flight work
    /// mid-sojourn.  The SLO is a p99, so the tracker follows the *tail* of
    /// the error, not its mean: an average-tracking correction admits
    /// borderline jobs whose worst few percent still miss.  The 1.0 floor
    /// means a stretch of idle competitors can never teach the estimator to
    /// predict better than the guaranteed share.
    error_tail: Vec<P2Quantile>,
    peak_active: usize,
    last_outstanding: Option<u64>,
    /// ∫ cores dt.
    core_cycles: f64,
    scale_events: u64,
    scale_log: Vec<(u64, usize)>,
}

impl<'a> Tier<'a> {
    fn new(cfg: &'a ServeConfig, calib: Calibration, sink: Option<&'a mut dyn TraceSink>) -> Self {
        let n_tenants = cfg.tenants.len();
        let scaler = cfg.autoscale.clone().map(Autoscaler::new);
        let mut gen = cfg.arrivals.generator(cfg.seed);
        let next_arrival = gen.next_arrival() as f64;
        // GPS shares: tenant `t` is guaranteed `weights[t] / w_all` of the
        // machine whenever it has active jobs (more when other tenants idle).
        let weights: Vec<f64> = cfg.tenants.iter().map(|t| t.weight() as f64).collect();
        let w_all: f64 = weights.iter().sum();
        // Serving slots are partitioned by weight too (min 1 each).  Shared
        // slots would let slow-draining batch jobs occupy every slot and make
        // an interactive job's *activation* wait depend on other tenants —
        // the one delay the GPS guarantee cannot bound, and therefore the
        // admission estimator could not predict.
        let quotas: Vec<usize> = weights
            .iter()
            .map(|w| ((cfg.max_active as f64 * w / w_all).floor() as usize).max(1))
            .collect();
        let slots: usize = quotas.iter().sum();
        let members = quotas.iter().map(|&q| Vec::with_capacity(q)).collect();
        let level_idx = calib.level_idx(scaler.as_ref().map_or(cfg.cores, Autoscaler::cores));
        Tier {
            cfg,
            calib,
            sink,
            scaler,
            gen,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5E2E_7E4A),
            weights,
            w_all,
            quotas,
            queues: (0..n_tenants).map(|_| VecDeque::new()).collect(),
            queued_total: 0,
            queued_backlog: vec![0.0; n_tenants],
            deficits: vec![0.0; n_tenants],
            drr_cursor: 0,
            active: Vec::with_capacity(slots),
            members,
            gps: Gps::new(n_tenants),
            level_idx,
            now: 0.0,
            next_arrival,
            offered: 0,
            resolved: 0,
            stats: (0..n_tenants).map(|_| TenantStats::default()).collect(),
            error_tail: (0..n_tenants).map(|_| P2Quantile::new(0.99)).collect(),
            peak_active: 0,
            last_outstanding: None,
            core_cycles: 0.0,
            scale_events: 0,
            scale_log: Vec::new(),
        }
    }

    fn emit(&mut self, event: TraceEvent) {
        if let Some(s) = self.sink.as_deref_mut() {
            s.emit(event);
        }
    }

    /// Emit the `OutstandingJobs` counter if the active count moved.
    fn note_outstanding(&mut self) {
        if self.sink.is_none() {
            return;
        }
        let jobs = self.active.len() as u64;
        if self.last_outstanding != Some(jobs) {
            self.last_outstanding = Some(jobs);
            self.emit(TraceEvent::OutstandingJobs {
                t: self.now as u64,
                jobs,
            });
        }
    }

    fn next_tick(&self) -> f64 {
        self.scaler
            .as_ref()
            .map_or(f64::INFINITY, |s| (s.next_eval() as f64).max(self.now))
    }

    fn run(&mut self) {
        let cores = self.calib.levels[self.level_idx] as u64;
        self.emit(TraceEvent::ActiveCores { t: 0, cores });
        // Whether a queue or the active set changed since the last dispatch
        // pass.  A pass leaves every tenant with an empty queue or a full
        // quota, so until one of the two changes another pass would admit
        // nothing; ticks, level changes and shed arrivals change neither.
        let mut changed = true;
        while self.resolved < self.cfg.jobs {
            if changed {
                self.dispatch();
                changed = false;
            }
            self.peak_active = self.peak_active.max(self.active.len());
            self.note_outstanding();
            self.quiet_ticks();

            // The next event: completion, autoscale tick, or arrival.
            let t_complete = self.next_completion();
            let t_tick = self.next_tick();
            let t_arrival = self.t_arrival();
            let t_event = t_complete.min(t_tick).min(t_arrival);
            assert!(
                t_event.is_finite(),
                "serving loop stalled: {} of {} jobs resolved, {} active, {} queued",
                self.resolved,
                self.cfg.jobs,
                self.active.len(),
                self.queued_total
            );
            // Past 2^53 cycles `now + horizon` can round back to `now`: the
            // head it belongs to makes no progress, and with nothing else due
            // at `now` the loop would spin.  Its remaining work is below the
            // clock's resolution, so it finishes now.
            let stalled = t_complete == self.now && t_tick > self.now && t_arrival > self.now;
            self.advance(t_event);
            if t_event == t_complete {
                let mut retired = self.complete();
                if !retired && stalled {
                    self.gps.finish_rounded_heads(&mut self.active, self.now);
                    retired = self.complete();
                }
                changed |= retired;
            }
            if t_event == t_tick {
                self.tick();
            }
            if t_event == t_arrival && self.offered < self.cfg.jobs && self.arrive() {
                changed = true;
            }
        }
    }

    /// Take, in one tight loop, the autoscale ticks that cannot change
    /// anything: those before the scaler's quiet time for the current load,
    /// before the next arrival and strictly before the next completion (a
    /// tick that ties with either stays with the main loop, which completes,
    /// then ticks, then admits).  Each one is the main loop's `advance` plus
    /// the step of the schedule that `observe` makes when it changes nothing.
    /// Tick times are exact as `f64` only below 2^53 cycles, so from there on
    /// the main loop takes them one at a time.
    fn quiet_ticks(&mut self) {
        let t_arrival = self.t_arrival();
        let load = self.active.len() + self.queued_total;
        let Some(mut scaler) = self.scaler.take() else {
            return;
        };
        let end = scaler
            .quiet_until(load)
            .map_or(EXACT_CYCLES, |t| t.min(EXACT_CYCLES));
        loop {
            let next = scaler.next_eval();
            let t_tick = next as f64;
            if next >= end || t_tick >= t_arrival || t_tick >= self.next_completion() {
                break;
            }
            self.advance(t_tick);
            scaler.pass();
        }
        self.scaler = Some(scaler);
    }

    /// When the next arrival is due (never once every job was offered).
    fn t_arrival(&self) -> f64 {
        if self.offered < self.cfg.jobs {
            self.next_arrival.max(self.now)
        } else {
            f64::INFINITY
        }
    }

    /// When the first head job finishes at the current rates.
    fn next_completion(&self) -> f64 {
        if self.active.is_empty() {
            return f64::INFINITY;
        }
        self.now + self.gps.horizon(&self.active)
    }

    /// Advance the fluid shares and the core-cycle integral to `t_event`.
    fn advance(&mut self, t_event: f64) {
        if !self.active.is_empty() && t_event > self.now {
            self.gps.progress(&mut self.active, t_event - self.now);
        }
        self.core_cycles += (t_event - self.now) * self.calib.levels[self.level_idx] as f64;
        self.now = t_event;
    }

    /// Deficit-round-robin dispatch into free slots (each tenant bounded by
    /// its slot quota), then a GPS rebuild if any job was admitted.
    /// Deficits grow by quantum * weight per visited round, so a head job
    /// larger than one quantum still dispatches after enough rounds — large
    /// jobs are delayed proportionally to their size, never starved.
    fn dispatch(&mut self) {
        let before = self.active.len();
        while (0..self.queues.len()).any(|t| self.can_admit(t)) {
            self.bank_idle_rounds();
            self.drr_round();
            // Un-dispatchable heads only grow their deficits; loop again.
        }
        if self.active.len() > before {
            self.gps.settle(&self.weights);
        }
    }

    /// Whether tenant `t` has queued work and a free slot.
    fn can_admit(&self, t: usize) -> bool {
        !self.queues[t].is_empty() && self.gps.n_active[t] < self.quotas[t]
    }

    /// One DRR round: from the cursor, each tenant with queued work and a
    /// free slot banks its quantum and admits head jobs while the deficit
    /// covers them.
    fn drr_round(&mut self) {
        let n_tenants = self.queues.len();
        for _ in 0..n_tenants {
            let t = self.drr_cursor;
            self.drr_cursor += 1;
            if self.drr_cursor == n_tenants {
                self.drr_cursor = 0;
            }
            if self.queues[t].is_empty() {
                // An idle tenant banks no credit (classic DRR).
                self.deficits[t] = 0.0;
                continue;
            }
            if self.gps.n_active[t] >= self.quotas[t] {
                continue;
            }
            self.deficits[t] += self.cfg.drr_quantum_cycles as f64 * self.weights[t];
            while self.gps.n_active[t] < self.quotas[t] {
                let Some(head) = self.queues[t].front() else {
                    break;
                };
                let est = self.calib.service(head.shape, self.level_idx) as f64;
                if est > self.deficits[t] {
                    break;
                }
                self.deficits[t] -= est;
                let job = self.queues[t].pop_front().expect("head exists");
                self.queued_total -= 1;
                self.queued_backlog[t] = (self.queued_backlog[t] - est).max(0.0);
                self.emit(TraceEvent::JobAdmit {
                    t: self.now as u64,
                    job: job.id,
                });
                self.active.push(ActiveJob {
                    id: job.id,
                    tenant: t,
                    shape: job.shape,
                    arrival: job.arrival,
                    remaining: est,
                    raw_prediction: job.raw_prediction,
                });
                self.members[t].push(self.active.len() - 1);
                self.gps.admit(t, self.active.len() - 1);
            }
        }
    }

    /// Skip, in closed form, the full DRR rounds that would admit nothing.
    /// In such a round every dispatchable tenant (queued work, a free slot)
    /// only banks its quantum and the cursor comes back where it started, so
    /// `k` rounds are `k` quanta on each of those deficits.
    fn bank_idle_rounds(&mut self) {
        let mut rounds = u64::MAX;
        for t in 0..self.queues.len() {
            if !self.can_admit(t) {
                continue;
            }
            let head = self.queues[t].front().expect("queued work");
            let est = self.calib.service(head.shape, self.level_idx) as f64;
            let quantum = self.cfg.drr_quantum_cycles as f64 * self.weights[t];
            match waiting_rounds(est, self.deficits[t], quantum) {
                Some(r) if r > 0 => rounds = rounds.min(r),
                _ => return,
            }
        }
        if rounds == u64::MAX {
            return;
        }
        for t in 0..self.queues.len() {
            if self.can_admit(t) {
                let quantum = self.cfg.drr_quantum_cycles as f64 * self.weights[t];
                self.deficits[t] += (rounds * quantum as u64) as f64;
            }
        }
    }

    /// Retire every finished job; returns whether any was.  The scan's
    /// swap-removes fix the order in which heads finishing on the same cycle
    /// retire.
    fn complete(&mut self) -> bool {
        let before = self.active.len();
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].remaining > REMAINING_EPS {
                i += 1;
            } else {
                self.retire(i);
            }
        }
        if self.active.len() == before {
            return false;
        }
        self.gps.rebuild(&self.active, &self.weights);
        true
    }

    /// Remove finished job `i` from the active set and fold it into the stats.
    fn retire(&mut self, i: usize) {
        // `swap_remove` moves the last job into slot `i`: drop `i` from its
        // tenant's indices and renumber the moved job's.
        let last = self.active.len() - 1;
        let own = &mut self.members[self.active[i].tenant];
        let at = own
            .iter()
            .position(|&j| j == i)
            .expect("active job is a member");
        own.remove(at);
        if i != last {
            let moved = &mut self.members[self.active[last].tenant];
            moved.pop();
            let at = moved.partition_point(|&j| j < i);
            moved.insert(at, i);
        }
        let done = self.active.swap_remove(i);
        let sojourn = (self.now - done.arrival).max(0.0);
        let st = &mut self.stats[done.tenant];
        st.completed += 1;
        st.sojourn.observe(sojourn);
        if sojourn <= self.cfg.tenants[done.tenant].p99_target_cycles() as f64 {
            st.slo_met += 1;
        }
        // Fold the realised sojourn into the tenant's estimator.
        if done.raw_prediction > 0.0 {
            let ratio = (sojourn / done.raw_prediction).clamp(0.1, 20.0);
            self.error_tail[done.tenant].observe(ratio);
        }
        self.resolved += 1;
        self.emit(TraceEvent::JobComplete {
            t: self.now as u64,
            job: done.id,
        });
        self.note_outstanding();
    }

    /// An autoscale tick: evaluate the load, and on a level change rescale
    /// in-flight work (keeping each job's completed *fraction*,
    /// re-denominated in the new level's service) and queued estimates.
    fn tick(&mut self) {
        let Some(scaler) = self.scaler.as_mut() else {
            return;
        };
        let Some(new_cores) =
            scaler.observe(self.now as u64, self.active.len() + self.queued_total)
        else {
            return;
        };
        let (old_idx, new_idx) = (self.level_idx, self.calib.level_idx(new_cores));
        for job in &mut self.active {
            let old = self.calib.service(job.shape, old_idx) as f64;
            let new = self.calib.service(job.shape, new_idx) as f64;
            job.remaining = (job.remaining / old).max(0.0) * new;
        }
        self.level_idx = new_idx;
        for (t, queue) in self.queues.iter().enumerate() {
            self.queued_backlog[t] = queue
                .iter()
                .map(|j| self.calib.service(j.shape, new_idx) as f64)
                .sum();
        }
        self.scale_events += 1;
        if self.scale_log.len() < SCALE_LOG_CAP {
            self.scale_log.push((self.now as u64, new_cores));
        }
        self.emit(TraceEvent::ActiveCores {
            t: self.now as u64,
            cores: new_cores as u64,
        });
    }

    /// An arrival: sample the job shape, then shed it or queue it; returns
    /// whether it was queued.
    fn arrive(&mut self) -> bool {
        let id = self.offered as u64;
        self.offered += 1;
        self.next_arrival = (self.gen.next_arrival() as f64).max(self.next_arrival);
        // Offered traffic splits evenly across tenants; the tenant's mix
        // weights pick the template, and sizes scale 1..=4 uniformly
        // (matching JobMix::generate's heterogeneity).
        let tenant = self.rng.gen_range(0..self.queues.len() as u64) as usize;
        let tables = &self.calib.tenants[tenant];
        let mut pick = self.rng.gen_range(0..tables.entry_weight_total);
        let mut entry = 0usize;
        for (i, &(_, w)) in tables.entries.iter().enumerate() {
            if pick < w as u64 {
                entry = i;
                break;
            }
            pick -= w as u64;
        }
        let scale = self.rng.gen_range(1u64..=SCALES);
        self.stats[tenant].offered += 1;

        let shape = self.calib.shape(tenant, entry, scale);
        let est = self.calib.service(shape, self.level_idx) as f64;
        // Predicted sojourn, denominated per tenant: GPS guarantees the
        // tenant at least `weights/w_all` of the machine while it is busy, so
        // its own in-flight plus queued backlog (plus this job) drains in at
        // most that many cycles — other tenants' traffic cannot stretch it,
        // which is what makes the bound usable.  The tail correction folds
        // realised error back in.
        let tenant_active: f64 = self.members[tenant]
            .iter()
            .map(|&i| self.active[i].remaining.max(0.0))
            .sum();
        let raw_prediction = (tenant_active + self.queued_backlog[tenant] + est)
            * (self.w_all / self.weights[tenant]);
        let predicted = raw_prediction * self.error_tail[tenant].estimate().max(1.0);
        let target = self.cfg.tenants[tenant].p99_target_cycles() as f64;
        if self.cfg.shedding && predicted > target * self.cfg.slo_headroom {
            self.stats[tenant].shed += 1;
            self.resolved += 1;
            self.emit(TraceEvent::JobShed {
                t: self.now as u64,
                job: id,
            });
            return false;
        }
        self.queues[tenant].push_back(QueuedJob {
            id,
            shape,
            arrival: self.now,
            raw_prediction,
        });
        self.queued_total += 1;
        self.queued_backlog[tenant] += est;
        true
    }

    fn report(self) -> ServeReport {
        let cfg = self.cfg;
        let makespan_cycles = self.now as u64;
        let tenants = cfg
            .tenants
            .iter()
            .zip(&self.stats)
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
        let final_cores = self.calib.levels[self.level_idx];
        ServeReport {
            scheduler: cfg.scheduler.clone(),
            arrivals: cfg.arrivals.canonical(),
            shedding: cfg.shedding,
            offered: self.offered as u64,
            completed: self.stats.iter().map(|s| s.completed).sum(),
            shed: self.stats.iter().map(|s| s.shed).sum(),
            makespan_cycles,
            peak_active: self.peak_active,
            mean_active_cores: if makespan_cycles == 0 {
                final_cores as f64
            } else {
                self.core_cycles / self.now
            },
            final_cores,
            scale_events: self.scale_events,
            scale_log: self.scale_log,
            tenants,
        }
    }
}

/// How many DRR rounds leave a head of `est` cycles waiting on `deficit`
/// when each round banks `quantum` first: the `r` with
/// `deficit + r * quantum < est`.  `None` unless all three are whole cycles
/// below 2^53; then adding `r` quanta at once gives the same bits as `r`
/// additions.
fn waiting_rounds(est: f64, deficit: f64, quantum: f64) -> Option<u64> {
    let whole = |x: f64| (0.0..EXACT_CYCLES as f64).contains(&x) && x.fract() == 0.0;
    if !(whole(est) && whole(deficit) && whole(quantum)) || quantum == 0.0 {
        return None;
    }
    if est <= deficit + quantum {
        return Some(0);
    }
    Some((est - deficit - 1.0) as u64 / quantum as u64)
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

    fn config_error(cfg: &ServeConfig) -> String {
        match run_serve(cfg) {
            Err(ServeError::Config(reason)) => reason,
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn autoscale_ladders_must_top_out_at_the_machine() {
        let mut cfg = quick_cfg(10, 40.0);
        cfg.autoscale = Some(AutoscalePolicy::for_cores(8));
        assert!(config_error(&cfg).contains("top rung"));
        cfg.autoscale = Some(AutoscalePolicy {
            levels: vec![4, 2],
            ..AutoscalePolicy::for_cores(4)
        });
        assert!(config_error(&cfg).contains("strictly ascending"));
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut cfg = quick_cfg(0, 40.0);
        assert!(config_error(&cfg).contains("offered job"));
        cfg.jobs = 10;
        cfg.max_active = 0;
        assert!(config_error(&cfg).contains("serving slot"));
        cfg.max_active = 8;
        for headroom in [0.0, -1.0, f64::NAN] {
            cfg.slo_headroom = headroom;
            assert!(config_error(&cfg).contains("slo_headroom"), "{headroom}");
        }
        cfg.slo_headroom = 1.0;
        cfg.drr_quantum_cycles = 0;
        assert!(config_error(&cfg).contains("DRR quantum"));
        cfg.drr_quantum_cycles = 50_000;
        cfg.tenants.clear();
        assert!(config_error(&cfg).contains("tenant"));
    }

    proptest::proptest! {
        // Against banking one quantum at a time: the closed form counts the
        // rounds that leave the head waiting, and the deficit it banks has
        // the same bits.
        #[test]
        fn waiting_rounds_match_round_by_round_banking(
            gap in 0u64..200_000,
            deficit in 0u64..400_000,
            quantum in 1u64..50_000,
            base in 0u64..4,
        ) {
            // Deficits near 2^52, just under and just past 2^53 too.
            let base = [0, 1 << 52, (1 << 53) - 300_000, 1 << 53][base as usize];
            let deficit = (base + deficit) as f64;
            let (est, quantum) = (deficit + gap as f64, quantum as f64);
            let Some(rounds) = waiting_rounds(est, deficit, quantum) else {
                assert!(est >= (1u64 << 53) as f64);
                continue;
            };
            let (mut banked, mut waited) = (deficit, 0u64);
            while banked + quantum < est {
                banked += quantum;
                waited += 1;
            }
            assert_eq!(rounds, waited);
            assert_eq!(
                (deficit + (rounds * quantum as u64) as f64).to_bits(),
                banked.to_bits()
            );
        }

        // `dispatch` banks the DRR rounds that admit nothing in closed form;
        // taking every round one at a time must leave the same deficits,
        // cursor, queues and admission order, bit for bit.  Each tenant has
        // an integer or fractional weight and a whole or fractional starting
        // deficit (banking needs whole quanta and deficits), a full or free
        // quota and an empty or non-empty queue.
        #[test]
        fn dispatch_matches_round_by_round_drr(
            tenants in proptest::collection::vec(
                (
                    (1u32..5, rarely()),
                    (1usize..4, 0usize..4),
                    proptest::collection::vec(0usize..SERVICES.len(), 0..5),
                    (0u64..200_000, rarely()),
                ),
                1..6,
            ),
            quantum in 5_000u64..60_000,
            cursor in 0usize..6,
        ) {
            let spec = (0..tenants.len())
                .map(|t| format!("t{t}"))
                .collect::<Vec<_>>()
                .join("+");
            let mut cfg = quick_cfg(1, 1.0);
            cfg.tenants = crate::tenant::parse_tenants(&spec).unwrap();
            cfg.drr_quantum_cycles = quantum;
            let mut banked = drr_tier(&cfg, &tenants, cursor);
            banked.dispatch();
            let mut stepped = drr_tier(&cfg, &tenants, cursor);
            while (0..tenants.len()).any(|t| stepped.can_admit(t)) {
                stepped.drr_round();
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let admitted = |tier: &Tier| {
                tier.active
                    .iter()
                    .map(|j| (j.id, j.tenant, j.remaining.to_bits()))
                    .collect::<Vec<_>>()
            };
            let queued = |tier: &Tier| {
                tier.queues
                    .iter()
                    .map(|q| q.iter().map(|j| j.id).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&banked.deficits), bits(&stepped.deficits));
            assert_eq!(banked.drr_cursor, stepped.drr_cursor);
            assert_eq!(admitted(&banked), admitted(&stepped));
            assert_eq!(queued(&banked), queued(&stepped));
            assert_eq!(bits(&banked.queued_backlog), bits(&stepped.queued_backlog));
        }
    }

    /// Alone-run cycles of the job shapes in [`drr_tier`]'s calibration.
    const SERVICES: [u64; 6] = [1, 60_000, 123_457, 500_000, 1_000_003, 2_000_000];

    /// `true` one time in four: most tenants bank, so most cases bank.
    fn rarely() -> proptest::strategy::SelectStrategy<bool> {
        proptest::sample::select(vec![false, false, false, true])
    }

    /// One tenant's DRR state: `((weight, half more), (quota, active jobs),
    /// queued shapes, (deficit, half more))`.
    type DrrState = ((u32, bool), (usize, usize), Vec<usize>, (u64, bool));

    /// A one-level tier over [`SERVICES`] with each tenant's DRR state set
    /// as given; no arrival is drawn and no job runs.
    fn drr_tier<'a>(cfg: &'a ServeConfig, tenants: &[DrrState], cursor: usize) -> Tier<'a> {
        let calib = Calibration {
            levels: vec![cfg.cores],
            tenants: Vec::new(),
            service: SERVICES.to_vec(),
        };
        let mut tier = Tier::new(cfg, calib, None);
        tier.drr_cursor = cursor % tenants.len();
        let half = |frac: bool| if frac { 0.5 } else { 0.0 };
        let mut id = 0;
        for (t, ((weight, frac_weight), (quota, busy), queue, (deficit, frac_deficit))) in
            tenants.iter().enumerate()
        {
            tier.weights[t] = *weight as f64 + half(*frac_weight);
            tier.quotas[t] = *quota;
            tier.deficits[t] = *deficit as f64 + half(*frac_deficit);
            // Active jobs are older than queued ones, as in a run.
            for _ in 0..*busy.min(quota) {
                tier.active.push(ActiveJob {
                    id,
                    tenant: t,
                    shape: 0,
                    arrival: 0.0,
                    remaining: 1.0,
                    raw_prediction: 0.0,
                });
                tier.members[t].push(tier.active.len() - 1);
                tier.gps.admit(t, tier.active.len() - 1);
                id += 1;
            }
            for &shape in queue {
                tier.queues[t].push_back(QueuedJob {
                    id,
                    shape,
                    arrival: 0.0,
                    raw_prediction: 0.0,
                });
                tier.queued_total += 1;
                tier.queued_backlog[t] += SERVICES[shape] as f64;
                id += 1;
            }
        }
        tier.gps.settle(&tier.weights);
        tier
    }

    /// Two tenants dispatchable in one pass, where the deficits alone decide
    /// who goes first.  Quantum 100k, weight 1 each, the cursor on tenant 1.
    /// Tenant 0 (deficit 0) waits on a 500 000-cycle head: five quanta, so it
    /// is admitted in the fifth round.  Tenant 1 (deficit 450 000) waits on
    /// a 1 000 003-cycle head: six quanta, the sixth round, although it is
    /// visited first in every round.  The first four rounds admit nothing and
    /// are banked in closed form; one round too many would admit tenant 1
    /// first.
    #[test]
    fn deficits_decide_the_admission_order_within_one_pass() {
        let mut cfg = quick_cfg(1, 1.0);
        cfg.tenants = crate::tenant::parse_tenants("a+b").unwrap();
        cfg.drr_quantum_cycles = 100_000;
        let tenants: [DrrState; 2] = [
            ((1, false), (1, 0), vec![3], (0, false)),
            ((1, false), (1, 0), vec![4], (450_000, false)),
        ];
        let mut tier = drr_tier(&cfg, &tenants, 1);
        tier.dispatch();
        let order: Vec<(u64, usize)> = tier.active.iter().map(|j| (j.id, j.tenant)).collect();
        assert_eq!(order, vec![(0, 0), (1, 1)]);
        // Tenant 1 keeps 1 050 000 - 1 000 003 cycles; tenant 0, visited
        // with an empty queue after it, banks nothing.
        assert_eq!(tier.deficits, vec![0.0, 49_997.0]);
        assert_eq!(tier.drr_cursor, 1);
    }

    #[test]
    fn model_errors_surface() {
        let mut cfg = quick_cfg(10, 40.0);
        cfg.cores = 999;
        assert!(matches!(run_serve(&cfg), Err(ServeError::Model(_))));
    }
}
