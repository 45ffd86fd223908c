//! The cycle-level CMP execution engine.
//!
//! The engine advances a set of simulated cores through a task DAG under a
//! [`SchedulerPolicy`].  Each core executes its current task as an interleaving of
//! compute instructions (one per cycle) and memory references; references go
//! through the shared [`CmpCacheHierarchy`], and any reference that goes off chip
//! traverses the modelled memory system: by default a shared split-transaction
//! bus feeding a banked DRAM controller (the `pdfws-memsys` components), so
//! bandwidth-limited programs become bandwidth-limited through *emergent*
//! queuing at the bus arbiter and the controller's banks and data pins.  A
//! configuration whose `memsys` selects [`MemSysMode::Legacy`] (`--memsys
//! legacy` on the bench bins) instead charges the old closed-form cost: a
//! single serialising channel with one busy window.
//!
//! Time advances event-by-event: the engine repeatedly picks the core whose next
//! step starts earliest, simulates a bounded *step* of that task (at most
//! [`SimOptions::time_slice_cycles`] cycles or [`SimOptions::max_accesses_per_step`]
//! references, whichever is hit first), and re-queues the core.  The bounded step
//! keeps the interleaving of different cores' references on the shared L2 fine
//! enough to capture constructive and destructive sharing while staying far faster
//! than per-cycle lockstep simulation.
//!
//! Completions enable successor tasks (in reverse listing order, so LIFO policies
//! descend leftmost-first like the sequential program) and wake idle cores.

use crate::analytic::{profile_for, DagCacheProfile};
use crate::policy::{SchedulerPolicy, WindowFeedback};
use crate::result::SimResult;
use pdfws_cache_sim::hierarchy::CmpCacheHierarchy;
use pdfws_cache_sim::working_set::WorkingSetProfiler;
use pdfws_cache_sim::{CacheModeSpec, HierarchyStats};
use pdfws_cmp_model::{CmpConfig, MemSysMode};
use pdfws_memsys::{EventQueue, MemSystem};
use pdfws_task_dag::{MemAccess, TaskDag, TaskId};
use pdfws_trace::{PolicyEvent, TraceEvent, TraceSink};
use std::sync::Arc;

/// Default period, in simulated cycles, of the windowed cache-counter samples
/// emitted while a trace sink is installed (see
/// [`SimEngine::set_trace_cache_window`]).
pub const DEFAULT_TRACE_CACHE_WINDOW: u64 = 8_192;

/// A synthetic co-runner that periodically touches the shared L2, used by the
/// multiprogramming experiment and the job-stream subsystem.  Its references
/// are issued through core 0's L1 (the co-runner is "context-switched in" on
/// that core), consume off-chip bandwidth, and pollute the shared L2 — but are
/// *not* charged to the measured program's instructions.
///
/// The configured rate is best-effort: bursts are skipped while the memory
/// system is congested (the co-runner stalls on memory like everything else),
/// so a disturbance demanding more bandwidth than the machine has degrades the
/// program as far as the memory system allows instead of diverging the
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disturbance {
    /// A burst is injected every `period_cycles` cycles.
    pub period_cycles: u64,
    /// Number of distinct cache blocks touched per burst.
    pub blocks_per_burst: u64,
    /// First block address of the co-runner's private region (must not overlap the
    /// measured program's data).
    pub region_base_block: u64,
    /// Size of the co-runner's region in blocks; bursts cycle through it.
    pub region_blocks: u64,
}

/// Engine tuning knobs and optional instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Upper bound on the simulated cycles one engine step may cover.  Smaller
    /// values interleave cores more finely (more accurate, slower).
    pub time_slice_cycles: u64,
    /// Upper bound on the memory references one engine step may issue.
    pub max_accesses_per_step: u32,
    /// If set, profile the interleaved access stream's working set with this
    /// window size (in references).
    pub working_set_window: Option<u64>,
    /// Optional multiprogramming co-runner.
    pub disturbance: Option<Disturbance>,
    /// How memory references are priced (see [`CacheModeSpec`]):
    /// `exact` — full trace-driven simulation (the default);
    /// `sampled:rate=N` — 1-in-N set sampling with scaled-up statistics;
    /// `analytic` — reuse-distance histograms composed per task, no
    /// per-reference simulation at all.
    pub cache_mode: CacheModeSpec,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            time_slice_cycles: 256,
            max_accesses_per_step: 64,
            working_set_window: None,
            disturbance: None,
            cache_mode: CacheModeSpec::exact(),
        }
    }
}

/// Per-task execution progress.
#[derive(Debug, Clone)]
struct RunningTask {
    task: TaskId,
    /// Index of the access pattern currently being expanded.
    pattern_idx: usize,
    /// Next reference index within the current pattern.
    within_idx: u64,
    /// References issued so far.
    issued: u64,
    /// Total references the task will issue.
    total_accesses: u64,
    /// Compute cycles to burn before the next reference (or before completion once
    /// all references are issued).
    pending_compute: u64,
    /// Compute cycles inserted before each reference.
    compute_per_gap: u64,
    /// Extra compute cycles appended to the final gap.
    compute_remainder: u64,
}

impl RunningTask {
    fn new(dag: &TaskDag, task: TaskId) -> Self {
        let node = dag.node(task);
        let total_accesses = node.memory_accesses();
        let gaps = total_accesses + 1;
        let compute_per_gap = node.compute_instructions / gaps;
        let compute_remainder = node.compute_instructions % gaps;
        RunningTask {
            task,
            pattern_idx: 0,
            within_idx: 0,
            issued: 0,
            total_accesses,
            pending_compute: compute_per_gap
                + if total_accesses == 0 {
                    compute_remainder
                } else {
                    0
                },
            compute_per_gap,
            compute_remainder,
        }
    }

    /// An analytic-mode task: no references to expand, just `t_total` cycles
    /// to burn (compute plus the composed memory time).  The engine's burn
    /// loop drives it; the pro-rata crediting lives in [`AnalyticCosts`].
    fn new_analytic(task: TaskId, t_total: u64) -> Self {
        RunningTask {
            task,
            pattern_idx: 0,
            within_idx: 0,
            issued: 0,
            total_accesses: 0,
            pending_compute: t_total,
            compute_per_gap: 0,
            compute_remainder: 0,
        }
    }

    /// Expand up to `want` upcoming references into `buf`, advancing the
    /// pattern cursor (but not `issued` — references become "issued" when the
    /// step loop consumes them via [`RunningTask::note_issued`]).
    fn expand(&mut self, dag: &TaskDag, want: u64, buf: &mut Vec<MemAccess>) {
        let node = dag.node(self.task);
        let mut need = want;
        while need > 0 && self.pattern_idx < node.accesses.len() {
            let pattern = &node.accesses[self.pattern_idx];
            let n = pattern.expand_into(self.within_idx, need, buf);
            self.within_idx += n;
            need -= n;
            if self.within_idx >= pattern.len() {
                self.pattern_idx += 1;
                self.within_idx = 0;
            }
        }
    }

    /// Account one consumed reference: refill the compute gap that follows it.
    #[inline]
    fn note_issued(&mut self) {
        self.issued += 1;
        self.pending_compute = self.compute_per_gap
            + if self.issued == self.total_accesses {
                self.compute_remainder
            } else {
                0
            };
    }

    fn finished(&self) -> bool {
        self.issued == self.total_accesses && self.pending_compute == 0
    }
}

/// References expanded per buffer refill.  Pattern runs are expanded in
/// chunks with the per-reference division/modulo hoisted
/// ([`AccessPattern::expand_into`](pdfws_task_dag::AccessPattern::expand_into));
/// the step loop still consumes one reference at a time, so slice/step bounds
/// and memory-system event ordering — and with them exact-mode results — are
/// untouched.
const ACCESS_BUFFER_CHUNK: u64 = 1024;

/// A reusable per-core buffer of expanded upcoming references.
#[derive(Debug, Default)]
struct AccessBuffer {
    items: Vec<MemAccess>,
    cursor: usize,
}

impl AccessBuffer {
    /// The next buffered reference, if any.
    #[inline]
    fn next(&mut self) -> Option<MemAccess> {
        let item = self.items.get(self.cursor).copied();
        self.cursor += item.is_some() as usize;
        item
    }

    /// Refill from the running task's patterns (clears consumed items).
    fn refill(&mut self, running: &mut RunningTask, dag: &TaskDag) {
        self.items.clear();
        self.cursor = 0;
        running.expand(dag, ACCESS_BUFFER_CHUNK, &mut self.items);
    }

    fn clear(&mut self) {
        self.items.clear();
        self.cursor = 0;
    }
}

/// Analytic-mode cost totals of one running task, with Bresenham-style
/// pro-rata crediting: every burned chunk of the task's `t_total` cycles
/// credits its proportional share of instructions, references, misses and
/// off-chip bytes, and the final chunk lands every counter exactly on its
/// total (`credited = total * cycles / t_total` is exact at
/// `cycles == t_total`).
#[derive(Debug, Clone, Copy, Default)]
struct AnalyticCosts {
    instr_total: u64,
    refs: u64,
    l1_hits: u64,
    l2_hits: u64,
    misses: u64,
    writebacks: u64,
    bytes_total: u64,
    t_total: u64,
    credited_cycles: u64,
    credited_instr: u64,
    credited_refs: u64,
    credited_l1m: u64,
    credited_l2m: u64,
    credited_bytes: u64,
}

/// `total * cycles / t_total - already_credited`, advancing the credit.
#[inline]
fn credit_share(total: u64, cycles: u64, t_total: u64, credited: &mut u64) -> u64 {
    let new = (total as u128 * cycles as u128 / t_total as u128) as u64;
    let delta = new - *credited;
    *credited = new;
    delta
}

impl AnalyticCosts {
    /// Credit `burn` more cycles and return the freshly credited off-chip
    /// bytes.  Only the byte share is computed per chunk — it paces the
    /// closed-form channel, so its granularity is observable.  The remaining
    /// counters are synced in bulk by [`Self::sync_counters`] at step end:
    /// nothing reads them at sub-step granularity, and the four u128
    /// divisions this skips per chunk are most of an analytic cell's cost.
    fn credit_bytes(&mut self, burn: u64) -> u64 {
        self.credited_cycles += burn;
        credit_share(
            self.bytes_total,
            self.credited_cycles,
            self.t_total,
            &mut self.credited_bytes,
        )
    }

    /// Sync the non-paced counters up to `credited_cycles`; returns the
    /// freshly credited (instructions, references, l1 misses, l2 misses).
    /// The shares are cut at the same cycle boundary `credit_bytes` advanced
    /// to, so totals at every step end are identical to per-chunk crediting.
    fn sync_counters(&mut self) -> (u64, u64, u64, u64) {
        let t = self.t_total;
        let c = self.credited_cycles;
        (
            credit_share(self.instr_total, c, t, &mut self.credited_instr),
            credit_share(self.refs, c, t, &mut self.credited_refs),
            credit_share(self.l2_hits + self.misses, c, t, &mut self.credited_l1m),
            credit_share(self.misses, c, t, &mut self.credited_l2m),
        )
    }
}

#[derive(Debug, Default)]
struct CoreState {
    running: Option<RunningTask>,
    busy_cycles: u64,
    /// Expanded-but-unconsumed references of the running task.
    buffer: AccessBuffer,
    /// Analytic-mode cost state of the running task.
    analytic: Option<AnalyticCosts>,
    /// Sampled-mode per-task estimator: (count, total observed cycles) of
    /// the *running task's* sampled references (reset at task start).  Tasks
    /// are the natural phase boundary — a streaming task and a reuse task on
    /// sibling cores must not share one latency estimate.
    sample_est: (u64, u64),
}

/// Sampled-mode latency estimator window: once this many sampled references
/// accumulate, the per-level counts are halved, giving an exponentially
/// decayed average that follows the program's current phase.
const SAMPLED_LATENCY_WINDOW: u64 = 256;

/// Analytic-mode step stretch: an analytic compute burn may span up to this
/// many time slices per event-loop iteration (still clipped to the run_for
/// deadline and the next disturbance/trace-window horizon).  Analytic tasks
/// issue no per-reference events, so the stretch only amortizes event-loop
/// overhead; credit chunks keep single-slice granularity.
const ANALYTIC_STEP_STRETCH: u64 = 64;

/// How the engine prices memory references (resolved from
/// [`SimOptions::cache_mode`] at construction).
enum CacheModel {
    /// Every reference goes through the full hierarchy (today's default).
    Exact,
    /// 1-in-`rate` systematic set sampling: the engine's hierarchy is built
    /// with capacities divided by `rate`, blocks whose low bits are zero are
    /// simulated against it at `block >> shift` (exactly the original sets
    /// ≡ 0 mod rate), and unsampled references are charged the running
    /// average hit-level latency.  `result()` scales the statistics back up.
    Sampled {
        rate: u64,
        shift: u32,
        mask: u64,
        l1_lat: u64,
        /// Engine-wide fallback estimator: (count, total observed cycles) of
        /// sampled references, used until the running task has samples of
        /// its own.
        est: (u64, u64),
    },
    /// Reuse-distance composition: tasks are priced from the DAG's profile,
    /// no reference-level simulation at all.  Statistics are synthesized per
    /// completed task.
    Analytic {
        profile: Arc<DagCacheProfile>,
        l1_blocks: u64,
        l2_blocks: u64,
        stats: HierarchyStats,
        /// Credited L1/L2 misses so far (drives the windowed trace samples).
        l1_miss_credit: u64,
        l2_miss_credit: u64,
    },
}

/// The off-chip model the engine drives, instantiated from the
/// configuration's resolved `memsys` parameters.
enum MemSysModel {
    /// The pre-component formula: one busy window, per-miss transfer cost
    /// `ceil(bytes / bandwidth)`.
    Legacy {
        bytes_per_cycle: f64,
        /// Time until which the channel is occupied by earlier transfers.
        busy_until: u64,
    },
    /// The component model: a shared bus in front of a banked DRAM
    /// controller; queuing delays emerge from resource occupancy.
    BusDram(Box<MemSystem>),
}

/// Scale every counter of a sampled run's statistics back up: each sampled
/// set stands for `rate` sets of the full-size hierarchy.
fn scale_hierarchy_stats(mut stats: HierarchyStats, rate: u64) -> HierarchyStats {
    let scale = |c: &mut pdfws_cache_sim::CacheStats| {
        c.read_hits *= rate;
        c.read_misses *= rate;
        c.write_hits *= rate;
        c.write_misses *= rate;
        c.evictions *= rate;
        c.writebacks *= rate;
        c.invalidations *= rate;
    };
    for c in &mut stats.l1 {
        scale(c);
    }
    scale(&mut stats.l2);
    stats.offchip_bytes *= rate;
    stats.memory_fills *= rate;
    stats.coherence_invalidations *= rate;
    stats
}

/// A zero period or empty region would divide by zero in the injection loop.
fn assert_valid_disturbance(d: &Disturbance) {
    assert!(d.period_cycles > 0, "disturbance period must be positive");
    assert!(d.region_blocks > 0, "disturbance region must be non-empty");
}

/// Progress status returned by [`SimEngine::run_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    /// The DAG has unfinished tasks; call [`SimEngine::run_for`] again.
    Running,
    /// Every task completed; [`SimEngine::result`] is available.
    Done,
}

/// The execution engine.
///
/// Construct with [`SimEngine::new`], then either call [`SimEngine::run`] once
/// (single-job mode, runs to completion) or repeatedly call
/// [`SimEngine::run_for`] with a cycle budget (multiprogrammed mode — the
/// job-stream subsystem time-multiplexes many engines this way) and collect
/// [`SimEngine::result`] when it reports [`EngineStatus::Done`].
pub struct SimEngine {
    dag: std::sync::Arc<TaskDag>,
    config: CmpConfig,
    policy: Box<dyn SchedulerPolicy>,
    options: SimOptions,
    hierarchy: CmpCacheHierarchy,
    /// How references are priced (exact / sampled / analytic).
    cache_model: CacheModel,
    /// `log2(line_bytes)` — hoisted so the hot path shifts instead of
    /// dividing.
    block_shift: u32,
    cores: Vec<CoreState>,
    /// Earliest time each busy core can take its next step (cores are the
    /// scheduled ids; the memory-system components are driven synchronously
    /// from the issuing core's timeline).
    events: EventQueue,
    idle: Vec<bool>,
    /// Earliest time each core may be offered work again: a failed victim
    /// probe under `fail_backoff=N` keeps the thief out of the dispatch scan
    /// until its backoff expires.  Always 0 under the free-steal model.
    available_at: Vec<u64>,
    /// Pending wake event per backed-off core (`u64::MAX` when none is
    /// queued).  At most one wake is in flight per core — duplicate probes
    /// would advance the victim-selection RNG and perturb the schedule.
    wake_at: Vec<u64>,
    /// Total cycles thieves spent executing priced steals (see
    /// [`SimResult::steal_cycles`]).
    steal_cycles: u64,
    remaining_preds: Vec<usize>,
    completed: usize,
    now: u64,
    /// The off-chip model every L2 miss (and writeback) goes through.
    memsys: MemSysModel,
    /// Legacy-mode queuing accumulator; in bus/DRAM mode the components keep
    /// their own counters and `result()` reads them back.
    offchip_queue_cycles: u64,
    /// Bus busy-cycle total at the previous trace window sample.
    bus_busy_base: u64,
    instructions: u64,
    memory_accesses: u64,
    profiler: Option<WorkingSetProfiler>,
    disturbance_cursor: u64,
    next_disturbance_at: u64,
    disturbance_accesses: u64,
    started: bool,
    /// Where emitted trace events go; `None` (the default) disables tracing
    /// at the cost of one branch per emit site.
    trace: Option<Box<dyn TraceSink>>,
    /// Scratch buffer reused when draining policy-buffered events.
    policy_events: Vec<PolicyEvent>,
    /// Period of the windowed cache-counter samples.
    trace_cache_window: u64,
    /// Cycle at which the next cache-counter sample is due (`u64::MAX` while
    /// tracing is off).
    next_cache_sample_at: u64,
    /// (accesses, l1 misses, l2 misses) totals at the previous window sample.
    cache_sample_base: (u64, u64, u64),
    /// Last emitted ready-depth value (consecutive duplicates are elided).
    last_ready_depth: Option<u64>,
    /// Per-core trace clocks: the timestamp of each core's last emitted
    /// event.  The event loop can complete an overshooting core before an
    /// earlier-queued one, so dispatch decisions made "in the past" of a core
    /// that already ran ahead are re-stamped at the core's local clock —
    /// per-core event streams are monotone non-decreasing by construction.
    trace_core_clock: Vec<u64>,
    /// Period of the policy feedback windows (`u64::MAX` when the policy does
    /// not ask for feedback — see [`SchedulerPolicy::feedback_window`]).
    feedback_window: u64,
    /// Cycle at which the next policy feedback sample is due.
    next_feedback_at: u64,
    /// (cycles, instructions, l2 misses, migrations) totals at the previous
    /// feedback sample, so windows report deltas.
    feedback_base: (u64, u64, u64, u64),
}

impl SimEngine {
    /// Build an engine for one run.  The caches start cold.
    ///
    /// Clones the DAG once; callers that already share the DAG (the job-stream
    /// backend) should use [`SimEngine::with_shared_dag`] instead.
    pub fn new(
        dag: &TaskDag,
        config: &CmpConfig,
        policy: Box<dyn SchedulerPolicy>,
        options: SimOptions,
    ) -> Self {
        Self::with_shared_dag(std::sync::Arc::new(dag.clone()), config, policy, options)
    }

    /// Build an engine over a shared DAG without copying it.
    pub fn with_shared_dag(
        dag: std::sync::Arc<TaskDag>,
        config: &CmpConfig,
        policy: Box<dyn SchedulerPolicy>,
        options: SimOptions,
    ) -> Self {
        config.validate().expect("CMP configuration must be valid");
        assert!(options.time_slice_cycles > 0, "time slice must be positive");
        assert!(
            options.max_accesses_per_step > 0,
            "steps must allow at least one reference"
        );
        if let Some(d) = &options.disturbance {
            assert_valid_disturbance(d);
        }
        let analytic_mode = options.cache_mode.name() == "analytic";
        // Analytic mode has no reference stream to profile working sets from.
        let profiler = if analytic_mode {
            None
        } else {
            options.working_set_window.map(WorkingSetProfiler::new)
        };
        let next_disturbance_at = options
            .disturbance
            .map(|d| d.period_cycles)
            .unwrap_or(u64::MAX);
        let remaining_preds = dag.in_degrees();
        let resolved = config.resolved_memsys();
        let memsys = if analytic_mode {
            // The component model needs per-transaction block addresses the
            // analytic composition never produces; off-chip bandwidth is
            // modelled by the closed-form channel in every analytic run.
            MemSysModel::Legacy {
                bytes_per_cycle: config.offchip_bytes_per_cycle,
                busy_until: 0,
            }
        } else {
            match resolved.mode {
                MemSysMode::Legacy => MemSysModel::Legacy {
                    bytes_per_cycle: config.offchip_bytes_per_cycle,
                    busy_until: 0,
                },
                MemSysMode::BusDram => MemSysModel::BusDram(Box::new(MemSystem::new(&resolved))),
            }
        };
        let (hierarchy, cache_model) = match options.cache_mode.name() {
            "sampled" => {
                let requested = options
                    .cache_mode
                    .sample_rate()
                    .expect("sampled cache mode always carries a rate");
                // The scaled hierarchy must keep at least one set per level,
                // so the rate is clamped to the smaller set count (both are
                // powers of two, so the clamp stays a power of two).
                let rate = (requested.min(config.l1.sets() as u64)).min(config.l2.sets() as u64);
                let mut scaled = *config;
                scaled.l1.capacity_bytes /= rate as usize;
                scaled.l2.capacity_bytes /= rate as usize;
                (
                    CmpCacheHierarchy::new(&scaled),
                    CacheModel::Sampled {
                        rate,
                        shift: rate.trailing_zeros(),
                        mask: rate - 1,
                        l1_lat: config.l1.latency_cycles,
                        est: (0, 0),
                    },
                )
            }
            "analytic" => {
                let hierarchy = CmpCacheHierarchy::new(config);
                let line = hierarchy.line_bytes();
                let profile = profile_for(&dag, line);
                let model = CacheModel::Analytic {
                    profile,
                    l1_blocks: config.l1.capacity_bytes as u64 / line,
                    l2_blocks: config.l2.capacity_bytes as u64 / line,
                    stats: HierarchyStats::new(config.cores),
                    l1_miss_credit: 0,
                    l2_miss_credit: 0,
                };
                (hierarchy, model)
            }
            _ => (CmpCacheHierarchy::new(config), CacheModel::Exact),
        };
        let block_shift = hierarchy.line_bytes().trailing_zeros();
        let feedback_window = policy.feedback_window().unwrap_or(u64::MAX);
        SimEngine {
            dag,
            config: *config,
            policy,
            options,
            hierarchy,
            cache_model,
            block_shift,
            cores: (0..config.cores).map(|_| CoreState::default()).collect(),
            events: EventQueue::new(),
            idle: vec![true; config.cores],
            available_at: vec![0; config.cores],
            wake_at: vec![u64::MAX; config.cores],
            steal_cycles: 0,
            remaining_preds,
            completed: 0,
            now: 0,
            memsys,
            offchip_queue_cycles: 0,
            bus_busy_base: 0,
            instructions: 0,
            memory_accesses: 0,
            profiler,
            disturbance_cursor: 0,
            next_disturbance_at,
            disturbance_accesses: 0,
            started: false,
            trace: None,
            policy_events: Vec::new(),
            trace_cache_window: DEFAULT_TRACE_CACHE_WINDOW,
            next_cache_sample_at: u64::MAX,
            cache_sample_base: (0, 0, 0),
            last_ready_depth: None,
            trace_core_clock: vec![0; config.cores],
            feedback_window,
            next_feedback_at: feedback_window,
            feedback_base: (0, 0, 0, 0),
        }
    }

    /// Install a trace sink and enable event emission.
    ///
    /// From now on the engine emits [`TraceEvent`]s (task start/complete,
    /// core idle/busy transitions, ready-depth and windowed cache counters)
    /// and drains the policy's buffered events (steals, migrations, the
    /// hybrid switch), stamping them with simulation time.  Use a
    /// [`pdfws_trace::SharedTrace`] handle to read the events back after the
    /// run.  Install the sink before the first [`SimEngine::run_for`] call so
    /// the initial dispatches are captured.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.policy.trace_enable();
        self.next_cache_sample_at = self.now.saturating_add(self.trace_cache_window);
        self.trace = Some(sink);
    }

    /// Remove the installed trace sink (if any), disabling event emission.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.next_cache_sample_at = u64::MAX;
        self.trace.take()
    }

    /// Change the period of the windowed cache-counter samples (default
    /// [`DEFAULT_TRACE_CACHE_WINDOW`] cycles).  The hierarchy's counters are
    /// snapshotted once per window and emitted as deltas — per-access events
    /// would dwarf everything else in the trace.
    pub fn set_trace_cache_window(&mut self, cycles: u64) {
        assert!(cycles > 0, "cache sample window must be positive");
        self.trace_cache_window = cycles;
        if self.trace.is_some() {
            self.next_cache_sample_at = self.now.saturating_add(cycles);
        }
    }

    /// Emit one event if a sink is installed.  Per-core events are clamped to
    /// the core's local trace clock (see `trace_core_clock`).
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            match event.core() {
                Some(core) => {
                    let clock = &mut self.trace_core_clock[core];
                    let t = event.time().max(*clock);
                    *clock = t;
                    sink.emit(event.with_time(t));
                }
                None => sink.emit(event),
            }
        }
    }

    /// Drain policy-buffered events, stamping them with time `t`.
    fn drain_policy_trace(&mut self, t: u64) {
        if self.trace.is_none() {
            return;
        }
        let mut buffered = std::mem::take(&mut self.policy_events);
        self.policy.trace_drain(&mut buffered);
        for event in buffered.drain(..) {
            self.emit(event.at(t));
        }
        self.policy_events = buffered;
    }

    /// Emit a ready-depth counter sample at time `t` unless unchanged.
    fn emit_ready_depth(&mut self, t: u64) {
        if self.trace.is_none() {
            return;
        }
        let depth = self.policy.ready_count() as u64;
        if self.last_ready_depth != Some(depth) {
            self.last_ready_depth = Some(depth);
            self.emit(TraceEvent::ReadyDepth { t, depth });
        }
    }

    /// Emit the windowed cache-counter sample if one is due at time `t`.
    /// With tracing off `next_cache_sample_at` is `u64::MAX`, so the inlined
    /// fast path is a single compare on the simulation hot loop.
    #[inline]
    fn sample_cache_window(&mut self, t: u64) {
        if t < self.next_cache_sample_at {
            return;
        }
        // Windows are emitted in every cache mode: exact reads the hierarchy
        // counters, sampled scales them back up, analytic reports the
        // pro-rata credited misses of the in-flight tasks.
        let (l1, l2) = match &self.cache_model {
            CacheModel::Exact => {
                let stats = self.hierarchy.stats();
                (stats.l1.iter().map(|c| c.misses()).sum(), stats.l2.misses())
            }
            CacheModel::Sampled { rate, .. } => {
                let stats = self.hierarchy.stats();
                (
                    stats.l1.iter().map(|c| c.misses()).sum::<u64>() * rate,
                    stats.l2.misses() * rate,
                )
            }
            CacheModel::Analytic {
                l1_miss_credit,
                l2_miss_credit,
                ..
            } => (*l1_miss_credit, *l2_miss_credit),
        };
        let accesses = self.memory_accesses + self.disturbance_accesses;
        let (base_acc, base_l1, base_l2) = self.cache_sample_base;
        self.cache_sample_base = (accesses, l1, l2);
        while self.next_cache_sample_at <= t {
            self.next_cache_sample_at = self
                .next_cache_sample_at
                .saturating_add(self.trace_cache_window);
        }
        self.emit(TraceEvent::CacheWindow {
            t,
            accesses: accesses - base_acc,
            l1_misses: l1 - base_l1,
            l2_misses: l2 - base_l2,
        });
        if let MemSysModel::BusDram(mem) = &self.memsys {
            let busy = mem.bus_busy_cycles();
            let depth = mem.backlog_cycles(t);
            let busy_cycles = busy - self.bus_busy_base;
            self.bus_busy_base = busy;
            self.emit(TraceEvent::BusOccupancy { t, busy_cycles });
            self.emit(TraceEvent::DramQueueDepth { t, depth });
        }
    }

    /// Report a windowed [`WindowFeedback`] sample to the policy if one is due
    /// at `t` (the end of an engine step).  Policies that do not ask for
    /// feedback keep `next_feedback_at` at `u64::MAX`, so the inlined fast
    /// path is a single compare.  Sampling at step ends keeps the observation
    /// times independent of how a run is quantized through
    /// [`SimEngine::run_for`], so stepped and un-stepped runs stay
    /// bit-identical.
    #[inline]
    fn sample_feedback(&mut self, t: u64) {
        if t < self.next_feedback_at {
            return;
        }
        // L2-miss totals per cache model, mirroring `sample_cache_window`.
        let l2 = match &self.cache_model {
            CacheModel::Exact => self.hierarchy.stats().l2.misses(),
            CacheModel::Sampled { rate, .. } => self.hierarchy.stats().l2.misses() * rate,
            CacheModel::Analytic { l2_miss_credit, .. } => *l2_miss_credit,
        };
        let migrations = self.policy.migrations();
        let (base_t, base_instr, base_l2, base_mig) = self.feedback_base;
        self.feedback_base = (t, self.instructions, l2, migrations);
        self.policy.observe_window(WindowFeedback {
            cycles: t - base_t,
            instructions: self.instructions - base_instr,
            l2_misses: l2 - base_l2,
            migrations: migrations - base_mig,
        });
        while self.next_feedback_at <= t {
            self.next_feedback_at = self.next_feedback_at.saturating_add(self.feedback_window);
        }
    }

    /// Run the simulation to completion and return the measurements.
    pub fn run(&mut self) -> SimResult {
        let status = self.run_for(u64::MAX);
        debug_assert_eq!(status, EngineStatus::Done);
        self.result()
    }

    /// Advance the simulation by at most `budget` cycles of simulated time.
    ///
    /// This is the multiprogramming entry point: a supervisor (such as
    /// `pdfws-stream`'s job-stream backend) can hold many engines and grant
    /// each one bounded quanta, time-multiplexing the modelled cores across
    /// concurrently admitted jobs.  An engine step that straddles the deadline
    /// is allowed to finish (overshoot is bounded by
    /// [`SimOptions::time_slice_cycles`] plus one task's memory stalls; in
    /// `cache=analytic` mode by `ANALYTIC_STEP_STRETCH` slices, since analytic
    /// burns batch whole stretches per step), so a quantum should be large
    /// relative to the time slice.
    pub fn run_for(&mut self, budget: u64) -> EngineStatus {
        if !self.started {
            self.started = true;
            self.policy.init(&self.dag);
            self.policy.task_ready(self.dag.root(), None);
            self.dispatch_idle_cores(self.now);
            self.emit_ready_depth(self.now);
        }
        let deadline = self.now.saturating_add(budget);

        'events: while let Some((time, _)) = self.events.peek() {
            if self.completed == self.dag.len() {
                // Once every task has completed, only dangling backoff wakes
                // (see `arm_wake`) can remain; drop them without advancing
                // the clock so they cannot inflate the makespan.
                self.events.pop();
                continue;
            }
            if time > deadline {
                // Nothing more to do inside this quantum; charge the idle gap.
                self.now = deadline;
                return EngineStatus::Running;
            }
            let (mut time, core) = self.events.pop().expect("peeked event exists");
            if self.wake_at[core] == time {
                // A backoff-retry wake (see `arm_wake`), not a step event.
                // Step events only exist for running cores, so if the core is
                // running at the wake's timestamp the queue necessarily holds
                // a second `(time, core)` entry for the actual step — consume
                // this one as the (now stale) wake and let the other proceed.
                self.wake_at[core] = u64::MAX;
                if self.cores[core].running.is_some() {
                    continue 'events;
                }
                if time > self.now {
                    self.now = time;
                }
                self.dispatch_idle_cores(self.now);
                self.emit_ready_depth(self.now);
                continue 'events;
            }
            // Step this core repeatedly while it remains *strictly* the
            // earliest event: re-queueing it would only pop it right back, so
            // the pop/push pair per bounded step is skipped entirely.  On a
            // tie the event goes back into the heap, which breaks ties by core
            // index exactly as a pop would, so the schedule (and therefore the
            // whole simulation) is unchanged.
            loop {
                self.now = time;
                self.inject_disturbance(time);
                let bound = match &self.memsys {
                    MemSysModel::Legacy { .. } => u64::MAX,
                    // A contention-free system (infinite capacity, flat
                    // latency) prices traffic independently of issue order, so
                    // the coarse legacy batching — and with it the exact event
                    // schedule — is preserved in the limiting case.
                    MemSysModel::BusDram(mem) if mem.contention_free() => u64::MAX,
                    MemSysModel::BusDram(_) => {
                        self.events.peek().map_or(u64::MAX, |(next, _)| next)
                    }
                };
                let (elapsed, finished) = self.step(core, time, bound);
                self.cores[core].busy_cycles += elapsed;
                let end = time + elapsed;
                // `now` must track step *ends*, not just event pop times, or the
                // makespan would miss the final step of the run.
                if end > self.now {
                    self.now = end;
                }
                self.sample_cache_window(self.now);
                self.sample_feedback(self.now);
                if finished {
                    let task = self.cores[core]
                        .running
                        .take()
                        .expect("finished step implies a running task")
                        .task;
                    self.complete_task(task, core, end);
                    if self.now >= deadline && !self.events.is_empty() {
                        return EngineStatus::Running;
                    }
                    continue 'events;
                }
                if self.now >= deadline {
                    self.events.push(end, core);
                    return EngineStatus::Running;
                }
                match self.events.peek() {
                    Some((next, _)) if end >= next => {
                        self.events.push(end, core);
                        continue 'events;
                    }
                    // Strictly earliest (or the only busy core): keep going.
                    _ => time = end,
                }
            }
        }

        assert_eq!(
            self.completed,
            self.dag.len(),
            "simulation ended with unexecuted tasks ({} of {}); the policy starved them",
            self.completed,
            self.dag.len()
        );
        EngineStatus::Done
    }

    /// Whether every task of the DAG has completed.
    pub fn is_done(&self) -> bool {
        self.completed == self.dag.len()
    }

    /// Simulated cycles elapsed on this engine's private clock so far.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Collect the measurements after [`SimEngine::run_for`] reported
    /// [`EngineStatus::Done`] (or [`SimEngine::is_done`] turned true).
    ///
    /// # Panics
    ///
    /// Panics if tasks remain unexecuted.
    pub fn result(&mut self) -> SimResult {
        assert!(
            self.is_done(),
            "result() requires a finished run ({} of {} tasks executed)",
            self.completed,
            self.dag.len()
        );
        let makespan = self
            .now
            .max(self.cores.iter().map(|c| c.busy_cycles).max().unwrap_or(0));
        let (offchip_queue_cycles, bus_queue_cycles, dram_queue_cycles) = match &self.memsys {
            MemSysModel::Legacy { .. } => (self.offchip_queue_cycles, 0, 0),
            MemSysModel::BusDram(mem) => {
                let bus = mem.bus_queue_cycles();
                let dram = mem.dram_queue_cycles();
                (bus + dram, bus, dram)
            }
        };
        SimResult {
            scheduler: self.policy.name(),
            cores: self.config.cores,
            cycles: makespan,
            instructions: self.instructions,
            memory_accesses: self.memory_accesses,
            tasks: self.dag.len(),
            busy_cycles: self.cores.iter().map(|c| c.busy_cycles).collect(),
            offchip_queue_cycles,
            bus_queue_cycles,
            dram_queue_cycles,
            migrations: self.policy.migrations(),
            steal_cycles: self.steal_cycles,
            hierarchy: match &self.cache_model {
                CacheModel::Exact => self.hierarchy.stats(),
                CacheModel::Sampled { rate, .. } => {
                    scale_hierarchy_stats(self.hierarchy.stats(), *rate)
                }
                CacheModel::Analytic { stats, .. } => stats.clone(),
            },
            working_set: self.profiler.take().map(WorkingSetProfiler::finish),
        }
    }

    /// Replace the multiprogramming co-runner between quanta.
    ///
    /// The job-stream supervisor uses this to model cache pressure from the
    /// *other* co-resident jobs: the disturbance strength can be raised and
    /// lowered as jobs are admitted and drain.  The next burst fires one
    /// period after the engine's current time.
    pub fn set_disturbance(&mut self, disturbance: Option<Disturbance>) {
        if let Some(d) = &disturbance {
            assert_valid_disturbance(d);
        }
        self.options.disturbance = disturbance;
        self.next_disturbance_at = match disturbance {
            Some(d) => self.now.saturating_add(d.period_cycles),
            None => u64::MAX,
        };
    }

    /// Number of references injected by the disturbance co-runner (not charged to
    /// the program's instruction count).
    pub fn disturbance_accesses(&self) -> u64 {
        self.disturbance_accesses
    }

    /// Simulate one bounded step of `core`'s running task starting at `start`.
    /// Returns the elapsed cycles and whether the task finished.
    ///
    /// `bound` is the next pending event time of any *other* core: under the
    /// component memory-system model the step yields before issuing work at or
    /// past it, so every bus/DRAM transaction is made in global time order.
    /// (The first access or burn always runs — the event queue already decided
    /// this core goes first at `start` — which guarantees progress.)  The
    /// stateful components require this temporal coherence: a core simulated
    /// thousands of cycles ahead would occupy the bus and banks "in the
    /// future", and a core popped later at an earlier timestamp would queue
    /// behind phantom traffic.  The legacy closed-form channel keeps the old
    /// coarse batching (`bound == u64::MAX`) and its exact cycle counts, as
    /// does a contention-free component system (see
    /// `MemSystem::contention_free`), whose costs cannot depend on issue
    /// order — that exemption is what makes the infinite-capacity limiting
    /// case reproduce legacy schedules bit-for-bit.
    fn step(&mut self, core: usize, start: u64, bound: u64) -> (u64, bool) {
        let base_slice = self.options.time_slice_cycles;
        // Analytic tasks are single pre-priced compute burns with no
        // per-reference events, so the only reasons to return to the event
        // loop are a pending disturbance burst and the next trace-window
        // sample.  Stretch the step bound to the nearest of those horizons
        // (hard-capped at [`ANALYTIC_STEP_STRETCH`] slices) instead of
        // bouncing through the event loop once per time slice; the credit
        // chunks below keep `time_slice_cycles` granularity, so channel
        // pacing is unchanged.  The stretch deliberately ignores the run_for
        // deadline — step sizes must not depend on how a run is quantized, or
        // stepped and un-stepped runs would diverge — which widens the
        // documented quantum overshoot to the stretched slice.
        let slice = if self.cores[core].analytic.is_some() {
            self.next_disturbance_at
                .min(self.next_cache_sample_at)
                .min(self.next_feedback_at)
                .saturating_sub(start)
                .min(base_slice.saturating_mul(ANALYTIC_STEP_STRETCH))
                .max(base_slice)
        } else {
            base_slice
        };
        let max_accesses = self.options.max_accesses_per_step as u64;
        let mut elapsed = 0u64;
        let mut accesses_this_step = 0u64;

        // Take the running task (and its access buffer / analytic state) out
        // to avoid aliasing with `self` during accesses.
        let mut running = self.cores[core]
            .running
            .take()
            .expect("step called on a core with no running task");
        let mut buffer = std::mem::take(&mut self.cores[core].buffer);
        let mut analytic = self.cores[core].analytic.take();

        let finished = loop {
            if running.finished() {
                break true;
            }
            if elapsed >= slice || accesses_this_step >= max_accesses {
                break false;
            }
            if elapsed > 0 && start + elapsed >= bound {
                break false;
            }
            if running.pending_compute > 0 {
                let burn = running
                    .pending_compute
                    .min(slice - elapsed)
                    .min(base_slice)
                    .max(1);
                running.pending_compute -= burn;
                elapsed += burn;
                match analytic.as_mut() {
                    None => self.instructions += burn,
                    Some(costs) => {
                        // Analytic mode: the whole task is one compute burn of
                        // its composed total time; pace this chunk's off-chip
                        // bytes through the closed-form channel.  The other
                        // counters are synced once per step, below.
                        let d_bytes = costs.credit_bytes(burn);
                        if d_bytes > 0 {
                            if let MemSysModel::Legacy {
                                bytes_per_cycle,
                                busy_until,
                            } = &mut self.memsys
                            {
                                let transfer = (d_bytes as f64 / *bytes_per_cycle).ceil() as u64;
                                if transfer > 0 {
                                    let at = start + elapsed;
                                    let queue_delay = busy_until.saturating_sub(at);
                                    *busy_until = at + queue_delay + transfer;
                                    self.offchip_queue_cycles += queue_delay;
                                    // Queuing stalls the core without
                                    // consuming composed task time.
                                    elapsed += queue_delay;
                                }
                            }
                        }
                    }
                }
                continue;
            }
            // Issue the next memory reference (pattern runs are expanded into
            // the per-core buffer in chunks; see `ACCESS_BUFFER_CHUNK`).
            let acc = buffer.next().or_else(|| {
                buffer.refill(&mut running, &self.dag);
                buffer.next()
            });
            let Some(acc) = acc else {
                // No references left; only trailing compute remains (or nothing).
                continue;
            };
            running.note_issued();
            let latency = self.issue_access(core, acc, start + elapsed);
            elapsed += latency;
            self.instructions += 1;
            self.memory_accesses += 1;
            accesses_this_step += 1;
        };

        if let Some(costs) = analytic.as_mut() {
            let (d_instr, d_refs, d_l1m, d_l2m) = costs.sync_counters();
            self.instructions += d_instr;
            self.memory_accesses += d_refs;
            if let CacheModel::Analytic {
                l1_miss_credit,
                l2_miss_credit,
                ..
            } = &mut self.cache_model
            {
                *l1_miss_credit += d_l1m;
                *l2_miss_credit += d_l2m;
            }
        }
        self.cores[core].running = Some(running);
        self.cores[core].buffer = buffer;
        self.cores[core].analytic = analytic;
        (elapsed, finished)
    }

    /// Issue one reference through the hierarchy at absolute time `at`,
    /// sending any off-chip traffic through the memory-system model.  Returns
    /// the reference's total latency.
    ///
    /// Under the component model an L2 *miss* replaces the hierarchy's flat
    /// memory latency with the transaction's end-to-end time (bus grant +
    /// DRAM service + data return), while a dirty-victim writeback from an L2
    /// *hit* is fully posted: the eviction drains from a write buffer off the
    /// core's critical path, costing the requester nothing but still
    /// occupying the bus and DRAM banks that later requests queue behind.
    fn issue_access(&mut self, core: usize, acc: MemAccess, at: u64) -> u64 {
        // Set/tag math is hoisted: the block address is computed once here
        // and reused by the profiler, the hierarchy and the memory system.
        let block = acc.addr >> self.block_shift;
        if let Some(p) = &mut self.profiler {
            p.record(block);
        }
        // Sampled mode: only blocks landing in the sampled sets (low bits
        // zero) are simulated, against the capacity-scaled hierarchy at
        // `block >> shift` — exactly the original sets ≡ 0 (mod rate).
        // Everything else is charged the running average hit-level latency.
        let (block, byte_scale) = match &self.cache_model {
            CacheModel::Sampled {
                rate,
                shift,
                mask,
                l1_lat,
                est,
            } => {
                if block & *mask != 0 {
                    // Charge the mean *observed* latency of recent sampled
                    // references — preferring the running task's own samples
                    // (tasks are the natural phase boundary), falling back
                    // to the engine-wide estimator, then to the L1 latency
                    // before any sample exists.  Observed latencies include
                    // the queuing the sampled transactions saw; unsampled
                    // references add no occupancy of their own, so this
                    // mirrors — not double-counts — the bandwidth pressure.
                    let (count, cycles) = match self.cores[core].sample_est {
                        (0, _) => *est,
                        task_est => task_est,
                    };
                    return match (cycles + count / 2).checked_div(count) {
                        Some(mean) => mean,
                        None => *l1_lat,
                    };
                }
                (block >> *shift, *rate)
            }
            _ => (block, 1),
        };
        let outcome = self.hierarchy.access_block(core, block, acc.write);
        let mut latency = outcome.latency;
        if outcome.offchip_bytes > 0 {
            // A sampled reference stands for `rate` of them: its off-chip
            // traffic occupies the memory system at scale.
            let offchip_bytes = outcome.offchip_bytes * byte_scale;
            match &mut self.memsys {
                MemSysModel::Legacy {
                    bytes_per_cycle,
                    busy_until,
                } => {
                    let transfer_cycles = (offchip_bytes as f64 / *bytes_per_cycle).ceil() as u64;
                    // A zero-cycle transfer (unbounded channel) occupies the
                    // channel for nothing and cannot queue — the same guard
                    // the component bus applies to zero-duration grants.
                    if transfer_cycles > 0 {
                        let queue_delay = busy_until.saturating_sub(at);
                        *busy_until = at + queue_delay + transfer_cycles;
                        self.offchip_queue_cycles += queue_delay;
                        latency += queue_delay;
                    }
                }
                MemSysModel::BusDram(mem) => {
                    let tx = mem.transact(core, block, offchip_bytes, at);
                    if outcome.is_offchip() {
                        // The hierarchy charged its flat memory latency; the
                        // transaction's observed end-to-end time replaces it.
                        // A sampled transaction moves `rate` lines of data in
                        // one transfer for occupancy's sake, but the single
                        // sampled reference only waits for its own line:
                        // queue delays in full, service pro-rata.  (With
                        // byte_scale == 1 this is exactly `tx.total_cycles`.)
                        let queue = tx.bus_queue_cycles + tx.dram_queue_cycles;
                        let service = tx.total_cycles - queue;
                        latency = latency.saturating_sub(self.config.memory_latency_cycles)
                            + queue
                            + service.div_ceil(byte_scale);
                    }
                    // Writeback-only traffic (a dirty victim behind an L2
                    // hit) is posted: no latency charge, only occupancy.
                }
            }
        }
        if let CacheModel::Sampled { est, .. } = &mut self.cache_model {
            // Feed the final observed latency (hit level plus any queuing)
            // into both estimators.  Halving a full window makes each an
            // exponentially-decayed mean, so estimates track the current
            // phase instead of the whole history.
            for e in [est, &mut self.cores[core].sample_est] {
                e.0 += 1;
                e.1 += latency;
                if e.0 >= SAMPLED_LATENCY_WINDOW {
                    e.0 /= 2;
                    e.1 /= 2;
                }
            }
        }
        latency
    }

    /// Handle completion of `task` on `core` at time `end`.
    fn complete_task(&mut self, task: TaskId, core: usize, end: u64) {
        self.completed += 1;
        if let Some(a) = self.cores[core].analytic.take() {
            if let CacheModel::Analytic { stats, .. } = &mut self.cache_model {
                // Synthesize hierarchy counters from the composed costs.  No
                // read/write split is available (reuse distances are
                // kind-blind), so everything lands in the read columns; the
                // derived metrics (misses, MPKI, off-chip bytes) are exact.
                stats.l1[core].read_hits += a.l1_hits;
                stats.l1[core].read_misses += a.l2_hits + a.misses;
                stats.l2.read_hits += a.l2_hits;
                stats.l2.read_misses += a.misses;
                stats.l2.writebacks += a.writebacks;
                stats.offchip_bytes += a.bytes_total;
                stats.memory_fills += a.misses;
            }
        }
        self.emit(TraceEvent::TaskComplete {
            t: end,
            core,
            task: task.index() as u64,
        });
        // Announce the completion first so frontier-tracking policies (e.g.
        // pdf:lag=N) see a fresh window before being asked for work.
        self.policy.task_complete(task, core);
        // Enable successors in reverse listing order (see module docs).
        for &s in self.dag.successors(task).iter().rev() {
            self.remaining_preds[s.index()] -= 1;
            if self.remaining_preds[s.index()] == 0 {
                self.policy.task_ready(s, Some(core));
            }
        }
        // Flush migrations buffered by `task_ready` before dispatch events.
        self.drain_policy_trace(end);
        // This core asks for work first (keeps locality for LIFO policies), then
        // every idle core gets a chance.
        if !self.poll_policy(core, end) {
            self.idle[core] = true;
            self.emit(TraceEvent::CoreIdle { t: end, core });
        }
        self.dispatch_idle_cores(end);
        self.emit_ready_depth(end);
    }

    /// Give every idle core a chance to pick up work at time `now`.  Cores
    /// still serving a failed-probe backoff are skipped; if work exists, a
    /// retry wake is queued so they probe again the moment the backoff
    /// expires.
    fn dispatch_idle_cores(&mut self, now: u64) {
        for core in 0..self.cores.len() {
            if self.idle[core] {
                if self.available_at[core] > now {
                    if self.policy.ready_count() > 0 {
                        self.arm_wake(core);
                    }
                    continue;
                }
                self.poll_policy(core, now);
            }
        }
        // Flush steal attempts/successes buffered by the `next_task` calls.
        self.drain_policy_trace(now);
    }

    /// Ask the policy for work for `core` at `now`, charging any dispatch
    /// cost it reports (see [`SchedulerPolicy::take_dispatch_cost`]) as real
    /// simulated cycles.  A successful steal priced at `c` cycles occupies
    /// the thief for `c` cycles before the stolen task starts; a failed probe
    /// with a backoff keeps the core out of the dispatch scan until the
    /// backoff expires.  Returns whether a task was started.
    fn poll_policy(&mut self, core: usize, now: u64) -> bool {
        match self.policy.next_task(core) {
            Some(task) => {
                let cost = self.policy.take_dispatch_cost();
                if cost > 0 {
                    self.cores[core].busy_cycles += cost;
                    self.steal_cycles += cost;
                }
                self.start_task(core, task, now + cost);
                true
            }
            None => {
                let cost = self.policy.take_dispatch_cost();
                if cost > 0 {
                    self.available_at[core] = now + cost;
                    if self.policy.ready_count() > 0 {
                        self.arm_wake(core);
                    }
                }
                false
            }
        }
    }

    /// Queue a retry event for a backed-off idle core — at most one per core
    /// at a time, since a duplicate probe would advance the victim-selection
    /// RNG and perturb the schedule.
    fn arm_wake(&mut self, core: usize) {
        if self.wake_at[core] == u64::MAX {
            self.wake_at[core] = self.available_at[core];
            self.events.push(self.available_at[core], core);
        }
    }

    fn start_task(&mut self, core: usize, task: TaskId, now: u64) {
        debug_assert!(self.cores[core].running.is_none());
        if self.trace.is_some() {
            if self.idle[core] {
                self.emit(TraceEvent::CoreBusy { t: now, core });
            }
            self.emit(TraceEvent::TaskStart {
                t: now,
                core,
                task: task.index() as u64,
            });
        }
        let running = if let CacheModel::Analytic {
            profile,
            l1_blocks,
            l2_blocks,
            ..
        } = &self.cache_model
        {
            // Compose the task's cache behaviour from its reuse-distance
            // profile: two histogram lookups price the whole task.
            let c = profile.task_costs(task, *l1_blocks, *l2_blocks);
            let node = self.dag.node(task);
            let t_total = node.compute_instructions
                + c.l1_hits * self.config.l1.latency_cycles
                + c.l2_hits * self.config.l2.latency_cycles
                + c.misses * self.config.memory_latency_cycles;
            let line = profile.line_bytes();
            self.cores[core].analytic = Some(AnalyticCosts {
                instr_total: node.compute_instructions + c.refs,
                refs: c.refs,
                l1_hits: c.l1_hits,
                l2_hits: c.l2_hits,
                misses: c.misses,
                writebacks: c.writebacks,
                bytes_total: (c.misses + c.writebacks) * line,
                t_total,
                ..AnalyticCosts::default()
            });
            RunningTask::new_analytic(task, t_total)
        } else {
            RunningTask::new(&self.dag, task)
        };
        self.cores[core].running = Some(running);
        self.cores[core].buffer.clear();
        self.cores[core].sample_est = (0, 0);
        self.idle[core] = false;
        self.events.push(now, core);
    }

    /// Inject any co-runner bursts due at or before `time`.
    ///
    /// The co-runner is a *rate*, not a backlog: if the measured program jumps
    /// far ahead in one event (a long-latency access), missed periods beyond a
    /// small catch-up window are dropped rather than replayed, and a burst
    /// whose scheduled time finds the memory system backlogged by more than
    /// one period is skipped entirely — the co-runner is itself stalled on
    /// memory.  Without this back-pressure an over-provisioned disturbance
    /// (more bytes per period than the memory system can move) would grow the
    /// queues without bound and the simulation would never converge.
    fn inject_disturbance(&mut self, time: u64) {
        let Some(d) = self.options.disturbance else {
            return;
        };
        if self.next_disturbance_at > time {
            return;
        }
        // Fast-forward: replay at most a few missed periods.
        const MAX_CATCHUP_PERIODS: u64 = 4;
        let behind = (time - self.next_disturbance_at) / d.period_cycles;
        if behind > MAX_CATCHUP_PERIODS {
            self.next_disturbance_at += (behind - MAX_CATCHUP_PERIODS) * d.period_cycles;
        }
        while self.next_disturbance_at <= time {
            let at = self.next_disturbance_at;
            self.next_disturbance_at += d.period_cycles;
            let backlog_until = match &self.memsys {
                MemSysModel::Legacy { busy_until, .. } => *busy_until,
                MemSysModel::BusDram(mem) => mem.backlog_until(),
            };
            if backlog_until > at.saturating_add(d.period_cycles) {
                // Memory system backlogged past the next period: the
                // co-runner's own fetches stall, so this burst never issues.
                continue;
            }
            for _ in 0..d.blocks_per_burst {
                let block = d.region_base_block + (self.disturbance_cursor % d.region_blocks);
                self.disturbance_cursor += 1;
                self.disturbance_accesses += 1;
                // The co-runner's pollution is filtered the same way the
                // program's references are: in sampled mode only sampled
                // blocks touch the (scaled) hierarchy, standing for `rate`
                // of them.  (Analytic program stats ignore the hierarchy,
                // but the channel occupancy below still applies pressure.)
                let (block, byte_scale) = match &self.cache_model {
                    CacheModel::Sampled {
                        mask, shift, rate, ..
                    } => {
                        if block & *mask != 0 {
                            continue;
                        }
                        (block >> *shift, *rate)
                    }
                    _ => (block, 1),
                };
                let outcome = self.hierarchy.access_block(0, block, false);
                let offchip_bytes = outcome.offchip_bytes * byte_scale;
                if offchip_bytes > 0 {
                    match &mut self.memsys {
                        MemSysModel::Legacy {
                            bytes_per_cycle,
                            busy_until,
                        } => {
                            let transfer = (offchip_bytes as f64 / *bytes_per_cycle).ceil() as u64;
                            *busy_until = (*busy_until).max(at) + transfer;
                        }
                        // The co-runner is its own bus requester, one id past
                        // the real cores.
                        MemSysModel::BusDram(mem) => {
                            mem.transact(self.config.cores, block, offchip_bytes, at);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{make_policy, simulate, simulate_sequential, SchedulerSpec};
    use pdfws_cmp_model::{default_config, MemSysParams};
    use pdfws_task_dag::builder::{DagBuilder, SpTree};
    use pdfws_task_dag::AccessPattern;

    fn leaf_tree(leaves: usize, instr: u64) -> pdfws_task_dag::TaskDag {
        SpTree::Par(
            (0..leaves)
                .map(|i| SpTree::leaf(&format!("l{i}"), instr))
                .collect(),
        )
        .into_dag()
        .unwrap()
    }

    #[test]
    fn all_tasks_execute_and_instructions_match_work() {
        let dag = leaf_tree(16, 1_000);
        let cfg = default_config(4).unwrap();
        for spec in [
            SchedulerSpec::pdf(),
            SchedulerSpec::ws(),
            SchedulerSpec::static_partition(),
        ] {
            let r = simulate(&dag, &cfg, &spec, &SimOptions::default());
            assert_eq!(r.tasks, dag.len());
            assert_eq!(r.instructions, dag.work(), "{spec}");
            assert_eq!(r.memory_accesses, 0);
            assert!(r.cycles >= dag.span(), "{spec}: makespan below the span");
            assert!(r.cycles <= dag.work(), "{spec}: makespan above the work");
        }
    }

    #[test]
    fn single_core_makespan_equals_work_for_compute_only_dags() {
        let dag = leaf_tree(8, 500);
        let cfg = default_config(1).unwrap();
        let r = simulate(&dag, &cfg, &SchedulerSpec::pdf(), &SimOptions::default());
        assert_eq!(r.cycles, dag.work());
        assert!((r.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn compute_only_dag_scales_with_cores() {
        let dag = leaf_tree(64, 2_000);
        let seq = simulate_sequential(&dag, &default_config(1).unwrap(), &SimOptions::default());
        for (cores, min_speedup) in [(2usize, 1.8), (4, 3.5), (8, 6.0)] {
            let cfg = default_config(cores).unwrap();
            for spec in SchedulerSpec::paper_pair() {
                let r = simulate(&dag, &cfg, &spec, &SimOptions::default());
                let s = r.speedup_over(&seq);
                assert!(
                    s >= min_speedup && s <= cores as f64 + 1e-9,
                    "{spec} on {cores} cores: speedup {s}"
                );
            }
        }
    }

    #[test]
    fn greedy_property_no_idle_core_while_tasks_are_ready() {
        // With far more independent equal leaves than cores, utilisation must be
        // near perfect for every policy (greedy scheduling).
        let dag = leaf_tree(256, 300);
        let cfg = default_config(8).unwrap();
        for spec in [
            SchedulerSpec::pdf(),
            SchedulerSpec::ws(),
            SchedulerSpec::static_partition(),
        ] {
            let r = simulate(&dag, &cfg, &spec, &SimOptions::default());
            assert!(
                r.utilization() > 0.90,
                "{spec}: utilisation {}",
                r.utilization()
            );
        }
    }

    #[test]
    fn memory_accesses_flow_through_the_hierarchy() {
        let mut b = DagBuilder::new();
        let root = b
            .task("reader")
            .instructions(10)
            .access(AccessPattern::range_read(0, 64 * 100))
            .build();
        let child = b
            .task("re-reader")
            .instructions(10)
            .access(AccessPattern::range_read(0, 64 * 100))
            .build();
        b.edge(root, child);
        let dag = b.finish().unwrap();
        let cfg = default_config(2).unwrap();
        let r = simulate(&dag, &cfg, &SchedulerSpec::pdf(), &SimOptions::default());
        assert_eq!(r.memory_accesses, 200);
        assert_eq!(r.instructions, dag.work());
        // First pass misses (100 cold misses), second pass hits in cache.
        assert_eq!(r.hierarchy.memory_fills, 100);
        assert_eq!(r.hierarchy.l2_misses(), 100);
        assert!(r.l2_mpki() > 0.0);
        assert_eq!(r.offchip_bytes(), 100 * 64);
    }

    #[test]
    fn offchip_bandwidth_contention_slows_missing_workloads() {
        // With a tiny off-chip bandwidth the run must take far longer and record
        // queueing cycles.
        let dag = streaming_dag();
        let mut fat = default_config(8).unwrap();
        fat.offchip_bytes_per_cycle = 1024.0;
        let mut thin = fat;
        thin.offchip_bytes_per_cycle = 0.5;
        let fast = simulate(&dag, &fat, &SchedulerSpec::pdf(), &SimOptions::default());
        let slow = simulate(&dag, &thin, &SchedulerSpec::pdf(), &SimOptions::default());
        assert!(
            slow.cycles > fast.cycles * 2,
            "{} vs {}",
            slow.cycles,
            fast.cycles
        );
        assert!(slow.offchip_queue_cycles > 0);
        assert_eq!(fast.hierarchy.l2_misses(), slow.hierarchy.l2_misses());
        // Under the default component model the queuing is split between the
        // bus and the DRAM controller, and the split accounts for the total.
        assert_eq!(
            slow.bus_queue_cycles + slow.dram_queue_cycles,
            slow.offchip_queue_cycles
        );
        assert!(slow.bus_queue_cycles > 0);
    }

    /// A DAG whose leaves stream disjoint data, so every reference misses.
    fn streaming_dag() -> pdfws_task_dag::TaskDag {
        let leaves: Vec<SpTree> = (0..8)
            .map(|i| {
                SpTree::leaf_with_accesses(
                    &format!("s{i}"),
                    100,
                    vec![AccessPattern::range_read(i as u64 * (1 << 22), 64 * 2_000)],
                )
            })
            .collect();
        SpTree::Par(leaves).into_dag().unwrap()
    }

    #[test]
    fn legacy_model_is_selectable_and_differs_from_the_component_model() {
        let dag = streaming_dag();
        let mut cfg = default_config(8).unwrap();
        cfg.offchip_bytes_per_cycle = 1.0;
        let mut legacy_cfg = cfg;
        legacy_cfg.memsys = MemSysParams::legacy();
        let component = simulate(&dag, &cfg, &SchedulerSpec::pdf(), &SimOptions::default());
        let legacy = simulate(
            &dag,
            &legacy_cfg,
            &SchedulerSpec::pdf(),
            &SimOptions::default(),
        );
        // Both models make the thin channel hurt...
        assert!(component.offchip_queue_cycles > 0);
        assert!(legacy.offchip_queue_cycles > 0);
        // ...but the component model splits its queuing while legacy cannot,
        // and the two cost models disagree on the makespan.
        assert!(component.bus_queue_cycles > 0);
        assert_eq!(legacy.bus_queue_cycles, 0);
        assert_eq!(legacy.dram_queue_cycles, 0);
        assert_ne!(component.cycles, legacy.cycles);
    }

    #[test]
    fn infinite_capacity_component_model_reproduces_legacy_exactly() {
        // With an unbounded bus and controller and hit == miss == the flat
        // memory latency, every transaction costs exactly what the legacy
        // model charges an uncontended miss — so on an uncontended channel
        // (infinite bandwidth) the two models must agree cycle-for-cycle.
        let dag = streaming_dag();
        let mut cfg = default_config(8).unwrap();
        cfg.offchip_bytes_per_cycle = f64::INFINITY;
        let mut legacy_cfg = cfg;
        legacy_cfg.memsys = MemSysParams::legacy();
        let mut pinned_cfg = cfg;
        pinned_cfg.memsys = MemSysParams {
            dram_hit_cycles: Some(cfg.memory_latency_cycles),
            dram_miss_cycles: Some(cfg.memory_latency_cycles),
            ..MemSysParams::bus_dram()
        };
        for spec in SchedulerSpec::paper_pair() {
            let legacy = simulate(&dag, &legacy_cfg, &spec, &SimOptions::default());
            let pinned = simulate(&dag, &pinned_cfg, &spec, &SimOptions::default());
            assert_eq!(legacy.cycles, pinned.cycles, "{spec}");
            assert_eq!(legacy.offchip_queue_cycles, 0, "{spec}");
            assert_eq!(pinned.offchip_queue_cycles, 0, "{spec}");
            assert_eq!(legacy.busy_cycles, pinned.busy_cycles, "{spec}");
        }
    }

    #[test]
    fn deterministic_given_identical_inputs() {
        let dag = leaf_tree(32, 700);
        let cfg = default_config(4).unwrap();
        for spec in [
            SchedulerSpec::pdf(),
            SchedulerSpec::ws(),
            "ws:victim=random,seed=11".parse().unwrap(),
            "hybrid:threshold=2".parse().unwrap(),
        ] {
            let a = simulate(&dag, &cfg, &spec, &SimOptions::default());
            let b = simulate(&dag, &cfg, &spec, &SimOptions::default());
            assert_eq!(a, b, "{spec} must be deterministic");
        }
    }

    #[test]
    fn working_set_profiling_reports_footprint() {
        let mut b = DagBuilder::new();
        let _ = b
            .task("scan")
            .access(AccessPattern::range_read(0, 64 * 500))
            .build();
        let dag = b.finish().unwrap();
        let cfg = default_config(1).unwrap();
        let opts = SimOptions {
            working_set_window: Some(100),
            ..SimOptions::default()
        };
        let r = simulate(&dag, &cfg, &SchedulerSpec::pdf(), &opts);
        let ws = r.working_set.expect("profiling was enabled");
        assert_eq!(ws.footprint_blocks, 500);
        assert_eq!(ws.per_window_blocks.len(), 5);
        assert_eq!(ws.peak_blocks, 100);
    }

    #[test]
    fn disturbance_pollutes_the_l2_and_slows_the_program() {
        // A program that re-reads the same small buffer many times: without
        // disturbance everything after the first pass hits; with an aggressive
        // co-runner its blocks keep getting evicted, so it runs slower.
        let mut b = DagBuilder::new();
        let _ = b
            .task("reuse")
            .access(AccessPattern::repeated_read(0, 64 * 256, 40))
            .build();
        let dag = b.finish().unwrap();
        let mut cfg = default_config(2).unwrap();
        // Small L2 so the co-runner's region actually displaces the program.
        cfg.l2.capacity_bytes = 64 * 1024;
        cfg.l2.associativity = 8;
        cfg.validate().unwrap();
        let clean = simulate(&dag, &cfg, &SchedulerSpec::pdf(), &SimOptions::default());
        let noisy_opts = SimOptions {
            disturbance: Some(Disturbance {
                period_cycles: 2_000,
                blocks_per_burst: 512,
                region_base_block: 1 << 30,
                region_blocks: 2048,
            }),
            ..SimOptions::default()
        };
        let noisy = simulate(&dag, &cfg, &SchedulerSpec::pdf(), &noisy_opts);
        assert!(
            noisy.cycles > clean.cycles,
            "{} vs {}",
            noisy.cycles,
            clean.cycles
        );
        assert!(noisy.hierarchy.l2_misses() > clean.hierarchy.l2_misses());
    }

    #[test]
    fn make_policy_and_engine_agree_on_core_counts() {
        let dag = leaf_tree(4, 100);
        let cfg = default_config(2).unwrap();
        let policy = make_policy(&SchedulerSpec::ws(), cfg.cores);
        let mut engine = SimEngine::new(&dag, &cfg, policy, SimOptions::default());
        let r = engine.run();
        assert_eq!(r.busy_cycles.len(), 2);
        assert_eq!(engine.disturbance_accesses(), 0);
    }

    #[test]
    fn quantum_stepping_matches_a_single_run() {
        let dag = leaf_tree(32, 700);
        let cfg = default_config(4).unwrap();
        for spec in SchedulerSpec::paper_pair() {
            let full = simulate(&dag, &cfg, &spec, &SimOptions::default());
            let mut engine =
                SimEngine::new(&dag, &cfg, make_policy(&spec, 4), SimOptions::default());
            let mut quanta = 0u32;
            while engine.run_for(500) == EngineStatus::Running {
                quanta += 1;
                assert!(quanta < 1_000_000, "{spec}: engine failed to make progress");
            }
            assert!(engine.is_done());
            assert_eq!(
                engine.result(),
                full,
                "{spec}: stepping changed the simulation"
            );
        }
    }

    #[test]
    fn run_for_reports_running_before_done() {
        let dag = leaf_tree(16, 10_000);
        let cfg = default_config(2).unwrap();
        let mut engine = SimEngine::new(
            &dag,
            &cfg,
            make_policy(&SchedulerSpec::pdf(), 2),
            SimOptions::default(),
        );
        assert_eq!(engine.run_for(100), EngineStatus::Running);
        assert!(!engine.is_done());
        assert!(engine.now() >= 100);
        assert_eq!(engine.run_for(u64::MAX), EngineStatus::Done);
        assert!(engine.is_done());
    }

    #[test]
    #[should_panic(expected = "requires a finished run")]
    fn result_before_completion_panics() {
        let dag = leaf_tree(16, 10_000);
        let cfg = default_config(2).unwrap();
        let mut engine = SimEngine::new(
            &dag,
            &cfg,
            make_policy(&SchedulerSpec::pdf(), 2),
            SimOptions::default(),
        );
        let _ = engine.run_for(100);
        let _ = engine.result();
    }

    #[test]
    fn disturbance_can_be_toggled_between_quanta() {
        let mut b = DagBuilder::new();
        let _ = b
            .task("reuse")
            .access(AccessPattern::repeated_read(0, 64 * 256, 40))
            .build();
        let dag = b.finish().unwrap();
        let cfg = default_config(2).unwrap();
        let mut engine = SimEngine::new(
            &dag,
            &cfg,
            make_policy(&SchedulerSpec::pdf(), 2),
            SimOptions::default(),
        );
        assert_eq!(engine.run_for(2_000), EngineStatus::Running);
        assert_eq!(engine.disturbance_accesses(), 0);
        // A light co-runner: well within the off-chip budget, so the run still
        // converges quickly.
        engine.set_disturbance(Some(Disturbance {
            period_cycles: 2_000,
            blocks_per_burst: 16,
            region_base_block: 1 << 30,
            region_blocks: 64,
        }));
        let mut quanta = 0u32;
        while engine.run_for(50_000) == EngineStatus::Running {
            quanta += 1;
            assert!(quanta < 100_000, "engine failed to converge");
        }
        assert!(
            engine.disturbance_accesses() > 0,
            "co-runner never injected after being enabled mid-run"
        );
    }

    #[test]
    #[should_panic(expected = "disturbance period must be positive")]
    fn zero_period_disturbance_is_rejected() {
        let dag = leaf_tree(2, 10);
        let cfg = default_config(1).unwrap();
        let mut engine = SimEngine::new(
            &dag,
            &cfg,
            make_policy(&SchedulerSpec::pdf(), 1),
            SimOptions::default(),
        );
        engine.set_disturbance(Some(Disturbance {
            period_cycles: 0,
            blocks_per_burst: 1,
            region_base_block: 0,
            region_blocks: 1,
        }));
    }

    /// A reuse-heavy DAG: every leaf streams a range, then a second wave
    /// re-reads it (hits if the cache holds it).
    fn reuse_dag(leaves: usize, blocks_per_leaf: u64) -> pdfws_task_dag::TaskDag {
        let mut b = DagBuilder::new();
        let root = b.task("root").instructions(10).build();
        for i in 0..leaves {
            let base = i as u64 * (1 << 24);
            let first = b
                .task(&format!("fill{i}"))
                .instructions(500)
                .access(AccessPattern::range_read(base, 64 * blocks_per_leaf))
                .build();
            let second = b
                .task(&format!("reuse{i}"))
                .instructions(500)
                .access(AccessPattern::range_write(base, 64 * blocks_per_leaf))
                .build();
            b.edge(root, first);
            b.edge(first, second);
        }
        b.finish().unwrap()
    }

    fn options_with_mode(mode: &str) -> SimOptions {
        SimOptions {
            cache_mode: mode.parse().unwrap(),
            ..SimOptions::default()
        }
    }

    #[test]
    fn sampled_mode_tracks_exact_statistics() {
        let dag = reuse_dag(8, 4_000);
        let cfg = default_config(4).unwrap();
        for spec in SchedulerSpec::paper_pair() {
            let exact = simulate(&dag, &cfg, &spec, &SimOptions::default());
            let sampled = simulate(&dag, &cfg, &spec, &options_with_mode("sampled:rate=16"));
            // Same program: instruction and reference counts are exact.
            assert_eq!(sampled.instructions, exact.instructions, "{spec}");
            assert_eq!(sampled.memory_accesses, exact.memory_accesses, "{spec}");
            // Cache statistics are estimates within the declared tolerance.
            let (em, sm) = (exact.l2_mpki(), sampled.l2_mpki());
            let budget =
                pdfws_cache_sim::MPKI_TOLERANCE_SAMPLED * em + pdfws_cache_sim::MPKI_SLACK_ABS;
            assert!(
                (sm - em).abs() <= budget,
                "{spec}: sampled MPKI {sm} vs exact {em}"
            );
            // Makespan should be in the same regime (not an accuracy claim,
            // a sanity bound: the expected-latency path can't collapse time).
            let ratio = sampled.cycles as f64 / exact.cycles as f64;
            assert!((0.5..2.0).contains(&ratio), "{spec}: cycle ratio {ratio}");
        }
    }

    #[test]
    fn sampled_rate_is_clamped_to_the_set_count() {
        // A tiny L1 (few sets): an absurd rate must clamp, not panic.
        let dag = reuse_dag(2, 500);
        let mut cfg = default_config(2).unwrap();
        cfg.l1.capacity_bytes = 64 * 4 * 8; // 8 sets at 4-way
        cfg.validate().unwrap();
        let r = simulate(
            &dag,
            &cfg,
            &SchedulerSpec::pdf(),
            &options_with_mode("sampled:rate=1024"),
        );
        assert_eq!(r.tasks, dag.len());
        assert!(r.hierarchy.l2_misses() > 0);
    }

    #[test]
    fn analytic_mode_reproduces_program_totals_and_plausible_cache_stats() {
        let dag = reuse_dag(8, 4_000);
        let cfg = default_config(4).unwrap();
        for spec in SchedulerSpec::paper_pair() {
            let exact = simulate(&dag, &cfg, &spec, &SimOptions::default());
            let analytic = simulate(&dag, &cfg, &spec, &options_with_mode("analytic"));
            assert_eq!(analytic.tasks, dag.len(), "{spec}");
            assert_eq!(analytic.instructions, exact.instructions, "{spec}");
            assert_eq!(analytic.memory_accesses, exact.memory_accesses, "{spec}");
            let (em, am) = (exact.l2_mpki(), analytic.l2_mpki());
            let budget =
                pdfws_cache_sim::MPKI_TOLERANCE_ANALYTIC * em + pdfws_cache_sim::MPKI_SLACK_ABS;
            assert!(
                (am - em).abs() <= budget,
                "{spec}: analytic MPKI {am} vs exact {em}"
            );
            assert!(analytic.offchip_bytes() > 0, "{spec}");
            assert!(analytic.cycles > 0, "{spec}");
        }
    }

    #[test]
    fn analytic_mode_is_deterministic_and_quantum_safe() {
        let dag = reuse_dag(4, 1_000);
        let cfg = default_config(4).unwrap();
        let opts = options_with_mode("analytic");
        let a = simulate(&dag, &cfg, &SchedulerSpec::pdf(), &opts);
        let b = simulate(&dag, &cfg, &SchedulerSpec::pdf(), &opts);
        assert_eq!(a, b, "analytic mode must be deterministic");
        // Quantum stepping must agree with a single run, as in exact mode.
        let mut engine = SimEngine::new(&dag, &cfg, make_policy(&SchedulerSpec::pdf(), 4), opts);
        while engine.run_for(700) == EngineStatus::Running {}
        assert_eq!(engine.result(), a, "stepping changed the analytic run");
    }

    #[test]
    fn analytic_mode_forces_the_legacy_channel_and_skips_working_sets() {
        let dag = reuse_dag(2, 500);
        let cfg = default_config(2).unwrap();
        let opts = SimOptions {
            working_set_window: Some(100),
            ..options_with_mode("analytic")
        };
        let r = simulate(&dag, &cfg, &SchedulerSpec::pdf(), &opts);
        // The component bus/DRAM split never applies in analytic mode.
        assert_eq!(r.bus_queue_cycles, 0);
        assert_eq!(r.dram_queue_cycles, 0);
        // There is no reference stream to profile.
        assert!(r.working_set.is_none());
    }

    #[test]
    fn compute_only_dags_are_identical_across_all_modes() {
        // With no memory references the three modes must agree exactly.
        let dag = leaf_tree(16, 1_000);
        let cfg = default_config(4).unwrap();
        let exact = simulate(&dag, &cfg, &SchedulerSpec::ws(), &SimOptions::default());
        for mode in ["sampled:rate=8", "analytic"] {
            let r = simulate(&dag, &cfg, &SchedulerSpec::ws(), &options_with_mode(mode));
            assert_eq!(r.cycles, exact.cycles, "{mode}");
            assert_eq!(r.instructions, exact.instructions, "{mode}");
        }
    }

    #[test]
    #[should_panic(expected = "time slice")]
    fn zero_time_slice_is_rejected() {
        let dag = leaf_tree(2, 10);
        let cfg = default_config(1).unwrap();
        let opts = SimOptions {
            time_slice_cycles: 0,
            ..SimOptions::default()
        };
        let _ = SimEngine::new(&dag, &cfg, make_policy(&SchedulerSpec::pdf(), 1), opts);
    }
}
