//! The cycle-level CMP execution engine: an event core over one memory layer.
//!
//! The **event core** ([`SimEngine`]) advances simulated cores through a
//! task DAG under a [`SchedulerPolicy`].  It repeatedly picks the core whose
//! next step starts earliest and simulates a bounded *step* of its task — an
//! interleaving of compute (one instruction per cycle) and memory references,
//! at most [`TIME_SLICE_CYCLES`] cycles or [`MAX_ACCESSES_PER_STEP`]
//! references — fine enough to capture constructive and destructive sharing
//! on the shared L2, far faster than per-cycle lockstep.  Completions enable
//! successors (in reverse listing order, so LIFO policies descend
//! leftmost-first like the sequential program) and wake idle cores.  The
//! core also owns dispatch (priced steals, backoff wakes), the co-runner's
//! bursts and the policy's feedback windows.  It observes nothing itself:
//! while a trace sink is installed it calls the hooks of a `Tracer`
//! (`tracer.rs`) at task start and completion, idle cores, dispatch rounds,
//! step ends and the last completion, and the tracer decides what each
//! emits.
//!
//! The **memory layer** prices what the tasks touch, the same way for every
//! policy: the reference pricer (`pricing.rs`) owns the cache hierarchy and
//! sends every reference through it; the [`OffChip`] model carries every L2
//! fill and writeback — the shared bus and banked DRAM of `pdfws-memsys`,
//! where queuing is emergent, or the closed-form legacy channel (`--memsys
//! legacy`).  Neither is a trait object: the pricer runs once per simulated
//! reference, and the off-chip model is an enum whose variants are closed.

use crate::policy::{SchedulerPolicy, WindowFeedback};
use crate::pricing::RefPricer;
use crate::result::SimResult;
use crate::tracer::Tracer;
use pdfws_cmp_model::CmpConfig;
use pdfws_memsys::{EventQueue, OffChip};
use pdfws_task_dag::{MemAccess, TaskDag, TaskId};
use pdfws_trace::TraceSink;
use std::sync::Arc;

/// Upper bound on the simulated cycles one engine step may cover.
pub const TIME_SLICE_CYCLES: u64 = 256;

/// Upper bound on the memory references one engine step may issue.
pub const MAX_ACCESSES_PER_STEP: u64 = 64;

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

impl Disturbance {
    /// Check the co-runner can be injected: a zero period or an empty region
    /// would divide by zero in the injection loop.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.period_cycles == 0 {
            return Err(EngineError::Disturbance("period must be positive"));
        }
        if self.region_blocks == 0 {
            return Err(EngineError::Disturbance("region must be non-empty"));
        }
        Ok(())
    }
}

/// A request the engine cannot honour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The co-runner cannot be injected (see [`Disturbance::validate`]).
    Disturbance(&'static str),
    /// [`SimEngine::result`] was asked for before every task completed.
    Unfinished {
        /// Tasks executed so far.
        completed: usize,
        /// Tasks in the DAG.
        tasks: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Disturbance(reason) => write!(f, "invalid disturbance: {reason}"),
            EngineError::Unfinished { completed, tasks } => write!(
                f,
                "result() requires a finished run ({completed} of {tasks} tasks executed)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// What one run simulates besides the DAG, machine and policy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOptions {
    /// Optional multiprogramming co-runner.
    pub disturbance: Option<Disturbance>,
}

/// Host-side work counters of one engine run (see [`SimEngine::counters`]).
///
/// They count what the event loop did, not what the simulated machine did,
/// so they are kept out of [`SimResult`]: a change to the loop may move them
/// without moving a simulated number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Steps taken: one per step event of a running core.
    pub steps: u64,
    /// Steps that issued no memory reference (compute only, or a task's
    /// last, empty step).
    pub empty_steps: u64,
    /// Events popped from the event queue: completions, backoff wakes and
    /// dangling wakes dropped after the last task.
    pub queue_pops: u64,
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
    /// A task issuing `total_accesses` references with `compute` compute
    /// cycles spread evenly over the gaps around them.
    fn new(task: TaskId, total_accesses: u64, compute: u64) -> Self {
        let gaps = total_accesses + 1;
        let compute_per_gap = compute / gaps;
        let compute_remainder = compute % gaps;
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
/// untouched.  A chunk is 2 KiB, so 32 cores' buffers stay in the host's
/// caches next to the hierarchy's arrays; at 1024 references (16 KiB each)
/// a core's next reference had usually been evicted by the time it ran.
const ACCESS_BUFFER_CHUNK: u64 = 128;

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
        self.clear();
        running.expand(dag, ACCESS_BUFFER_CHUNK, &mut self.items);
    }

    fn clear(&mut self) {
        self.items.clear();
        self.cursor = 0;
    }
}

#[derive(Debug, Default)]
struct CoreState {
    running: Option<RunningTask>,
    busy_cycles: u64,
    /// Expanded-but-unconsumed references of the running task.
    buffer: AccessBuffer,
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
    dag: Arc<TaskDag>,
    config: CmpConfig,
    policy: Box<dyn SchedulerPolicy>,
    /// The memory layer: the cache hierarchy every reference is priced
    /// through ...
    pricer: RefPricer,
    /// ... and the off-chip model every L2 fill and writeback crosses.
    offchip: OffChip,
    cores: Vec<CoreState>,
    /// Earliest time each busy core can take its next step, plus backoff
    /// wakes (cores are the scheduled ids; the memory-system components are
    /// driven synchronously from the issuing core's timeline).  The stepping
    /// core's event stays at the top while it steps (see `run_for`).
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
    instructions: u64,
    memory_accesses: u64,
    /// The multiprogramming co-runner, if any.
    disturbance: Option<Disturbance>,
    disturbance_cursor: u64,
    next_disturbance_at: u64,
    disturbance_accesses: u64,
    started: bool,
    /// The observer of a traced run; `None` (the default) disables tracing
    /// at the cost of one branch per hook.
    tracer: Option<Box<Tracer>>,
    /// Period of the policy feedback windows (`u64::MAX` when the policy does
    /// not ask for feedback — see [`SchedulerPolicy::feedback_window`]).
    feedback_window: u64,
    /// Cycle at which the next policy feedback sample is due.
    next_feedback_at: u64,
    /// (cycles, instructions, l2 misses, migrations) totals at the previous
    /// feedback sample, so windows report deltas.
    feedback_base: (u64, u64, u64, u64),
    counters: EngineCounters,
}

impl SimEngine {
    /// Build an engine for one run.  The caches start cold.
    ///
    /// Clones the DAG once; callers that already share the DAG (the job-stream
    /// backend) should use [`SimEngine::with_shared_dag`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not validate or `options.disturbance` fails
    /// [`Disturbance::validate`].
    pub fn new(
        dag: &TaskDag,
        config: &CmpConfig,
        policy: Box<dyn SchedulerPolicy>,
        options: SimOptions,
    ) -> Self {
        Self::with_shared_dag(Arc::new(dag.clone()), config, policy, options)
    }

    /// Build an engine over a shared DAG without copying it.  Panics like
    /// [`SimEngine::new`].
    pub fn with_shared_dag(
        dag: Arc<TaskDag>,
        config: &CmpConfig,
        policy: Box<dyn SchedulerPolicy>,
        options: SimOptions,
    ) -> Self {
        config.validate().expect("CMP configuration must be valid");
        let (pricer, offchip) = RefPricer::memory_layer(config);
        let feedback_window = policy.feedback_window().unwrap_or(u64::MAX);
        let mut engine = SimEngine {
            remaining_preds: dag.in_degrees(),
            dag,
            config: *config,
            policy,
            pricer,
            offchip,
            cores: (0..config.cores).map(|_| CoreState::default()).collect(),
            events: EventQueue::new(),
            idle: vec![true; config.cores],
            available_at: vec![0; config.cores],
            wake_at: vec![u64::MAX; config.cores],
            steal_cycles: 0,
            completed: 0,
            now: 0,
            instructions: 0,
            memory_accesses: 0,
            disturbance: None,
            disturbance_cursor: 0,
            next_disturbance_at: u64::MAX,
            disturbance_accesses: 0,
            started: false,
            tracer: None,
            feedback_window,
            next_feedback_at: feedback_window,
            feedback_base: (0, 0, 0, 0),
            counters: EngineCounters::default(),
        };
        engine
            .set_disturbance(options.disturbance)
            .expect("SimOptions::disturbance must be valid");
        engine
    }

    /// Install a trace sink and enable event emission.
    ///
    /// From now on the engine emits [`TraceEvent`](pdfws_trace::TraceEvent)s
    /// (task start/complete, core idle/busy transitions, ready-depth and
    /// windowed cache counters) and drains the policy's buffered events
    /// (steals, migrations, the hybrid switch), stamping them with
    /// simulation time.  Use a [`pdfws_trace::SharedTrace`] handle to read
    /// the events back after the run.  Install the sink before the first
    /// [`SimEngine::run_for`] call so the initial dispatches are captured.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.policy.trace_enable();
        self.tracer = Some(Box::new(Tracer::new(sink, self.now, self.config.cores)));
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
        let (_, l2) = self.pricer.miss_totals();
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
        self.run_for(u64::MAX);
        self.result()
            .expect("an unbounded run_for finishes every task")
    }

    /// Advance the simulation by at most `budget` cycles of simulated time.
    ///
    /// This is the multiprogramming entry point: a supervisor (such as
    /// `pdfws-stream`'s job-stream backend) can hold many engines and grant
    /// each one bounded quanta, time-multiplexing the modelled cores across
    /// concurrently admitted jobs.  An engine step that straddles the deadline
    /// is allowed to finish (overshoot is bounded by [`TIME_SLICE_CYCLES`]
    /// plus one step's memory stalls), so a quantum should be large relative
    /// to the time slice.
    pub fn run_for(&mut self, budget: u64) -> EngineStatus {
        if !self.started {
            self.started = true;
            self.policy.init(&self.dag);
            self.policy.task_ready(self.dag.root(), None);
            self.dispatch_idle_cores(self.now);
        }
        let deadline = self.now.saturating_add(budget);

        // The stepping core's event stays at the top of the queue: a step is
        // bounded by the next event below it (`peek_second`), a yielding step
        // re-keys the top in place (the sorted ring shifts only the entries
        // between the new key and its nearer end, none when the core goes
        // behind every other), and only completions and backoff wakes pop.
        // Pop order depends only on the `(time, core)` keys, so the schedule
        // is the one a pop-then-push loop would produce.
        while let Some((time, core)) = self.events.peek() {
            if self.completed == self.dag.len() {
                // Once every task has completed, only dangling backoff wakes
                // (see `arm_wake`) can remain; drop them without advancing
                // the clock so they cannot inflate the makespan.
                self.events.pop();
                self.counters.queue_pops += 1;
                continue;
            }
            if time > deadline {
                // Nothing more to do inside this quantum; charge the idle gap.
                self.now = deadline;
                return EngineStatus::Running;
            }
            if self.wake_at[core] == time {
                // A backoff-retry wake (see `arm_wake`), not a step event.
                // Step events only exist for running cores, so if the core is
                // running at the wake's timestamp the queue necessarily holds
                // a second `(time, core)` entry for the actual step — consume
                // this one as the (now stale) wake and let the other proceed.
                self.events.pop();
                self.counters.queue_pops += 1;
                self.wake_at[core] = u64::MAX;
                if self.cores[core].running.is_some() {
                    continue;
                }
                if time > self.now {
                    self.now = time;
                }
                self.dispatch_idle_cores(self.now);
                continue;
            }
            self.now = time;
            self.inject_disturbance(time);
            let bound = self.events.peek_second().map_or(u64::MAX, |(next, _)| next);
            let issued_before = self.memory_accesses;
            let (elapsed, finished) = self.step(core, time, bound);
            self.counters.steps += 1;
            self.counters.empty_steps += (self.memory_accesses == issued_before) as u64;
            self.cores[core].busy_cycles += elapsed;
            let end = time + elapsed;
            // `now` must track step *ends*, not just event pop times, or the
            // makespan would miss the final step of the run.
            if end > self.now {
                self.now = end;
            }
            if let Some(tracer) = &mut self.tracer {
                if self.now >= tracer.next_sample_at {
                    let accesses = self.memory_accesses + self.disturbance_accesses;
                    tracer.sample_window(self.now, accesses, &self.pricer, &self.offchip);
                }
            }
            self.sample_feedback(self.now);
            if finished {
                let popped = self.events.pop();
                self.counters.queue_pops += 1;
                debug_assert_eq!(popped, Some((time, core)), "the stepping core is on top");
                let task = self.cores[core]
                    .running
                    .take()
                    .expect("finished step implies a running task")
                    .task;
                self.complete_task(task, core, end);
                if self.now >= deadline && !self.events.is_empty() {
                    return EngineStatus::Running;
                }
                continue;
            }
            self.events.replace_top(end, core);
            if self.now >= deadline {
                return EngineStatus::Running;
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

    /// The event loop's work so far: steps, steps that issued no reference,
    /// and queue pops.
    pub fn counters(&self) -> EngineCounters {
        self.counters
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
    /// [`EngineStatus::Done`] (or [`SimEngine::is_done`] turned true);
    /// [`EngineError::Unfinished`] while tasks remain unexecuted.
    pub fn result(&self) -> Result<SimResult, EngineError> {
        if !self.is_done() {
            return Err(EngineError::Unfinished {
                completed: self.completed,
                tasks: self.dag.len(),
            });
        }
        let makespan = self
            .now
            .max(self.cores.iter().map(|c| c.busy_cycles).max().unwrap_or(0));
        let (offchip_queue_cycles, bus_queue_cycles, dram_queue_cycles) =
            self.offchip.queue_cycles();
        Ok(SimResult {
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
            hierarchy: self.pricer.stats(),
        })
    }

    /// Replace the multiprogramming co-runner between quanta.
    ///
    /// The job-stream supervisor uses this to model cache pressure from the
    /// *other* co-resident jobs: the disturbance strength can be raised and
    /// lowered as jobs are admitted and drain.  The next burst fires one
    /// period after the engine's current time.  A co-runner that fails
    /// [`Disturbance::validate`] is refused and the current one kept.
    pub fn set_disturbance(&mut self, disturbance: Option<Disturbance>) -> Result<(), EngineError> {
        if let Some(d) = &disturbance {
            d.validate()?;
        }
        self.disturbance = disturbance;
        self.next_disturbance_at = match disturbance {
            Some(d) => self.now.saturating_add(d.period_cycles),
            None => u64::MAX,
        };
        Ok(())
    }

    /// Number of references injected by the disturbance co-runner (not charged to
    /// the program's instruction count).
    pub fn disturbance_accesses(&self) -> u64 {
        self.disturbance_accesses
    }

    /// Simulate one bounded step of `core`'s running task starting at `start`.
    /// Returns the elapsed cycles and whether the task finished.
    ///
    /// `bound` is the next pending event time of any *other* core (or
    /// `u64::MAX` when there is none): the step yields before issuing work at
    /// or past it, so every off-chip transfer is issued in simulated-time
    /// order.  (The first access or burn always runs — the event queue
    /// already decided this core goes first at `start` — which guarantees
    /// progress.)  Every off-chip model, the legacy channel included, prices
    /// a transfer by what was issued before it: a core simulated thousands of
    /// cycles ahead would occupy the channel "in the future", and a core
    /// popped later at an earlier timestamp would queue behind phantom
    /// traffic.
    fn step(&mut self, core: usize, start: u64, bound: u64) -> (u64, bool) {
        // Split the borrow: the running task and its access buffer are used
        // in place while the pricer and the off-chip model price references.
        let SimEngine {
            dag,
            pricer,
            offchip,
            cores,
            instructions,
            memory_accesses,
            ..
        } = self;
        let CoreState {
            running, buffer, ..
        } = &mut cores[core];
        let running = running
            .as_mut()
            .expect("step called on a core with no running task");
        let mut elapsed = 0u64;
        let mut accesses_this_step = 0u64;

        let finished = loop {
            if running.finished() {
                break true;
            }
            if elapsed >= TIME_SLICE_CYCLES || accesses_this_step >= MAX_ACCESSES_PER_STEP {
                break false;
            }
            if elapsed > 0 && start + elapsed >= bound {
                break false;
            }
            if running.pending_compute > 0 {
                let burn = running.pending_compute.min(TIME_SLICE_CYCLES - elapsed);
                running.pending_compute -= burn;
                elapsed += burn;
                *instructions += burn;
                continue;
            }
            // Issue the next memory reference (pattern runs are expanded into
            // the per-core buffer in chunks; see `ACCESS_BUFFER_CHUNK`).
            let acc = buffer.next().or_else(|| {
                buffer.refill(running, dag);
                buffer.next()
            });
            let Some(acc) = acc else {
                // No references left; only trailing compute remains (or nothing).
                continue;
            };
            running.note_issued();
            elapsed += pricer.access(core, acc, start + elapsed, offchip);
            *instructions += 1;
            *memory_accesses += 1;
            accesses_this_step += 1;
        };
        (elapsed, finished)
    }

    /// Handle completion of `task` on `core` at time `end`.
    fn complete_task(&mut self, task: TaskId, core: usize, end: u64) {
        self.completed += 1;
        if let Some(tracer) = &mut self.tracer {
            tracer.task_complete(end, core, task);
        }
        // Announce the completion first so a policy that tracks completions
        // sees it before being asked for work.
        self.policy.task_complete(task, core);
        // Enable successors in reverse listing order (see module docs).
        for &s in self.dag.successors(task).iter().rev() {
            self.remaining_preds[s.index()] -= 1;
            if self.remaining_preds[s.index()] == 0 {
                self.policy.task_ready(s, Some(core));
            }
        }
        // Flush migrations buffered by `task_ready` before dispatch events.
        if let Some(tracer) = &mut self.tracer {
            tracer.drain_policy(end, self.policy.as_mut());
        }
        // This core asks for work first (keeps locality for LIFO policies), then
        // every idle core gets a chance.
        if !self.poll_policy(core, end) {
            self.idle[core] = true;
            if let Some(tracer) = &mut self.tracer {
                tracer.core_idle(end, core);
            }
        }
        self.dispatch_idle_cores(end);
        if let Some(tracer) = &mut self.tracer {
            if self.completed == self.dag.len() {
                let accesses = self.memory_accesses + self.disturbance_accesses;
                tracer.finish(self.now, accesses, &self.pricer, &self.offchip);
            }
        }
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
        // Flush steal attempts/successes buffered by the `next_task` calls
        // and sample the ready depth the round left.
        if let Some(tracer) = &mut self.tracer {
            tracer.dispatched(now, self.policy.as_mut());
        }
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
        if let Some(tracer) = &mut self.tracer {
            tracer.task_start(now, core, task, self.idle[core]);
        }
        let node = self.dag.node(task);
        self.cores[core].running = Some(RunningTask::new(
            task,
            node.memory_accesses(),
            node.compute_instructions,
        ));
        self.cores[core].buffer.clear();
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
        let Some(d) = self.disturbance else {
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
            if self.offchip.backlog_until() > at.saturating_add(d.period_cycles) {
                // Memory system backlogged past the next period: the
                // co-runner's own fetches stall, so this burst never issues.
                continue;
            }
            for _ in 0..d.blocks_per_burst {
                let block = d.region_base_block + (self.disturbance_cursor % d.region_blocks);
                self.disturbance_cursor += 1;
                self.disturbance_accesses += 1;
                self.pricer.corunner_access(block, at, &mut self.offchip);
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
    fn legacy_transfers_are_priced_in_simulated_time_order() {
        // Two leaves on two cores over a 1 B/cycle legacy channel: the left
        // computes 100 cycles, reads one cold line and computes 100 more; the
        // right reads one cold line at once.  The right leaf's transfer (at
        // cycle 0) is done long before the left's (at cycle 100), so neither
        // queues.  Letting the left core run ahead and issue first would
        // charge the right leaf 164 cycles behind traffic from its future.
        let dag = SpTree::Par(vec![
            SpTree::leaf_with_accesses("left", 200, vec![AccessPattern::range_read(0, 64)]),
            SpTree::leaf_with_accesses("right", 0, vec![AccessPattern::range_read(1 << 22, 64)]),
        ])
        .into_dag()
        .unwrap();
        let mut cfg = default_config(2).unwrap();
        cfg.offchip_bytes_per_cycle = 1.0;
        cfg.memsys = MemSysParams::legacy();
        for spec in SchedulerSpec::paper_pair() {
            let r = simulate(&dag, &cfg, &spec, &SimOptions::default());
            assert_eq!(r.offchip_queue_cycles, 0, "{spec}");
            assert_eq!(r.busy_cycles, vec![480, 240], "{spec}");
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
                engine.result().unwrap(),
                full,
                "{spec}: stepping changed the simulation"
            );
        }
    }

    #[test]
    fn quantum_stepping_matches_a_single_run_on_memory_traffic() {
        // Reference-heavy tasks under the bus+DRAM model: steps end at the
        // next core's event, so the deadline and yield paths both run.
        // Priced stealing adds backoff wakes, adaptive adds feedback windows.
        let dag = reuse_dag(16, 1_000);
        let cfg = default_config(8).unwrap();
        for spec in [
            "pdf",
            "ws",
            "ws:steal_cycles=64,fail_backoff=128",
            "adaptive",
        ] {
            let spec: SchedulerSpec = spec.parse().unwrap();
            let full = simulate(&dag, &cfg, &spec, &SimOptions::default());
            assert!(
                full.bus_queue_cycles > 0,
                "{spec}: the bus must be contended"
            );
            for quantum in [500, 7_919] {
                let mut engine =
                    SimEngine::new(&dag, &cfg, make_policy(&spec, 8), SimOptions::default());
                let mut quanta = 0u32;
                while engine.run_for(quantum) == EngineStatus::Running {
                    quanta += 1;
                    assert!(quanta < 1_000_000, "{spec}: engine failed to make progress");
                }
                assert!(quanta > 1, "{spec}: quantum {quantum} must split the run");
                assert_eq!(
                    engine.result().unwrap(),
                    full,
                    "{spec}: stepping by {quantum} changed the simulation"
                );
            }
        }
    }

    #[test]
    fn adaptive_without_a_feedback_window_is_hybrid() {
        // `adaptive` is `hybrid` plus the tuner: with a window longer than
        // the run no feedback arrives, so the two agree in every result
        // field but the scheduler's name.
        let dag = reuse_dag(16, 1_000);
        let cfg = default_config(8).unwrap();
        let run =
            |spec: String| simulate(&dag, &cfg, &spec.parse().unwrap(), &SimOptions::default());
        let hybrid = run("hybrid:threshold=4".into());
        assert!(hybrid.migrations > 0, "the deque mode must have run");
        let window = hybrid.cycles + 1;
        let adaptive = run(format!("adaptive:threshold=4,window={window}"));
        assert_eq!(
            adaptive.scheduler,
            format!("adaptive:threshold=4,window={window}")
        );
        let adaptive = crate::SimResult {
            scheduler: hybrid.scheduler.clone(),
            ..adaptive
        };
        assert_eq!(adaptive, hybrid);
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
    fn result_before_completion_is_an_error() {
        let dag = leaf_tree(16, 10_000);
        let cfg = default_config(2).unwrap();
        let mut engine = SimEngine::new(
            &dag,
            &cfg,
            make_policy(&SchedulerSpec::pdf(), 2),
            SimOptions::default(),
        );
        assert_eq!(engine.run_for(100), EngineStatus::Running);
        let err = engine.result().unwrap_err();
        assert!(
            matches!(err, EngineError::Unfinished { completed, tasks }
                if tasks == dag.len() && completed < tasks),
            "{err:?}"
        );
        assert!(err.to_string().contains("requires a finished run"), "{err}");
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
        engine
            .set_disturbance(Some(Disturbance {
                period_cycles: 2_000,
                blocks_per_burst: 16,
                region_base_block: 1 << 30,
                region_blocks: 64,
            }))
            .unwrap();
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

    /// Offer `disturbance` to a fresh engine and run it; a refused co-runner
    /// must leave the run untouched.
    fn offer_disturbance(disturbance: Disturbance) -> Result<(), EngineError> {
        let dag = leaf_tree(2, 10);
        let cfg = default_config(1).unwrap();
        let mut engine = SimEngine::new(
            &dag,
            &cfg,
            make_policy(&SchedulerSpec::pdf(), 1),
            SimOptions::default(),
        );
        let offered = engine.set_disturbance(Some(disturbance));
        assert_eq!(engine.run_for(u64::MAX), EngineStatus::Done);
        assert_eq!(engine.disturbance_accesses(), 0, "a refused co-runner ran");
        offered
    }

    #[test]
    fn zero_period_disturbance_is_rejected() {
        let err = offer_disturbance(Disturbance {
            period_cycles: 0,
            blocks_per_burst: 1,
            region_base_block: 0,
            region_blocks: 1,
        });
        assert_eq!(
            err,
            Err(EngineError::Disturbance("period must be positive"))
        );
    }

    #[test]
    fn empty_region_disturbance_is_rejected() {
        let err = offer_disturbance(Disturbance {
            period_cycles: 10,
            blocks_per_burst: 1,
            region_base_block: 0,
            region_blocks: 0,
        });
        assert_eq!(
            err,
            Err(EngineError::Disturbance("region must be non-empty"))
        );
    }

    /// A reuse-heavy DAG: every leaf streams a range, then a second wave
    /// re-reads it (hits if the cache holds it).
    fn reuse_dag(leaves: usize, blocks_per_leaf: u64) -> pdfws_task_dag::TaskDag {
        let mut b = DagBuilder::new();
        let root = b.task("root").instructions(10).build();
        for i in 0..leaves {
            let base = i as u64 * (1 << 24);
            let first = b
                .task(format_args!("fill{i}"))
                .instructions(500)
                .access(AccessPattern::range_read(base, 64 * blocks_per_leaf))
                .build();
            let second = b
                .task(format_args!("reuse{i}"))
                .instructions(500)
                .access(AccessPattern::range_write(base, 64 * blocks_per_leaf))
                .build();
            b.edge(root, first);
            b.edge(first, second);
        }
        b.finish().unwrap()
    }
}
