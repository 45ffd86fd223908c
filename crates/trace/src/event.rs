//! Typed trace events emitted by the simulators, schedulers, and stream tiers.
//!
//! Every event carries an explicit timestamp in simulated cycles.  Where an
//! event is tied to a core or a task it carries those ids too, so downstream
//! consumers (the Perfetto exporter, the [`timeline`](crate::timeline)
//! summarizer) never have to guess context from ordering alone.

/// A trace timestamp in simulated cycles.
pub type TraceTime = u64;

/// One structured event in a trace.
///
/// Scheduler-internal happenings (steals, migrations, the hybrid switch) are
/// first buffered as [`PolicyEvent`]s by the policy hooks and stamped with the
/// simulation time by the engine that drains them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A core began executing a task.
    TaskStart {
        /// Timestamp.
        t: TraceTime,
        /// Executing core.
        core: usize,
        /// Task id (the DAG index).
        task: u64,
    },
    /// A core finished executing a task.
    TaskComplete {
        /// Timestamp.
        t: TraceTime,
        /// Executing core.
        core: usize,
        /// Task id (the DAG index).
        task: u64,
    },
    /// A core with no local work began scanning other cores' queues.
    StealAttempt {
        /// Timestamp.
        t: TraceTime,
        /// The would-be thief.
        core: usize,
    },
    /// A successful steal: `core` took `tasks` task(s), led by `task`, from
    /// `victim`.
    Steal {
        /// Timestamp.
        t: TraceTime,
        /// The thief.
        core: usize,
        /// The victim whose queue was raided.
        victim: usize,
        /// The task the thief will run next.
        task: u64,
        /// Total tasks transferred (more than one under `steal=half`).
        tasks: u64,
        /// Cycles the steal occupied the thief (`steal_cycles`; 0 under the
        /// free-steal model).
        cost: u64,
    },
    /// A task was enabled on `core` but queued on a different home core
    /// (static partitioning's cross-core placement).
    Migration {
        /// Timestamp.
        t: TraceTime,
        /// The enabling core.
        core: usize,
        /// The statically assigned home core the task was queued on.
        home: usize,
        /// Task id (the DAG index).
        task: u64,
    },
    /// The hybrid policy switched from the PDF heap to WS deques.
    HybridSwitch {
        /// Timestamp.
        t: TraceTime,
        /// Ready-queue depth that triggered the switch.
        ready: u64,
    },
    /// A core transitioned from idle to running work.
    CoreBusy {
        /// Timestamp.
        t: TraceTime,
        /// The core.
        core: usize,
    },
    /// A core ran out of work and went idle.
    CoreIdle {
        /// Timestamp.
        t: TraceTime,
        /// The core.
        core: usize,
    },
    /// Counter sample: scheduler ready-queue depth after a dispatch round.
    ReadyDepth {
        /// Timestamp.
        t: TraceTime,
        /// Tasks ready but not yet running.
        depth: u64,
    },
    /// Windowed cache counters: activity accumulated since the previous
    /// window sample (deltas, not running totals).  The engine emits one
    /// more, partial window when the last task completes, so a run's
    /// windows sum to its totals.
    CacheWindow {
        /// Timestamp (end of the window).
        t: TraceTime,
        /// Memory accesses issued during the window.
        accesses: u64,
        /// Private-L1 misses during the window (summed over cores).
        l1_misses: u64,
        /// Shared-L2 misses during the window.
        l2_misses: u64,
    },
    /// Counter sample: cycles the shared memory bus spent occupied by
    /// transfers since the previous sample (a delta, like
    /// [`CacheWindow`](TraceEvent::CacheWindow)).  Only emitted by the
    /// component memory-system model.
    BusOccupancy {
        /// Timestamp (end of the window).
        t: TraceTime,
        /// Bus-busy cycles accumulated during the window.
        busy_cycles: u64,
    },
    /// Counter sample: DRAM queue cycles accrued since the previous sample
    /// (a delta, like [`CacheWindow`](TraceEvent::CacheWindow)) — the cycles
    /// the window's DRAM requests waited inside the controller for a bank or
    /// the data bus, co-runner traffic included.  The samples of a run sum to
    /// its `dram_queue_cycles`.  Only emitted by the component memory-system
    /// model.
    DramQueueDepth {
        /// Timestamp (end of the window).
        t: TraceTime,
        /// DRAM queue cycles accrued during the window.
        depth: u64,
    },
    /// A stream job was admitted into the serving slots.
    JobAdmit {
        /// Timestamp.
        t: TraceTime,
        /// Stream-unique job id.
        job: u64,
    },
    /// A stream job received its first execution quantum.
    JobDispatch {
        /// Timestamp.
        t: TraceTime,
        /// Stream-unique job id.
        job: u64,
    },
    /// A stream job completed.
    JobComplete {
        /// Timestamp.
        t: TraceTime,
        /// Stream-unique job id.
        job: u64,
    },
    /// Counter sample: stream jobs admitted but not yet complete.
    OutstandingJobs {
        /// Timestamp.
        t: TraceTime,
        /// Jobs in flight.
        jobs: u64,
    },
    /// A serving-tier job was shed (rejected at admission) because the SLO
    /// estimator predicted a target violation.
    JobShed {
        /// Timestamp.
        t: TraceTime,
        /// Stream-unique job id.
        job: u64,
    },
    /// Counter sample: cores the serving tier's autoscaler currently has
    /// powered on.
    ActiveCores {
        /// Timestamp.
        t: TraceTime,
        /// Cores online after the scaling decision.
        cores: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn time(&self) -> TraceTime {
        match *self {
            TraceEvent::TaskStart { t, .. }
            | TraceEvent::TaskComplete { t, .. }
            | TraceEvent::StealAttempt { t, .. }
            | TraceEvent::Steal { t, .. }
            | TraceEvent::Migration { t, .. }
            | TraceEvent::HybridSwitch { t, .. }
            | TraceEvent::CoreBusy { t, .. }
            | TraceEvent::CoreIdle { t, .. }
            | TraceEvent::ReadyDepth { t, .. }
            | TraceEvent::CacheWindow { t, .. }
            | TraceEvent::BusOccupancy { t, .. }
            | TraceEvent::DramQueueDepth { t, .. }
            | TraceEvent::JobAdmit { t, .. }
            | TraceEvent::JobDispatch { t, .. }
            | TraceEvent::JobComplete { t, .. }
            | TraceEvent::OutstandingJobs { t, .. }
            | TraceEvent::JobShed { t, .. }
            | TraceEvent::ActiveCores { t, .. } => t,
        }
    }

    /// The event with its timestamp replaced by `t`.
    ///
    /// The engine uses this to keep per-core clocks monotone: its
    /// discrete-event loop can complete an overshooting core before an
    /// earlier-queued one, so a dispatch decision made "in the past" of a
    /// core that already ran ahead is re-stamped at that core's local clock.
    pub fn with_time(mut self, at: TraceTime) -> Self {
        match &mut self {
            TraceEvent::TaskStart { t, .. }
            | TraceEvent::TaskComplete { t, .. }
            | TraceEvent::StealAttempt { t, .. }
            | TraceEvent::Steal { t, .. }
            | TraceEvent::Migration { t, .. }
            | TraceEvent::HybridSwitch { t, .. }
            | TraceEvent::CoreBusy { t, .. }
            | TraceEvent::CoreIdle { t, .. }
            | TraceEvent::ReadyDepth { t, .. }
            | TraceEvent::CacheWindow { t, .. }
            | TraceEvent::BusOccupancy { t, .. }
            | TraceEvent::DramQueueDepth { t, .. }
            | TraceEvent::JobAdmit { t, .. }
            | TraceEvent::JobDispatch { t, .. }
            | TraceEvent::JobComplete { t, .. }
            | TraceEvent::OutstandingJobs { t, .. }
            | TraceEvent::JobShed { t, .. }
            | TraceEvent::ActiveCores { t, .. } => *t = at,
        }
        self
    }

    /// The core the event is pinned to, when it has one.
    ///
    /// [`Steal`](TraceEvent::Steal) reports the thief, and
    /// [`Migration`](TraceEvent::Migration) the enabling core; counters and
    /// stream-job events are process-wide and return `None`.
    pub fn core(&self) -> Option<usize> {
        match *self {
            TraceEvent::TaskStart { core, .. }
            | TraceEvent::TaskComplete { core, .. }
            | TraceEvent::StealAttempt { core, .. }
            | TraceEvent::Steal { core, .. }
            | TraceEvent::Migration { core, .. }
            | TraceEvent::CoreBusy { core, .. }
            | TraceEvent::CoreIdle { core, .. } => Some(core),
            _ => None,
        }
    }

    /// A stable, snake_case name for the event kind.
    ///
    /// These names agree with the `SimResult` field vocabulary (`migration`,
    /// not `steal`, for cross-core placements — see
    /// `SchedulerPolicy::migrations`).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TaskStart { .. } => "task_start",
            TraceEvent::TaskComplete { .. } => "task_complete",
            TraceEvent::StealAttempt { .. } => "steal_attempt",
            TraceEvent::Steal { .. } => "steal",
            TraceEvent::Migration { .. } => "migration",
            TraceEvent::HybridSwitch { .. } => "hybrid_switch",
            TraceEvent::CoreBusy { .. } => "core_busy",
            TraceEvent::CoreIdle { .. } => "core_idle",
            TraceEvent::ReadyDepth { .. } => "ready_depth",
            TraceEvent::CacheWindow { .. } => "cache_window",
            TraceEvent::BusOccupancy { .. } => "bus_occupancy",
            TraceEvent::DramQueueDepth { .. } => "dram_queue_depth",
            TraceEvent::JobAdmit { .. } => "job_admit",
            TraceEvent::JobDispatch { .. } => "job_dispatch",
            TraceEvent::JobComplete { .. } => "job_complete",
            TraceEvent::OutstandingJobs { .. } => "outstanding_jobs",
            TraceEvent::JobShed { .. } => "job_shed",
            TraceEvent::ActiveCores { .. } => "active_cores",
        }
    }
}

/// A scheduler-internal event buffered by the `SchedulerPolicy` trace hooks.
///
/// Policies run inside the engine and do not know the simulation clock, so
/// they record *what* happened and the engine stamps *when* by calling
/// [`PolicyEvent::at`] as it drains the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyEvent {
    /// A core with no local work began scanning for a victim.
    StealAttempt {
        /// The would-be thief.
        core: usize,
    },
    /// A successful steal of `tasks` task(s), led by `task`, from `victim`.
    Steal {
        /// The thief.
        core: usize,
        /// The victim.
        victim: usize,
        /// The task the thief will run next.
        task: u64,
        /// Total tasks transferred.
        tasks: u64,
        /// Cycles the steal occupied the thief (0 under the free-steal model).
        cost: u64,
    },
    /// A cross-core placement: enabled on `core`, queued on home `home`.
    Migration {
        /// The enabling core.
        core: usize,
        /// The home core the task was queued on.
        home: usize,
        /// Task id (the DAG index).
        task: u64,
    },
    /// The hybrid policy switched from the PDF heap to WS deques.
    HybridSwitch {
        /// Ready-queue depth that triggered the switch.
        ready: u64,
    },
}

impl PolicyEvent {
    /// Stamp the policy event with a simulation time, producing the
    /// engine-level [`TraceEvent`].
    pub fn at(self, t: TraceTime) -> TraceEvent {
        match self {
            PolicyEvent::StealAttempt { core } => TraceEvent::StealAttempt { t, core },
            PolicyEvent::Steal {
                core,
                victim,
                task,
                tasks,
                cost,
            } => TraceEvent::Steal {
                t,
                core,
                victim,
                task,
                tasks,
                cost,
            },
            PolicyEvent::Migration { core, home, task } => TraceEvent::Migration {
                t,
                core,
                home,
                task,
            },
            PolicyEvent::HybridSwitch { ready } => TraceEvent::HybridSwitch { t, ready },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_core_and_kind_cover_every_variant() {
        let events = [
            TraceEvent::TaskStart {
                t: 1,
                core: 0,
                task: 7,
            },
            TraceEvent::TaskComplete {
                t: 2,
                core: 0,
                task: 7,
            },
            TraceEvent::StealAttempt { t: 3, core: 1 },
            TraceEvent::Steal {
                t: 4,
                core: 1,
                victim: 0,
                task: 8,
                tasks: 2,
                cost: 0,
            },
            TraceEvent::Migration {
                t: 5,
                core: 0,
                home: 2,
                task: 9,
            },
            TraceEvent::HybridSwitch { t: 6, ready: 5 },
            TraceEvent::CoreBusy { t: 7, core: 3 },
            TraceEvent::CoreIdle { t: 8, core: 3 },
            TraceEvent::ReadyDepth { t: 9, depth: 4 },
            TraceEvent::CacheWindow {
                t: 10,
                accesses: 100,
                l1_misses: 10,
                l2_misses: 2,
            },
            TraceEvent::BusOccupancy {
                t: 11,
                busy_cycles: 512,
            },
            TraceEvent::DramQueueDepth { t: 12, depth: 40 },
            TraceEvent::JobAdmit { t: 13, job: 1 },
            TraceEvent::JobDispatch { t: 14, job: 1 },
            TraceEvent::JobComplete { t: 15, job: 1 },
            TraceEvent::OutstandingJobs { t: 16, jobs: 3 },
            TraceEvent::JobShed { t: 17, job: 2 },
            TraceEvent::ActiveCores { t: 18, cores: 4 },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.time(), (i + 1) as u64);
            assert!(!e.kind().is_empty());
        }
        assert_eq!(events[0].core(), Some(0));
        assert_eq!(events[3].core(), Some(1), "steal reports the thief");
        assert_eq!(events[4].core(), Some(0), "migration reports the enabler");
        assert_eq!(events[8].core(), None, "counters are process-wide");
        assert_eq!(events[10].core(), None, "memsys counters are process-wide");
        assert_eq!(events[12].core(), None, "job events are process-wide");
    }

    #[test]
    fn policy_events_stamp_into_trace_events() {
        assert_eq!(
            PolicyEvent::StealAttempt { core: 2 }.at(10),
            TraceEvent::StealAttempt { t: 10, core: 2 }
        );
        assert_eq!(
            PolicyEvent::Steal {
                core: 1,
                victim: 0,
                task: 3,
                tasks: 1,
                cost: 64
            }
            .at(11),
            TraceEvent::Steal {
                t: 11,
                core: 1,
                victim: 0,
                task: 3,
                tasks: 1,
                cost: 64
            }
        );
        assert_eq!(
            PolicyEvent::Migration {
                core: 0,
                home: 1,
                task: 4
            }
            .at(12),
            TraceEvent::Migration {
                t: 12,
                core: 0,
                home: 1,
                task: 4
            }
        );
        assert_eq!(
            PolicyEvent::HybridSwitch { ready: 9 }.at(13),
            TraceEvent::HybridSwitch { t: 13, ready: 9 }
        );
    }
}
