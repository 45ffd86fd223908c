//! The engine's observer: every trace decision of a traced run.
//!
//! [`SimEngine`](crate::SimEngine) holds a [`Tracer`] only while a trace
//! sink is installed and calls its hooks at task start, task completion, a
//! core going idle, the end of a dispatch round and the end of a step.  The
//! tracer decides what those moments emit: it clamps per-core events to each
//! core's trace clock, stamps the policy's buffered events with simulation
//! time, elides unchanged ready depths and samples the cache, bus and DRAM
//! counters once per [`TRACE_CACHE_WINDOW`], plus once more for the run's
//! last, partial window when the last task completes.

use crate::policy::SchedulerPolicy;
use crate::pricing::RefPricer;
use pdfws_memsys::OffChip;
use pdfws_task_dag::TaskId;
use pdfws_trace::{PolicyEvent, TraceEvent, TraceSink};

/// Period, in simulated cycles, of the windowed cache-counter samples.
/// Counters are snapshotted once per window and emitted as deltas —
/// per-access events would dwarf everything else in the trace.
pub(crate) const TRACE_CACHE_WINDOW: u64 = 8_192;

/// The trace state of one engine (see the module docs).
pub(crate) struct Tracer {
    sink: Box<dyn TraceSink>,
    /// Scratch buffer reused when draining policy-buffered events.
    policy_events: Vec<PolicyEvent>,
    /// Cycle at which the next window sample is due.  The engine compares a
    /// step's end against it before calling [`Tracer::sample_window`], so
    /// the compare stays on the hot loop and the sampling body off it.
    pub(crate) next_sample_at: u64,
    /// (accesses, l1 misses, l2 misses) totals at the previous window sample.
    cache_base: (u64, u64, u64),
    /// Bus busy-cycle total at the previous window sample.
    bus_busy_base: u64,
    /// DRAM queue-cycle total at the previous window sample.
    dram_queue_base: u64,
    /// Last emitted ready-depth value (consecutive duplicates are elided).
    last_ready_depth: Option<u64>,
    /// Per-core trace clocks: the timestamp of each core's last emitted
    /// event.  The event loop can complete an overshooting core before an
    /// earlier-queued one, so dispatch decisions made "in the past" of a core
    /// that already ran ahead are re-stamped at the core's local clock —
    /// per-core event streams are monotone non-decreasing by construction.
    core_clock: Vec<u64>,
}

impl Tracer {
    /// A tracer emitting into `sink` for `cores` cores, installed at `now`.
    pub(crate) fn new(sink: Box<dyn TraceSink>, now: u64, cores: usize) -> Self {
        Tracer {
            sink,
            policy_events: Vec::new(),
            next_sample_at: now.saturating_add(TRACE_CACHE_WINDOW),
            cache_base: (0, 0, 0),
            bus_busy_base: 0,
            dram_queue_base: 0,
            last_ready_depth: None,
            core_clock: vec![0; cores],
        }
    }

    /// Emit one event; per-core events are clamped to the core's trace clock.
    fn emit(&mut self, event: TraceEvent) {
        match event.core() {
            Some(core) => {
                let clock = &mut self.core_clock[core];
                let t = event.time().max(*clock);
                *clock = t;
                self.sink.emit(event.with_time(t));
            }
            None => self.sink.emit(event),
        }
    }

    /// `task` started on `core` at `t`; `was_idle` says the core had no task.
    pub(crate) fn task_start(&mut self, t: u64, core: usize, task: TaskId, was_idle: bool) {
        if was_idle {
            self.emit(TraceEvent::CoreBusy { t, core });
        }
        self.emit(TraceEvent::TaskStart {
            t,
            core,
            task: task.index() as u64,
        });
    }

    /// `task` completed on `core` at `t`.
    pub(crate) fn task_complete(&mut self, t: u64, core: usize, task: TaskId) {
        self.emit(TraceEvent::TaskComplete {
            t,
            core,
            task: task.index() as u64,
        });
    }

    /// `core` found no work at `t`.
    pub(crate) fn core_idle(&mut self, t: u64, core: usize) {
        self.emit(TraceEvent::CoreIdle { t, core });
    }

    /// Drain the policy's buffered events, stamping them with time `t`.
    pub(crate) fn drain_policy(&mut self, t: u64, policy: &mut dyn SchedulerPolicy) {
        let mut buffered = std::mem::take(&mut self.policy_events);
        policy.trace_drain(&mut buffered);
        for event in buffered.drain(..) {
            self.emit(event.at(t));
        }
        self.policy_events = buffered;
    }

    /// Every idle core was offered work at `t`: drain what the dispatch
    /// round buffered, then sample the ready depth unless it is unchanged.
    pub(crate) fn dispatched(&mut self, t: u64, policy: &mut dyn SchedulerPolicy) {
        self.drain_policy(t, policy);
        let depth = policy.ready_count() as u64;
        if self.last_ready_depth != Some(depth) {
            self.last_ready_depth = Some(depth);
            self.emit(TraceEvent::ReadyDepth { t, depth });
        }
    }

    /// Emit the window sample due at the step end `t`: `accesses` references
    /// so far, the pricer's miss totals and the bus and DRAM counters.
    pub(crate) fn sample_window(
        &mut self,
        t: u64,
        accesses: u64,
        pricer: &RefPricer,
        offchip: &OffChip,
    ) {
        while self.next_sample_at <= t {
            self.next_sample_at = self.next_sample_at.saturating_add(TRACE_CACHE_WINDOW);
        }
        self.emit_window(t, accesses, pricer, offchip);
    }

    /// The last task completed at `t`: emit the partial window since the
    /// last sample, so the window deltas sum to the run's totals.  A window
    /// in which nothing was counted is not emitted.
    pub(crate) fn finish(&mut self, t: u64, accesses: u64, pricer: &RefPricer, offchip: &OffChip) {
        let (l1, l2) = pricer.miss_totals();
        let (busy, dram) = offchip.components().map_or((0, 0), |mem| {
            (mem.bus_busy_cycles(), mem.dram_queue_cycles())
        });
        if (accesses, l1, l2) != self.cache_base
            || (busy, dram) != (self.bus_busy_base, self.dram_queue_base)
        {
            self.emit_window(t, accesses, pricer, offchip);
        }
    }

    /// Emit the cache, bus-busy and DRAM queue-cycle deltas since the
    /// previous window.
    fn emit_window(&mut self, t: u64, accesses: u64, pricer: &RefPricer, offchip: &OffChip) {
        let (l1, l2) = pricer.miss_totals();
        let (base_acc, base_l1, base_l2) = self.cache_base;
        self.cache_base = (accesses, l1, l2);
        self.emit(TraceEvent::CacheWindow {
            t,
            accesses: accesses - base_acc,
            l1_misses: l1 - base_l1,
            l2_misses: l2 - base_l2,
        });
        if let Some(mem) = offchip.components() {
            let (busy, dram) = (mem.bus_busy_cycles(), mem.dram_queue_cycles());
            let busy_cycles = busy - self.bus_busy_base;
            let depth = dram - self.dram_queue_base;
            (self.bus_busy_base, self.dram_queue_base) = (busy, dram);
            self.emit(TraceEvent::BusOccupancy { t, busy_cycles });
            self.emit(TraceEvent::DramQueueDepth { t, depth });
        }
    }
}
