//! The reference pricer: the cache half of the engine's memory layer.
//!
//! [`RefPricer`] owns the [`CmpCacheHierarchy`] and prices what the event
//! core's tasks touch, in the mode [`SimOptions::cache_mode`] selects:
//! `exact` sends every reference through the hierarchy; `sampled:rate=N`
//! simulates only the blocks of the sampled sets (≡ 0 mod N) against an
//! N-times-smaller hierarchy, charges every other reference a running
//! estimate of the observed latency and scales statistics back up;
//! `analytic` prices whole tasks from the DAG's reuse-distance profile and
//! credits their counters pro rata while the event core burns their time.
//! Off-chip traffic goes through the [`OffChip`] model, the other half of
//! the layer.

use crate::analytic::{profile_for, DagCacheProfile, TaskCacheCosts};
use crate::SimOptions;
use pdfws_cache_sim::hierarchy::CmpCacheHierarchy;
use pdfws_cache_sim::{CacheStats, HierarchyStats};
use pdfws_cmp_model::{CmpConfig, MemSysMode};
use pdfws_memsys::{Carry, OffChip};
use pdfws_task_dag::{MemAccess, TaskDag, TaskId};
use std::sync::Arc;

/// Sampled-mode estimator window: once this many sampled references
/// accumulate, the counts are halved — an exponentially decayed mean that
/// follows the program's current phase.
const SAMPLED_LATENCY_WINDOW: u64 = 256;

/// The cache half of the memory layer (see the module docs).
pub(crate) struct RefPricer {
    hierarchy: CmpCacheHierarchy,
    /// `log2(line_bytes)`, so the hot path shifts instead of dividing.
    block_shift: u32,
    /// The flat memory latency the hierarchy charges an L2 miss.
    memory_latency: u64,
    mode: Mode,
}

enum Mode {
    Exact,
    Sampled {
        rate: u64,
        l1_latency: u64,
        /// Engine-wide (count, observed cycles) of sampled references, used
        /// until the running task has samples of its own.
        est: (u64, u64),
        /// The same per core, for its running task only: tasks are the
        /// natural phase boundary, so a streaming task and a reuse task on
        /// sibling cores must not share one estimate.
        task_est: Vec<(u64, u64)>,
    },
    Analytic {
        profile: Arc<DagCacheProfile>,
        /// L1 and L2 capacities in blocks.
        blocks: (u64, u64),
        /// L1, L2 and memory latencies composing a task's time.
        latencies: (u64, u64, u64),
        /// Synthesized statistics of completed tasks.
        stats: HierarchyStats,
        /// Credited (L1, L2) misses so far, in-flight tasks included.
        miss_credit: (u64, u64),
        running: Vec<AnalyticTask>,
    },
}

/// One core's running analytic task, credited Bresenham-style: after
/// `burned` of its `t_total` cycles each counter holds
/// `total * burned / t_total`, which lands exactly on the total when the
/// task ends.
#[derive(Clone, Copy, Default)]
struct AnalyticTask {
    costs: TaskCacheCosts,
    t_total: u64,
    burned: u64,
    /// Instructions, references, L1 misses, L2 misses, off-chip bytes.
    totals: [u64; 5],
    credited: [u64; 5],
}

/// Index of the off-chip bytes in [`AnalyticTask::totals`].
const BYTES: usize = 4;

impl AnalyticTask {
    /// Advance counter `i` to `burned` cycles; returns the fresh credit.  A
    /// task with no time to burn is credited in full at once.
    fn credit(&mut self, i: usize) -> u64 {
        let share = (self.totals[i] as u128 * self.burned as u128)
            .checked_div(self.t_total as u128)
            .map_or(self.totals[i], |s| s as u64);
        let fresh = share - self.credited[i];
        self.credited[i] = share;
        fresh
    }
}

/// A sampled run's statistics at full scale: each sampled set stands for
/// `rate` sets of the full-size hierarchy.
fn scaled(mut stats: HierarchyStats, rate: u64) -> HierarchyStats {
    for c in stats.l1.iter_mut().chain([&mut stats.l2]) {
        *c = CacheStats {
            read_hits: c.read_hits * rate,
            read_misses: c.read_misses * rate,
            write_hits: c.write_hits * rate,
            write_misses: c.write_misses * rate,
            evictions: c.evictions * rate,
            writebacks: c.writebacks * rate,
            invalidations: c.invalidations * rate,
        };
    }
    stats.offchip_bytes *= rate;
    stats.memory_fills *= rate;
    stats.coherence_invalidations *= rate;
    stats
}

impl RefPricer {
    /// The memory layer one run prices through: the pricer for
    /// `options.cache_mode` and the off-chip model `config.memsys` selects.
    /// The component model needs per-transaction block addresses the
    /// analytic composition never produces, so analytic runs pace their
    /// bytes through the legacy channel.
    pub(crate) fn memory_layer(
        dag: &Arc<TaskDag>,
        config: &CmpConfig,
        options: &SimOptions,
    ) -> (RefPricer, OffChip) {
        let mut resolved = config.resolved_memsys();
        let mut hierarchy_config = *config;
        let line = config.l2.line_bytes as u64;
        let mode = match options.cache_mode.name() {
            "sampled" => {
                // Keep at least one set per level (set counts are powers of
                // two, so the clamped rate stays one).
                let rate = options
                    .cache_mode
                    .sample_rate()
                    .expect("sampled cache mode always carries a rate")
                    .min(config.l1.sets() as u64)
                    .min(config.l2.sets() as u64);
                hierarchy_config.l1.capacity_bytes /= rate as usize;
                hierarchy_config.l2.capacity_bytes /= rate as usize;
                Mode::Sampled {
                    rate,
                    l1_latency: config.l1.latency_cycles,
                    est: (0, 0),
                    task_est: vec![(0, 0); config.cores],
                }
            }
            "analytic" => {
                resolved.mode = MemSysMode::Legacy;
                Mode::Analytic {
                    profile: profile_for(dag, line),
                    blocks: (
                        config.l1.capacity_bytes as u64 / line,
                        config.l2.capacity_bytes as u64 / line,
                    ),
                    latencies: (
                        config.l1.latency_cycles,
                        config.l2.latency_cycles,
                        config.memory_latency_cycles,
                    ),
                    stats: HierarchyStats::new(config.cores),
                    miss_credit: (0, 0),
                    running: vec![AnalyticTask::default(); config.cores],
                }
            }
            _ => Mode::Exact,
        };
        let pricer = RefPricer {
            hierarchy: CmpCacheHierarchy::new(&hierarchy_config),
            block_shift: line.trailing_zeros(),
            memory_latency: config.memory_latency_cycles,
            mode,
        };
        (
            pricer,
            OffChip::new(&resolved, config.offchip_bytes_per_cycle),
        )
    }

    /// Whether tasks are priced whole instead of reference by reference.
    pub(crate) fn is_analytic(&self) -> bool {
        matches!(self.mode, Mode::Analytic { .. })
    }

    /// The block the hierarchy simulates for `block` and how many blocks it
    /// stands for; `None` for a block sampled mode skips.
    #[inline]
    fn simulated(&self, block: u64) -> Option<(u64, u64)> {
        match self.mode {
            Mode::Sampled { rate, .. } => {
                (block & (rate - 1) == 0).then(|| (block >> rate.trailing_zeros(), rate))
            }
            _ => Some((block, 1)),
        }
    }

    /// Prepare to run `task` on `core`.  Returns the composed time of an
    /// analytic task, which the event core burns instead of expanding
    /// references.
    pub(crate) fn begin_task(&mut self, core: usize, dag: &TaskDag, task: TaskId) -> Option<u64> {
        match &mut self.mode {
            Mode::Exact => None,
            Mode::Sampled { task_est, .. } => {
                task_est[core] = (0, 0);
                None
            }
            Mode::Analytic {
                profile,
                blocks: (l1_blocks, l2_blocks),
                latencies: (l1, l2, mem),
                running,
                ..
            } => {
                // Two histogram lookups price the whole task.
                let c = profile.task_costs(task, *l1_blocks, *l2_blocks);
                let compute = dag.node(task).compute_instructions;
                let t_total = compute + c.l1_hits * *l1 + c.l2_hits * *l2 + c.misses * *mem;
                let bytes = (c.misses + c.writebacks) * profile.line_bytes();
                running[core] = AnalyticTask {
                    costs: c,
                    t_total,
                    burned: 0,
                    totals: [
                        compute + c.refs,
                        c.refs,
                        c.l2_hits + c.misses,
                        c.misses,
                        bytes,
                    ],
                    credited: [0; 5],
                };
                Some(t_total)
            }
        }
    }

    /// Price one reference by `core` issued at `at`; returns its latency.
    ///
    /// On the legacy channel queuing adds to the hierarchy's latency.  Under
    /// the component model an L2 miss replaces the flat memory latency with
    /// the transaction's end-to-end time, while a dirty-victim writeback
    /// behind an L2 hit is posted: it costs the requester nothing but still
    /// occupies the bus and banks later requests queue behind.
    #[inline]
    pub(crate) fn access(
        &mut self,
        core: usize,
        acc: MemAccess,
        at: u64,
        offchip: &mut OffChip,
    ) -> u64 {
        let Some((block, scale)) = self.simulated(acc.addr >> self.block_shift) else {
            return self.sampled_estimate(core);
        };
        let outcome = self.hierarchy.access_block(core, block, acc.write);
        let mut latency = outcome.latency;
        if outcome.offchip_bytes > 0 {
            // A sampled reference's traffic occupies the memory system at
            // scale, but the reference only waits for its own line: queue
            // delays in full, service pro rata (`tx.total_cycles` at scale 1).
            match offchip.carry(core, block, outcome.offchip_bytes * scale, at) {
                Carry::Queued(queue) => latency += queue,
                Carry::Transaction(tx) if outcome.is_offchip() => {
                    let queue = tx.bus_queue_cycles + tx.dram_queue_cycles;
                    latency = latency.saturating_sub(self.memory_latency)
                        + queue
                        + (tx.total_cycles - queue).div_ceil(scale);
                }
                Carry::Transaction(_) => {}
            }
        }
        if let Mode::Sampled { est, task_est, .. } = &mut self.mode {
            for e in [est, &mut task_est[core]] {
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

    /// The latency of a reference sampled mode skips: the mean observed
    /// latency of recent sampled references — the running task's own, else
    /// the engine-wide ones, else the L1 latency.  Observed latencies carry
    /// the queuing sampled transactions saw, so this mirrors (without
    /// double-counting) the bandwidth pressure.
    fn sampled_estimate(&self, core: usize) -> u64 {
        let Mode::Sampled {
            l1_latency,
            est,
            ref task_est,
            ..
        } = self.mode
        else {
            unreachable!("only sampled mode skips references");
        };
        let (count, cycles) = match task_est[core] {
            (0, _) => est,
            task => task,
        };
        (cycles + count / 2)
            .checked_div(count)
            .unwrap_or(l1_latency)
    }

    /// Burn `cycles` of `core`'s analytic task, ending at `at`, and pace the
    /// freshly credited off-chip bytes through `offchip`.  Returns the
    /// cycles the core stalls on queuing, which consume no task time.
    pub(crate) fn burn(&mut self, core: usize, cycles: u64, at: u64, offchip: &mut OffChip) -> u64 {
        let Mode::Analytic { running, .. } = &mut self.mode else {
            return 0;
        };
        running[core].burned += cycles;
        match running[core].credit(BYTES) {
            0 => 0,
            bytes => match offchip.carry(core, 0, bytes, at) {
                Carry::Queued(queue) => queue,
                Carry::Transaction(_) => unreachable!("analytic runs use the legacy channel"),
            },
        }
    }

    /// Credit `core`'s other analytic counters up to its burned cycles at a
    /// step end (nothing reads them in between, and the divisions this
    /// skips per burn are most of an analytic cell's cost).  Returns the
    /// fresh (instructions, references).
    pub(crate) fn end_step(&mut self, core: usize) -> (u64, u64) {
        let Mode::Analytic {
            running,
            miss_credit,
            ..
        } = &mut self.mode
        else {
            return (0, 0);
        };
        let [instructions, references, l1_misses, l2_misses] =
            [0, 1, 2, 3].map(|i| running[core].credit(i));
        miss_credit.0 += l1_misses;
        miss_credit.1 += l2_misses;
        (instructions, references)
    }

    /// Account `core`'s finished task.  Reuse distances are kind-blind, so
    /// an analytic task's counters land in the read columns; the derived
    /// metrics (misses, MPKI, off-chip bytes) are exact.
    pub(crate) fn finish_task(&mut self, core: usize) {
        let Mode::Analytic { running, stats, .. } = &mut self.mode else {
            return;
        };
        let AnalyticTask {
            costs: c, totals, ..
        } = running[core];
        stats.l1[core].read_hits += c.l1_hits;
        stats.l1[core].read_misses += c.l2_hits + c.misses;
        stats.l2.read_hits += c.l2_hits;
        stats.l2.read_misses += c.misses;
        stats.l2.writebacks += c.writebacks;
        stats.offchip_bytes += totals[BYTES];
        stats.memory_fills += c.misses;
    }

    /// One co-runner reference to `block` at `at`, through core 0's L1.  It
    /// is filtered like the program's references, and its off-chip traffic
    /// is background load from `requester`.
    pub(crate) fn corunner_access(
        &mut self,
        block: u64,
        requester: usize,
        at: u64,
        offchip: &mut OffChip,
    ) {
        if let Some((block, scale)) = self.simulated(block) {
            let bytes = self.hierarchy.access_block(0, block, false).offchip_bytes * scale;
            if bytes > 0 {
                offchip.background(requester, block, bytes, at);
            }
        }
    }

    /// Running (L1, L2) miss totals at full scale, for the trace windows and
    /// the policy feedback; analytic mode reports its pro-rata credit.
    pub(crate) fn miss_totals(&self) -> (u64, u64) {
        if let Mode::Analytic { miss_credit, .. } = self.mode {
            return miss_credit;
        }
        let stats = self.stats();
        let l1 = stats.l1.iter().map(CacheStats::misses).sum();
        (l1, stats.l2.misses())
    }

    /// Final hierarchy statistics at full scale.
    pub(crate) fn stats(&self) -> HierarchyStats {
        match &self.mode {
            Mode::Exact => self.hierarchy.stats(),
            Mode::Sampled { rate, .. } => scaled(self.hierarchy.stats(), *rate),
            Mode::Analytic { stats, .. } => stats.clone(),
        }
    }
}
