//! Outside-in layer replays for the traced run.
//!
//! Each replay drives one layer through its public API with a stream taken
//! from the workload, without the engine in between, so the layer's host cost
//! per operation can be priced on its own:
//!
//! * [`cache_replay`] deals the DAG's 1DF-ordered reference stream task by
//!   task round-robin across the cores and feeds it through
//!   `CmpCacheHierarchy::access`;
//! * [`memsys_replay`] pushes that replay's L2 misses through
//!   `MemSystem::transact`;
//! * [`policy_replay`] runs a policy through a unit-cost list-scheduling loop;
//! * [`quantile_replay`] feeds observations through `StreamingQuantiles`.

use pdfws_cache_sim::CmpCacheHierarchy;
use pdfws_cmp_model::CmpConfig;
use pdfws_memsys::MemSystem;
use pdfws_metrics::StreamingQuantiles;
use pdfws_schedulers::{make_policy, SchedulerSpec};
use pdfws_task_dag::{MemAccess, TaskDag};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// References expanded per timed batch: large enough that the clock reads
/// vanish next to the accesses they bracket.
const BATCH_REFS: usize = 8192;

/// One L2 miss of the cache replay, in the requesting core's local time.
#[derive(Debug, Clone, Copy)]
pub struct Miss {
    pub core: usize,
    pub block: u64,
    pub bytes: u64,
    pub at: u64,
}

#[derive(Debug)]
pub struct CacheReplay {
    pub accesses: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    /// Host time inside `CmpCacheHierarchy::access` only.
    pub access_time: Duration,
    /// Off-chip transfers, sorted by request time.
    pub misses: Vec<Miss>,
}

impl CacheReplay {
    pub fn ns_per_access(&self) -> f64 {
        per_op_ns(self.access_time, self.accesses)
    }
}

fn per_op_ns(time: Duration, ops: u64) -> f64 {
    time.as_nanos() as f64 / ops.max(1) as f64
}

/// Replay `dag`'s 1DF reference stream through a fresh hierarchy for
/// `config`, dealing tasks round-robin over `config.cores` cores.  Each core
/// keeps a local clock that advances by every access's hit latency; misses
/// carry that clock as their request time.
pub fn cache_replay(dag: &TaskDag, config: &CmpConfig) -> CacheReplay {
    let cores = config.cores;
    let mut hierarchy = CmpCacheHierarchy::new(config);
    let shift = hierarchy.line_bytes().trailing_zeros();
    let mut clock = vec![0u64; cores];
    let mut batch: Vec<(usize, MemAccess)> = Vec::with_capacity(2 * BATCH_REFS);
    let mut expanded: Vec<MemAccess> = Vec::new();
    let mut misses = Vec::new();
    let mut access_time = Duration::ZERO;
    let mut accesses = 0u64;

    let mut flush = |batch: &mut Vec<(usize, MemAccess)>, misses: &mut Vec<Miss>| {
        let mut outcomes = Vec::with_capacity(batch.len());
        let start = Instant::now();
        for &(core, acc) in batch.iter() {
            outcomes.push(hierarchy.access(core, acc.addr, acc.write));
        }
        access_time += start.elapsed();
        for (&(core, acc), outcome) in batch.iter().zip(&outcomes) {
            clock[core] += outcome.latency;
            if outcome.offchip_bytes > 0 {
                misses.push(Miss {
                    core,
                    block: acc.addr >> shift,
                    bytes: outcome.offchip_bytes,
                    at: clock[core],
                });
            }
        }
        accesses += batch.len() as u64;
        batch.clear();
    };

    for (i, task) in dag.one_df_order().into_iter().enumerate() {
        let core = i % cores;
        for pattern in &dag.node(task).accesses {
            expanded.clear();
            pattern.expand_into(0, pattern.len(), &mut expanded);
            batch.extend(expanded.iter().map(|&acc| (core, acc)));
        }
        if batch.len() >= BATCH_REFS {
            flush(&mut batch, &mut misses);
        }
    }
    flush(&mut batch, &mut misses);
    let stats = hierarchy.stats();
    misses.sort_by_key(|m| m.at);
    CacheReplay {
        accesses,
        l1_misses: stats.l1_total().misses(),
        l2_misses: stats.l2.misses(),
        access_time,
        misses,
    }
}

#[derive(Debug)]
pub struct MemsysReplay {
    pub txns: u64,
    pub row_hits: u64,
    pub time: Duration,
}

impl MemsysReplay {
    pub fn ns_per_txn(&self) -> f64 {
        per_op_ns(self.time, self.txns)
    }

    pub fn row_hit_frac(&self) -> f64 {
        self.row_hits as f64 / self.txns.max(1) as f64
    }
}

/// Push the cache replay's misses through the memory system `config`
/// resolves to, in request-time order.
pub fn memsys_replay(misses: &[Miss], config: &CmpConfig) -> MemsysReplay {
    let mut mem = MemSystem::new(&config.resolved_memsys());
    let mut row_hits = 0u64;
    let start = Instant::now();
    for m in misses {
        let tx = mem.transact(m.core, m.block, m.bytes, m.at);
        row_hits += tx.row_hit as u64;
    }
    MemsysReplay {
        txns: misses.len() as u64,
        row_hits,
        time: start.elapsed(),
    }
}

#[derive(Debug)]
pub struct PolicyReplay {
    /// Tasks the policy dispatched; every task of the DAG when it strands
    /// none.
    pub tasks: u64,
    pub time: Duration,
}

impl PolicyReplay {
    pub fn ns_per_task(&self) -> f64 {
        per_op_ns(self.time, self.tasks)
    }
}

/// Drive `spec` on `cores` cores through unit-cost list scheduling: every
/// round each idle core asks for a task, every started task completes at the
/// end of the round, and completions enable successors on their core.
pub fn policy_replay(dag: &TaskDag, spec: &SchedulerSpec, cores: usize) -> PolicyReplay {
    let mut remaining = dag.in_degrees();
    let mut running = Vec::with_capacity(cores);
    let mut tasks = 0u64;
    let start = Instant::now();
    let mut policy = make_policy(spec, cores);
    policy.init(dag);
    policy.task_ready(dag.root(), None);
    loop {
        for core in 0..cores {
            let next = policy.next_task(core);
            black_box(policy.take_dispatch_cost());
            if let Some(task) = next {
                running.push((core, task));
            }
        }
        if running.is_empty() {
            break;
        }
        for (core, task) in running.drain(..) {
            tasks += 1;
            policy.task_complete(task, core);
            for &s in dag.successors(task).iter().rev() {
                remaining[s.index()] -= 1;
                if remaining[s.index()] == 0 {
                    policy.task_ready(s, Some(core));
                }
            }
        }
    }
    PolicyReplay {
        tasks,
        time: start.elapsed(),
    }
}

/// Feed `n` seeded pseudo-random, heavy-tailed observations through one
/// `StreamingQuantiles`; returns host ns per observation.
pub fn quantile_replay(n: u64, seed: u64) -> f64 {
    let mut state = seed;
    let values: Vec<f64> = (0..n)
        .map(|_| {
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            // Pareto(alpha = 1.5) sojourn-like values.
            1e4 / (1.0 - u).powf(1.0 / 1.5)
        })
        .collect();
    let mut q = StreamingQuantiles::new();
    let start = Instant::now();
    for &v in &values {
        q.observe(v);
    }
    let time = start.elapsed();
    black_box(q.p99());
    per_op_ns(time, n)
}

/// SplitMix64: the benchmark's own seeded generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
