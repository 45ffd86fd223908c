//! Per-task reuse-distance profiles for the `cache=analytic` simulation mode.
//!
//! The analytic mode replaces trace-driven cache simulation with a two-step
//! factorization: *profile once*, *compose per cell*.  A [`DagCacheProfile`]
//! runs the DAG's entire address stream through the one-pass
//! [`StackDistanceProfiler`] in the
//! program's sequential (1DF) order, attributing each reference's stack
//! distance to the task that issued it.  Pricing a task against a concrete
//! cache geometry is then two histogram lookups
//! ([`DagCacheProfile::task_costs`]) — so a sweep over scheduler × cores ×
//! L2-size cells never touches the address stream again.
//!
//! The composition is deliberately schedule-*independent*: distances are
//! measured against the sequential interleaving, the model the reuse-distance
//! literature composes scheduler cache bounds from ("Analysis of
//! Work-Stealing and Parallel Cache Complexity", PAPERS.md).  PDF/WS
//! differences in *sharing* therefore vanish in this mode — it prices
//! capacity, not constructive interference — which is exactly the
//! approximation the declared MPKI tolerance
//! ([`pdfws_cache_sim::MPKI_TOLERANCE_ANALYTIC`]) budgets for.
//!
//! Profiles are cached per `(Arc<TaskDag>, line_bytes)` identity in a global
//! table, so every engine built over the same shared DAG (the sweep runner
//! shares one `Arc` across all cells) reuses one profiling pass.

use pdfws_cache_sim::stack_distance::{DistanceHistogram, StackDistanceProfiler};
use pdfws_task_dag::memref::RANGE_STEP_BYTES;
use pdfws_task_dag::{AccessPattern, TaskDag, TaskId};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Reuse-distance profile of one task within its DAG's sequential stream.
#[derive(Debug, Clone, Default)]
struct TaskProfile {
    /// Memory references the task issues.
    refs: u64,
    /// References that are stores.
    writes: u64,
    /// Stack distances of the task's references (cold first-touches counted
    /// separately inside the histogram; they miss in every finite cache).
    hist: DistanceHistogram,
}

/// Analytic cache costs of one task against a concrete two-level geometry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCacheCosts {
    /// Memory references the task issues.
    pub refs: u64,
    /// References served by the (private) L1.
    pub l1_hits: u64,
    /// References that miss L1 but hit the shared L2.
    pub l2_hits: u64,
    /// References that go off chip.
    pub misses: u64,
    /// Dirty lines written back, estimated pro-rata from the task's store
    /// fraction.
    pub writebacks: u64,
}

/// Per-task reuse-distance histograms for one DAG, profiled once in 1DF
/// order.
#[derive(Debug)]
pub struct DagCacheProfile {
    line_bytes: u64,
    tasks: Vec<TaskProfile>,
}

impl DagCacheProfile {
    /// Profile `dag`'s sequential address stream at `line_bytes` granularity.
    ///
    /// One pass over every reference of every task, visited in the DAG's 1DF
    /// order — the same order the sequential baseline executes, so distances
    /// model the sequential reuse the paper's schedulers try to preserve.
    pub fn build(dag: &TaskDag, line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let shift = line_bytes.trailing_zeros();
        let mut profiler = StackDistanceProfiler::new();
        let mut tasks = vec![TaskProfile::default(); dag.len()];
        // Sequential streams touch the same line many times in a row; a
        // reference to the line the previous reference touched has stack
        // distance 0 by definition, so only run boundaries pay the Fenwick
        // update (an exact shortcut, not an approximation).
        let mut prev_block = u64::MAX;
        // One histogram record per reference, visited in exactly
        // `AccessPattern::iter` order — but expanded per variant, since the
        // generic iterator's per-reference bounds check (a `div_ceil`) and
        // `MemAccess` construction are most of the profiling pass's cost and
        // the arithmetic patterns are closed-form.
        #[inline]
        fn touch(
            block: u64,
            prev: &mut u64,
            hist: &mut DistanceHistogram,
            profiler: &mut StackDistanceProfiler,
        ) {
            if block == *prev {
                hist.record(0);
                return;
            }
            *prev = block;
            match profiler.access(block) {
                Some(d) => hist.record(d),
                None => hist.record_cold(),
            }
        }
        for task in dag.one_df_order() {
            let node = dag.node(task);
            let profile = &mut tasks[task.index()];
            for pattern in &node.accesses {
                let n = pattern.len();
                profile.refs += n;
                match pattern {
                    AccessPattern::Range { base, write, .. } => {
                        profile.writes += if *write { n } else { 0 };
                        let mut addr = *base;
                        for _ in 0..n {
                            touch(
                                addr >> shift,
                                &mut prev_block,
                                &mut profile.hist,
                                &mut profiler,
                            );
                            addr += RANGE_STEP_BYTES;
                        }
                    }
                    AccessPattern::RepeatedRange {
                        base,
                        len,
                        passes,
                        write,
                    } => {
                        profile.writes += if *write { n } else { 0 };
                        let steps = len.div_ceil(RANGE_STEP_BYTES);
                        for _ in 0..*passes {
                            let mut addr = *base;
                            for _ in 0..steps {
                                touch(
                                    addr >> shift,
                                    &mut prev_block,
                                    &mut profile.hist,
                                    &mut profiler,
                                );
                                addr += RANGE_STEP_BYTES;
                            }
                        }
                    }
                    AccessPattern::Strided {
                        base,
                        count,
                        stride,
                        write,
                    } => {
                        profile.writes += if *write { n } else { 0 };
                        let mut addr = *base;
                        for _ in 0..*count {
                            touch(
                                addr >> shift,
                                &mut prev_block,
                                &mut profile.hist,
                                &mut profiler,
                            );
                            addr += *stride;
                        }
                    }
                    AccessPattern::Explicit { addrs, write } => {
                        profile.writes += if *write { n } else { 0 };
                        for &addr in addrs {
                            touch(
                                addr >> shift,
                                &mut prev_block,
                                &mut profile.hist,
                                &mut profiler,
                            );
                        }
                    }
                }
            }
        }
        DagCacheProfile { line_bytes, tasks }
    }

    /// The line granularity the profile was taken at.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Compose `task`'s profile against an L1 of `l1_blocks` and an L2 of
    /// `l2_blocks` lines (fully-associative LRU equivalents of the simulated
    /// set-associative caches).
    pub fn task_costs(&self, task: TaskId, l1_blocks: u64, l2_blocks: u64) -> TaskCacheCosts {
        let p = &self.tasks[task.index()];
        let l1_hits = p.hist.count_below(l1_blocks);
        let l2_hits = p.hist.count_below(l2_blocks.max(l1_blocks)) - l1_hits;
        let misses = p.refs - l1_hits - l2_hits;
        // Dirty-victim writebacks scale with the store fraction of the lines
        // the cache turns over (the misses).
        let writebacks = if p.refs == 0 {
            0
        } else {
            (misses as u128 * p.writes as u128 / p.refs as u128) as u64
        };
        TaskCacheCosts {
            refs: p.refs,
            l1_hits,
            l2_hits,
            misses,
            writebacks,
        }
    }
}

/// One slot of the global profile cache.
struct CacheEntry {
    dag: Weak<TaskDag>,
    line_bytes: u64,
    profile: Arc<DagCacheProfile>,
}

fn profile_cache() -> &'static Mutex<Vec<CacheEntry>> {
    static CACHE: OnceLock<Mutex<Vec<CacheEntry>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Vec::new()))
}

/// The profile for `dag` at `line_bytes`, building (and caching) it on first
/// use.  Keyed by `Arc` identity: every engine the sweep runner builds over
/// one shared DAG reuses a single profiling pass.  Entries whose DAG has been
/// dropped are pruned on each lookup, so the cache never outgrows the set of
/// live DAGs.
pub fn profile_for(dag: &Arc<TaskDag>, line_bytes: u64) -> Arc<DagCacheProfile> {
    let mut cache = profile_cache().lock().expect("profile cache poisoned");
    cache.retain(|e| e.dag.strong_count() > 0);
    if let Some(entry) = cache.iter().find(|e| {
        e.line_bytes == line_bytes
            && e.dag
                .upgrade()
                .is_some_and(|alive| Arc::ptr_eq(&alive, dag))
    }) {
        return Arc::clone(&entry.profile);
    }
    let profile = Arc::new(DagCacheProfile::build(dag, line_bytes));
    cache.push(CacheEntry {
        dag: Arc::downgrade(dag),
        line_bytes,
        profile: Arc::clone(&profile),
    });
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_task_dag::builder::DagBuilder;
    use pdfws_task_dag::AccessPattern;

    fn two_pass_dag() -> TaskDag {
        let mut b = DagBuilder::new();
        let first = b
            .task("first")
            .instructions(10)
            .access(AccessPattern::range_read(0, 64 * 100))
            .build();
        let second = b
            .task("second")
            .instructions(10)
            .access(AccessPattern::range_write(0, 64 * 100))
            .build();
        b.edge(first, second);
        b.finish().unwrap()
    }

    #[test]
    fn sequential_reuse_lands_in_the_successor_task() {
        let dag = two_pass_dag();
        let p = DagCacheProfile::build(&dag, 64);
        let first = p.task_costs(TaskId(0), 128, 1024);
        let second = p.task_costs(TaskId(1), 128, 1024);
        // The first pass is all cold misses; the second re-reads the same 100
        // blocks at distance 99..0 < 128, so everything hits in L1.
        assert_eq!(first.refs, 100);
        assert_eq!(first.misses, 100);
        assert_eq!(first.l1_hits, 0);
        assert_eq!(second.refs, 100);
        assert_eq!(second.l1_hits, 100);
        assert_eq!(second.misses, 0);
        // All of the second task's references are stores.
        assert_eq!(second.writebacks, 0); // no misses => no turnover
    }

    #[test]
    fn capacity_separates_l1_from_l2_hits() {
        let dag = two_pass_dag();
        let p = DagCacheProfile::build(&dag, 64);
        // A 32-block L1 cannot hold the 100-block working set, a 1024-block
        // L2 can: the reuse pass hits in L2, not L1.
        let second = p.task_costs(TaskId(1), 32, 1024);
        assert_eq!(second.l1_hits, 0);
        assert_eq!(second.l2_hits, 100);
        assert_eq!(second.misses, 0);
        // Neither level can hold it: off chip again.
        let second = p.task_costs(TaskId(1), 32, 64);
        assert_eq!(second.misses, 100);
        assert!(second.writebacks > 0, "store misses imply writebacks");
    }

    #[test]
    fn costs_are_consistent_and_exhaustive() {
        let dag = two_pass_dag();
        let p = DagCacheProfile::build(&dag, 64);
        for task in dag.task_ids() {
            for (l1, l2) in [(16, 64), (128, 1024), (1, 1), (1 << 20, 1 << 22)] {
                let c = p.task_costs(task, l1, l2);
                assert_eq!(c.refs, c.l1_hits + c.l2_hits + c.misses);
                assert!(c.writebacks <= c.misses);
            }
        }
    }

    #[test]
    fn profile_cache_is_keyed_by_arc_identity() {
        let a = Arc::new(two_pass_dag());
        let b = Arc::new(two_pass_dag());
        let pa = profile_for(&a, 64);
        let pa2 = profile_for(&a, 64);
        assert!(Arc::ptr_eq(&pa, &pa2), "same DAG, same profile");
        let pb = profile_for(&b, 64);
        assert!(!Arc::ptr_eq(&pa, &pb), "distinct DAGs profile separately");
        let p128 = profile_for(&a, 128);
        assert!(!Arc::ptr_eq(&pa, &p128), "line size is part of the key");
        assert_eq!(p128.line_bytes(), 128);
    }
}
