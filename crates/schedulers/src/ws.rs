//! The Work Stealing (WS) scheduler, with configurable victim selection and
//! steal granularity.
//!
//! "Each processing core maintains a local work queue of ready-to-execute threads.
//! Whenever its local queue is empty, the core steals a thread from the bottom of
//! the first non-empty queue it finds."  [Blumofe–Leiserson, JACM 1999]
//!
//! Tasks enabled by a core's completions are pushed onto that core's own deque.
//! The owner pops from the *top* (most recently pushed — the leftmost newly
//! enabled child first, so each core descends depth-first into its own subtree),
//! while a thief removes from the *bottom* (the oldest entry, typically the root
//! of the largest unexplored subtree).
//!
//! The paper's scheduler scans victims round-robin starting from the core after
//! the thief ("first non-empty queue it finds"); that is the default.  Two
//! further strategies from the work-stealing literature are available through
//! the [`SchedulerSpec`] parameters:
//!
//! * `victim=random` — the scan *starts* at a seeded-random victim (the
//!   Blumofe–Leiserson randomized strategy, made deterministic for simulation);
//! * `victim=hier` (+ `cluster=N`) — hierarchical/NUMA-aware selection: cores
//!   are grouped into clusters of `N` consecutive ids, same-cluster victims
//!   are probed first (round-robin within the cluster), then the scan spills
//!   outward cluster by cluster in distance order.  `victim=hier,cluster=1`
//!   is the plain distance-ordered scan (`core+1`, `core-1`, `core+2`, ...,
//!   clamped to the chip), so steals prefer the topologically closest core;
//! * `steal=half` — a successful steal transfers half of the victim's deque
//!   (oldest entries) instead of a single task, amortising steal overhead at
//!   the cost of coarser load balancing.
//!
//! Stealing can also be *priced* (the paper treats it as free; the
//! work-stealing-simulator literature shows latency reshapes the comparison):
//!
//! * `steal_cycles=N` — a successful steal occupies the thief core for `N`
//!   simulated cycles before the stolen task starts (charged via
//!   [`SchedulerPolicy::take_dispatch_cost`]);
//! * `fail_backoff=N` — after a full victim scan finds every deque empty, the
//!   thief backs off and stays idle for `N` cycles before probing again.

use crate::policy::SchedulerPolicy;
use crate::spec::SchedulerSpec;
use pdfws_task_dag::{TaskDag, TaskId};
use pdfws_trace::PolicyEvent;
use std::collections::VecDeque;

/// How a thief chooses its victim.
#[derive(Debug, Clone, Copy)]
enum VictimSelect {
    /// Scan round-robin starting from the core after the thief (the paper's
    /// "first non-empty queue it finds").
    RoundRobin,
    /// Scan from a seeded-random starting core (deterministic for a fixed seed).
    Random,
    /// Hierarchical/NUMA-aware: cores `[k·cluster, (k+1)·cluster)` form cluster
    /// `k`; same-cluster victims are probed first (round-robin within the
    /// cluster, starting after the thief), then whole clusters in distance
    /// order (`k+1`, `k-1`, `k+2`, ...), cores within a foreign cluster in id
    /// order.
    Hier {
        /// Cores per cluster (clamped to `1..=cores`).
        cluster: usize,
    },
}

/// The default cluster width for `victim=hier` when `cluster` is not given.
const DEFAULT_CLUSTER: usize = 2;

/// How much a successful steal transfers.
#[derive(Debug, Clone, Copy)]
enum StealGranularity {
    /// One task per steal (the classic discipline).
    One,
    /// Half of the victim's deque (rounded up), oldest entries first; the
    /// thief runs the oldest and keeps the rest on its own deque.
    Half,
}

/// The WS policy: one double-ended queue per core.
#[derive(Debug)]
pub struct WorkStealingPolicy {
    name: String,
    deques: Vec<VecDeque<TaskId>>,
    steals: u64,
    tasks_stolen: u64,
    victim: VictimSelect,
    steal: StealGranularity,
    seed: u64,
    rng: u64,
    /// Cycles a successful steal occupies the thief core (0 = free steals).
    steal_cycles: u64,
    /// Idle back-off cycles after a fully-empty victim scan (0 = re-probe
    /// immediately at the next scheduling event).
    fail_backoff: u64,
    /// Dispatch cost of the most recent `next_task`, awaiting the engine's
    /// `take_dispatch_cost`.
    pending_cost: u64,
    /// Tasks whose enabling core is unknown (only the root) go here and are taken
    /// by the first core that asks.
    unassigned: VecDeque<TaskId>,
    /// Whether steal events are buffered for the engine's trace drain.
    tracing: bool,
    /// Buffered scheduler events since the last `trace_drain`.
    pending: Vec<PolicyEvent>,
}

impl WorkStealingPolicy {
    /// Build the policy a validated `ws`-family spec describes for `cores`
    /// cores, reporting `spec.canonical()` as its name.  This is the one
    /// decoder of the work-stealing parameters (`victim`, `cluster`, `steal`,
    /// `seed`, `steal_cycles`, `fail_backoff`), so `hybrid` and `adaptive`
    /// build their deque mode through it from their own specs.
    pub fn new(spec: &SchedulerSpec, cores: usize) -> Self {
        assert!(cores > 0, "work stealing needs at least one core");
        let victim = match spec.param("victim") {
            Some("random") => VictimSelect::Random,
            Some("hier") => VictimSelect::Hier {
                cluster: spec.u64_param("cluster").unwrap_or(DEFAULT_CLUSTER as u64) as usize,
            },
            _ => VictimSelect::RoundRobin,
        };
        let steal = match spec.param("steal") {
            Some("half") => StealGranularity::Half,
            _ => StealGranularity::One,
        };
        let seed = spec.u64_param("seed").unwrap_or(0);
        WorkStealingPolicy {
            name: spec.canonical(),
            deques: vec![VecDeque::new(); cores],
            steals: 0,
            tasks_stolen: 0,
            victim,
            steal,
            seed,
            rng: seed_state(seed),
            steal_cycles: spec.u64_param("steal_cycles").unwrap_or(0),
            fail_backoff: spec.u64_param("fail_backoff").unwrap_or(0),
            pending_cost: 0,
            unassigned: VecDeque::new(),
            tracing: false,
            pending: Vec::new(),
        }
    }

    /// Number of cores (deques).
    pub fn cores(&self) -> usize {
        self.deques.len()
    }

    /// Number of tasks currently queued on `core`'s deque.
    pub fn queue_len(&self, core: usize) -> usize {
        self.deques[core].len()
    }

    /// Total tasks transferred by steals (equals
    /// [`SchedulerPolicy::migrations`] under `steal=one`; larger under
    /// `steal=half`).
    pub fn tasks_stolen(&self) -> u64 {
        self.tasks_stolen
    }

    /// The victim deque the thief on `core` tries at scan position `offset`
    /// (`offset` in `1..cores`), under the configured strategy.
    fn victim_at(&mut self, core: usize, offset: usize) -> usize {
        let n = self.deques.len();
        match self.victim {
            VictimSelect::RoundRobin => (core + offset) % n,
            VictimSelect::Random => {
                // The scan starts at a random core and proceeds round-robin
                // (skipping the thief) so no non-empty deque is ever missed.
                // Draw once per scan.
                if offset == 1 {
                    self.rng = xorshift(self.rng);
                }
                let start = (self.rng as usize) % n;
                let mut seen = 0usize;
                for j in 0..n {
                    let v = (start + j) % n;
                    if v == core {
                        continue;
                    }
                    seen += 1;
                    if seen == offset {
                        return v;
                    }
                }
                unreachable!("offset {offset} out of range for {n} cores")
            }
            VictimSelect::Hier { cluster } => {
                // Same-cluster victims first (round-robin within the cluster,
                // starting after the thief), then whole clusters spilling
                // outward in distance order, cores within a foreign cluster
                // in id order.  Enumerates every core except the thief, so no
                // non-empty deque is ever missed.
                let k = cluster.clamp(1, n);
                let my = core / k;
                let base = my * k;
                let size = k.min(n - base);
                let mut seen = 0usize;
                for j in 1..size {
                    seen += 1;
                    if seen == offset {
                        return base + (core - base + j) % size;
                    }
                }
                let clusters = n.div_ceil(k);
                for d in 1..clusters {
                    for c in [my.checked_add(d), my.checked_sub(d)]
                        .into_iter()
                        .flatten()
                        .filter(|&c| c < clusters)
                    {
                        let cbase = c * k;
                        for v in cbase..(cbase + k).min(n) {
                            seen += 1;
                            if seen == offset {
                                return v;
                            }
                        }
                    }
                }
                unreachable!("offset {offset} out of range for {n} cores")
            }
        }
    }

    /// Remove every queued task (all deques plus the unassigned pool) and
    /// return them, oldest-first per deque.  The two-mode policy's tuner
    /// uses this to fall back from deque mode to the PDF queue; steal counters
    /// and the rng are deliberately left untouched so the run's statistics
    /// stay cumulative.
    pub(crate) fn drain_all(&mut self) -> Vec<TaskId> {
        let mut out: Vec<TaskId> = self.unassigned.drain(..).collect();
        for d in &mut self.deques {
            out.extend(d.drain(..));
        }
        out
    }

    /// Execute one steal from `victim`'s deque on behalf of `core`, honouring
    /// the configured granularity.  The victim's deque must be non-empty.
    fn steal_from(&mut self, core: usize, victim: usize) -> TaskId {
        self.steals += 1;
        self.pending_cost = self.steal_cycles;
        let (first, moved) = match self.steal {
            StealGranularity::One => {
                self.tasks_stolen += 1;
                (
                    self.deques[victim].pop_front().expect("victim non-empty"),
                    1,
                )
            }
            StealGranularity::Half => {
                let take = self.deques[victim].len().div_ceil(2);
                let mut stolen: Vec<TaskId> = self.deques[victim].drain(..take).collect();
                self.tasks_stolen += stolen.len() as u64;
                let first = stolen.remove(0);
                // Keep the stolen run in age order on the thief's deque
                // (front = oldest), preserving the deque invariant every
                // other path maintains: the owner's LIFO pop takes the
                // youngest, and a later thief's bottom steal takes the
                // oldest.
                for &t in &stolen {
                    self.deques[core].push_back(t);
                }
                (first, take as u64)
            }
        };
        if self.tracing {
            self.pending.push(PolicyEvent::Steal {
                core,
                victim,
                task: first.index() as u64,
                tasks: moved,
                cost: self.steal_cycles,
            });
        }
        first
    }
}

impl SchedulerPolicy for WorkStealingPolicy {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn init(&mut self, _dag: &TaskDag) {
        for d in &mut self.deques {
            d.clear();
        }
        self.unassigned.clear();
        self.steals = 0;
        self.tasks_stolen = 0;
        self.rng = seed_state(self.seed);
        self.pending_cost = 0;
        // `tracing` survives init: the engine enables it when the sink is
        // installed, before the run (and its init) begins.
        self.pending.clear();
    }

    fn task_ready(&mut self, task: TaskId, enabling_core: Option<usize>) {
        match enabling_core {
            Some(core) => self.deques[core].push_back(task),
            None => self.unassigned.push_back(task),
        }
    }

    fn next_task(&mut self, core: usize) -> Option<TaskId> {
        // Each call reports its own dispatch cost; stale cost from a call the
        // engine never charged (e.g. the test-only drain harness) must not
        // leak forward.
        self.pending_cost = 0;
        // Own deque first: LIFO (top = back).
        if let Some(task) = self.deques[core].pop_back() {
            return Some(task);
        }
        // Root-style unassigned work is taken for free (not a steal).
        if let Some(task) = self.unassigned.pop_front() {
            return Some(task);
        }
        // Steal from the bottom (front) of the first non-empty victim, in the
        // configured scan order.
        let n = self.deques.len();
        if self.tracing && n > 1 {
            self.pending.push(PolicyEvent::StealAttempt { core });
        }
        for offset in 1..n {
            let victim = self.victim_at(core, offset);
            if !self.deques[victim].is_empty() {
                return Some(self.steal_from(core, victim));
            }
        }
        if n > 1 {
            // A full scan probed every victim empty: back off before re-probing.
            self.pending_cost = self.fail_backoff;
        }
        None
    }

    fn ready_count(&self) -> usize {
        self.unassigned.len() + self.deques.iter().map(VecDeque::len).sum::<usize>()
    }

    fn migrations(&self) -> u64 {
        self.steals
    }

    fn take_dispatch_cost(&mut self) -> u64 {
        std::mem::take(&mut self.pending_cost)
    }

    fn trace_enable(&mut self) {
        self.tracing = true;
    }

    fn trace_drain(&mut self, out: &mut Vec<PolicyEvent>) {
        out.append(&mut self.pending);
    }
}

/// Non-zero xorshift64 state for a seed.
fn seed_state(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// One xorshift64 step.
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{binary_tree, drain_policy, spec};
    use pdfws_task_dag::builder::DagBuilder;

    /// The policy `ws_spec` describes, on `cores` cores.
    fn ws_policy(ws_spec: &str, cores: usize) -> WorkStealingPolicy {
        WorkStealingPolicy::new(&spec(ws_spec), cores)
    }

    fn star_dag(children: usize) -> (pdfws_task_dag::TaskDag, Vec<TaskId>) {
        let mut b = DagBuilder::new();
        let root = b.task("root").build();
        let kids: Vec<_> = (0..children)
            .map(|i| b.task(format_args!("c{i}")).build())
            .collect();
        for &c in &kids {
            b.edge(root, c);
        }
        (b.finish().unwrap(), kids)
    }

    #[test]
    fn owner_pops_lifo_thief_steals_fifo() {
        let (dag, kids) = star_dag(4);
        let mut ws = ws_policy("ws", 2);
        ws.init(&dag);
        // Core 0 enabled all four children (they land on core 0's deque in order).
        for &c in &kids {
            ws.task_ready(c, Some(0));
        }
        assert_eq!(ws.queue_len(0), 4);
        // Owner (core 0) pops the most recently pushed: c3.
        assert_eq!(ws.next_task(0), Some(kids[3]));
        // Thief (core 1) steals the oldest: c0.
        assert_eq!(ws.next_task(1), Some(kids[0]));
        assert_eq!(ws.migrations(), 1);
        // Owner continues LIFO with c2; thief steals c1.
        assert_eq!(ws.next_task(0), Some(kids[2]));
        assert_eq!(ws.next_task(1), Some(kids[1]));
        assert_eq!(ws.migrations(), 2);
        assert_eq!(ws.next_task(0), None);
        assert_eq!(ws.next_task(1), None);
    }

    #[test]
    fn steal_scans_round_robin_from_the_next_core() {
        let (dag, kids) = star_dag(2);
        let mut ws = ws_policy("ws", 4);
        ws.init(&dag);
        // Work only on core 3's deque.
        ws.task_ready(kids[0], Some(3));
        ws.task_ready(kids[1], Some(3));
        // Core 1 scans 2, 3 -> finds core 3's deque.
        assert_eq!(ws.next_task(1), Some(kids[0]));
        // Core 0 scans 1, 2, 3 -> also reaches core 3.
        assert_eq!(ws.next_task(0), Some(kids[1]));
        assert_eq!(ws.migrations(), 2);
    }

    #[test]
    fn own_work_is_not_counted_as_a_steal() {
        let (dag, kids) = star_dag(1);
        let mut ws = ws_policy("ws", 2);
        ws.init(&dag);
        ws.task_ready(dag.root(), None);
        assert_eq!(ws.next_task(0), Some(dag.root()));
        ws.task_ready(kids[0], Some(0));
        assert_eq!(ws.next_task(0), Some(kids[0]));
        assert_eq!(ws.migrations(), 0);
    }

    #[test]
    fn single_core_ws_executes_depth_first() {
        // With one core there is nobody to steal from, so WS follows the same
        // depth-first order the sequential program does.
        let dag = binary_tree(3, 10);
        let mut ws = ws_policy("ws", 1);
        let started = drain_policy(&dag, &mut ws, 1);
        assert_eq!(started, dag.one_df_order());
        assert_eq!(ws.migrations(), 0);
    }

    #[test]
    fn steals_are_rare_when_parallelism_is_plentiful() {
        // The paper: "when there is plenty of parallelism, stealing is quite rare."
        // A deep binary tree (1024 leaves) on 4 cores: steals should be a small
        // fraction of the number of tasks.
        let dag = binary_tree(10, 100);
        let mut ws = ws_policy("ws", 4);
        let started = drain_policy(&dag, &mut ws, 4);
        assert_eq!(started.len(), dag.len());
        assert!(
            (ws.migrations() as usize) < dag.len() / 10,
            "steals = {} out of {} tasks",
            ws.migrations(),
            dag.len()
        );
    }

    #[test]
    fn cores_drift_into_disjoint_subtrees() {
        // After core 1 steals the right half of the root fork, the next several
        // tasks each core starts must stay within its own half: WS working sets
        // become disjoint.
        let dag = binary_tree(6, 10);
        let mut ws = ws_policy("ws", 2);
        ws.init(&dag);
        let mut remaining = dag.in_degrees();
        ws.task_ready(dag.root(), None);
        // Manually interleave: each round core 0 then core 1 takes and completes a task.
        let mut core_tasks: [Vec<TaskId>; 2] = [Vec::new(), Vec::new()];
        #[allow(clippy::needless_range_loop)]
        for _ in 0..40 {
            for core in 0..2 {
                if let Some(t) = ws.next_task(core) {
                    core_tasks[core].push(t);
                    for &s in dag.successors(t).iter().rev() {
                        remaining[s.index()] -= 1;
                        if remaining[s.index()] == 0 {
                            ws.task_ready(s, Some(core));
                        }
                    }
                }
            }
        }
        // Identify each core's leaf labels; they must not overlap.
        let leaves = |v: &Vec<TaskId>| -> Vec<String> {
            v.iter()
                .map(|&t| dag.node(t).label.to_string())
                .filter(|l| l.starts_with("leaf-"))
                .collect()
        };
        let l0 = leaves(&core_tasks[0]);
        let l1 = leaves(&core_tasks[1]);
        assert!(!l0.is_empty() && !l1.is_empty());
        // Core 0 descends the left half ("leaf-0..."), the thief owns the right half.
        assert!(l0.iter().all(|l| l.starts_with("leaf-0")), "{l0:?}");
        assert!(l1.iter().all(|l| l.starts_with("leaf-1")), "{l1:?}");
    }

    #[test]
    fn steal_half_takes_half_the_victims_deque_in_one_event() {
        let (dag, kids) = star_dag(6);
        let mut ws = ws_policy("ws:steal=half", 2);
        ws.init(&dag);
        for &c in &kids {
            ws.task_ready(c, Some(0));
        }
        // One steal event moves ceil(6/2) = 3 tasks: the thief runs the oldest
        // (c0) and keeps c1, c2 on its own deque in age order (c1 at the
        // bottom, c2 at the top).
        assert_eq!(ws.next_task(1), Some(kids[0]));
        assert_eq!(ws.migrations(), 1);
        assert_eq!(ws.tasks_stolen(), 3);
        assert_eq!(ws.queue_len(1), 2);
        assert_eq!(ws.queue_len(0), 3);
        // The thief's own LIFO pop takes the youngest stolen task first (the
        // usual deque discipline), with no new steal event.
        assert_eq!(ws.next_task(1), Some(kids[2]));
        assert_eq!(ws.next_task(1), Some(kids[1]));
        assert_eq!(ws.migrations(), 1);
    }

    #[test]
    fn stolen_runs_keep_the_deque_age_invariant_for_later_thieves() {
        let (dag, kids) = star_dag(6);
        let mut ws = ws_policy("ws:steal=half", 3);
        ws.init(&dag);
        for &c in &kids {
            ws.task_ready(c, Some(0));
        }
        // Core 1 steals half of core 0's deque: runs c0, keeps [c1, c2].
        assert_eq!(ws.next_task(1), Some(kids[0]));
        // Core 0 drains its own remainder (LIFO: c5, c4, c3).
        assert_eq!(ws.next_task(0), Some(kids[5]));
        assert_eq!(ws.next_task(0), Some(kids[4]));
        assert_eq!(ws.next_task(0), Some(kids[3]));
        // Core 2 now steals from core 1 and must receive the *oldest* of the
        // stolen run (c1), not the youngest — the bottom-steal semantics hold
        // for re-stolen work too.
        assert_eq!(ws.next_task(2), Some(kids[1]));
        assert_eq!(ws.migrations(), 2);
    }

    #[test]
    fn steal_half_performs_fewer_steals_than_steal_one_on_the_same_dag() {
        // The acceptance property for the `steal` parameter: on the same seeded
        // DAG, transferring half the deque per event needs fewer events.  A
        // wide fork builds deep deques, which is where granularity matters (on
        // a binary tree deques never exceed two entries and the two tie).
        let dag = pdfws_task_dag::builder::SpTree::Par(
            (0..64)
                .map(|i| pdfws_task_dag::builder::SpTree::leaf(&format!("l{i}"), 50))
                .collect(),
        )
        .into_dag()
        .unwrap();
        let run = |ws_spec| {
            let mut ws = ws_policy(ws_spec, 4);
            let started = drain_policy(&dag, &mut ws, 4);
            assert_eq!(started.len(), dag.len());
            ws.migrations()
        };
        let one = run("ws");
        let half = run("ws:steal=half");
        assert!(
            half < one,
            "steal=half should need fewer steal events: half={half} one={one}"
        );
    }

    #[test]
    fn nearest_victim_prefers_the_closest_core() {
        let nearest = "ws:victim=hier,cluster=1";
        let (dag, kids) = star_dag(2);
        let mut ws = ws_policy(nearest, 4);
        ws.init(&dag);
        // Work on deques 0 and 2; the thief is core 3.
        ws.task_ready(kids[0], Some(0));
        ws.task_ready(kids[1], Some(2));
        // Round-robin from core 3 would scan 0 first; the distance-ordered
        // scan tries 2 first (distance 1 vs distance 3).
        assert_eq!(ws.next_task(3), Some(kids[1]));
        assert_eq!(ws.next_task(3), Some(kids[0]));
        assert_eq!(ws.migrations(), 2);

        // The full probe order is +1, -1, +2, -2, ..., clamped to the chip.
        for n in [1usize, 2, 5, 8, 32] {
            let mut ws = ws_policy(nearest, n);
            for core in 0..n {
                let expect: Vec<usize> = (1..n)
                    .flat_map(|d| [core.checked_add(d), core.checked_sub(d)])
                    .flatten()
                    .filter(|&v| v < n)
                    .collect();
                let order: Vec<usize> = (1..n).map(|o| ws.victim_at(core, o)).collect();
                assert_eq!(order, expect, "n={n} thief={core}");
            }
        }
    }

    #[test]
    fn random_victim_selection_is_seeded_and_changes_the_scan() {
        let (dag, kids) = star_dag(2);
        let setup = |ws_spec: &str| {
            let mut ws = ws_policy(ws_spec, 4);
            ws.init(&dag);
            ws.task_ready(kids[0], Some(1));
            ws.task_ready(kids[1], Some(3));
            // Which deque does core 0's first steal hit?
            ws.next_task(0)
        };
        let random = |seed| setup(&format!("ws:victim=random,seed={seed}"));
        let round_robin = setup("ws");
        assert_eq!(round_robin, Some(kids[0]), "RR scans core 1 first");
        // Same seed, same choice (determinism).
        for seed in 0..8 {
            assert_eq!(
                random(seed),
                random(seed),
                "seed {seed} must be deterministic"
            );
        }
        // Some seed starts the scan at core 2 or 3, finding kids[1] first —
        // i.e. the parameter actually changes the schedule.
        assert!(
            (0..8).any(|seed| random(seed) == Some(kids[1])),
            "no seed in 0..8 changed the victim scan"
        );
    }

    #[test]
    fn random_victims_still_drain_whole_dags() {
        let dag = binary_tree(7, 20);
        for seed in [0u64, 1, 42] {
            let mut ws = ws_policy(&format!("ws:victim=random,seed={seed}"), 3);
            let started = drain_policy(&dag, &mut ws, 3);
            assert_eq!(started.len(), dag.len(), "seed {seed}");
        }
    }

    #[test]
    fn hier_victim_prefers_the_same_cluster_then_spills_outward() {
        let (dag, kids) = star_dag(3);
        let mut ws = ws_policy("ws:victim=hier,cluster=4", 8);
        ws.init(&dag);
        // Work on cores 0 (foreign cluster), 5 and 7 (thief's cluster).
        ws.task_ready(kids[0], Some(0));
        ws.task_ready(kids[1], Some(5));
        ws.task_ready(kids[2], Some(7));
        // Thief is core 6 (cluster 1 = cores 4..8).  In-cluster round-robin
        // from the thief scans 7, 4, 5 before any foreign core, so core 7 is
        // robbed first, then core 5, and only then the spill reaches core 0.
        assert_eq!(ws.next_task(6), Some(kids[2]));
        assert_eq!(ws.next_task(6), Some(kids[1]));
        assert_eq!(ws.next_task(6), Some(kids[0]));
        assert_eq!(ws.migrations(), 3);
    }

    #[test]
    fn hier_scan_enumerates_every_victim_exactly_once() {
        // Whatever the geometry (including clusters that don't divide the
        // core count), offsets 1..n must enumerate all n-1 other cores.
        for n in 1usize..10 {
            for cluster in 1usize..=n + 1 {
                let mut ws = ws_policy(&format!("ws:victim=hier,cluster={cluster}"), n);
                for core in 0..n {
                    let mut seen: Vec<usize> = (1..n).map(|o| ws.victim_at(core, o)).collect();
                    seen.sort_unstable();
                    let expect: Vec<usize> = (0..n).filter(|&v| v != core).collect();
                    assert_eq!(seen, expect, "n={n} cluster={cluster} thief={core}");
                }
            }
        }
    }

    #[test]
    fn priced_steals_report_their_dispatch_cost_exactly_once() {
        let (dag, kids) = star_dag(2);
        let mut ws = ws_policy("ws:steal_cycles=64,fail_backoff=128", 2);
        ws.init(&dag);
        ws.task_ready(kids[0], Some(0));
        ws.task_ready(kids[1], Some(0));
        // Owner dispatch is free.
        assert_eq!(ws.next_task(0), Some(kids[1]));
        assert_eq!(ws.take_dispatch_cost(), 0);
        // A successful steal costs steal_cycles, taken exactly once.
        assert_eq!(ws.next_task(1), Some(kids[0]));
        assert_eq!(ws.take_dispatch_cost(), 64);
        assert_eq!(ws.take_dispatch_cost(), 0);
        // A fully-empty scan costs fail_backoff.
        assert_eq!(ws.next_task(1), None);
        assert_eq!(ws.take_dispatch_cost(), 128);
        assert_eq!(ws.take_dispatch_cost(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = ws_policy("ws", 0);
    }
}
