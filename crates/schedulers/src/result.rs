//! Results of one simulated run.

use pdfws_cache_sim::stats::HierarchyStats;
use serde::{Deserialize, Serialize};

/// Everything measured during one simulation of one DAG on one configuration
/// under one scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Canonical scheduler spec string (e.g. "pdf", "ws:steal=half,victim=random"),
    /// so differently parameterized runs of the same policy stay distinguishable.
    pub scheduler: String,
    /// Number of cores simulated.
    pub cores: usize,
    /// Makespan: cycle at which the last task completed.
    pub cycles: u64,
    /// Total instructions executed (compute + one per memory reference).
    pub instructions: u64,
    /// Total memory references issued.
    pub memory_accesses: u64,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Per-core busy cycles (executing a task).
    pub busy_cycles: Vec<u64>,
    /// Cycles spent stalled waiting for the memory system (queueing delay on
    /// top of the raw access latency), summed over cores.  Under the
    /// component model this is `bus_queue_cycles + dram_queue_cycles`; under
    /// the legacy serializing-channel model it is the channel's busy-window
    /// wait.
    pub offchip_queue_cycles: u64,
    /// Cycles requests waited for a shared-bus grant (component memory-system
    /// model only; 0 under `--memsys legacy`).
    pub bus_queue_cycles: u64,
    /// Cycles requests waited inside the DRAM controller — bank busy windows
    /// plus data-pin contention (component model only; 0 under legacy).
    pub dram_queue_cycles: u64,
    /// Work migrations performed: steal events for deque-based policies
    /// (`ws`, post-switch `hybrid`), cross-core placements for `static`; 0 for
    /// `pdf`, whose global queue has no migration concept.
    pub migrations: u64,
    /// Cycles thieves spent executing the steal protocol itself, summed over
    /// cores (`steal_cycles=N` on priced `ws`/`hybrid`/`adaptive` specs; 0
    /// under the default free-steal model).  These cycles are charged to the
    /// thief's busy time.  Failed-probe backoff (`fail_backoff=N`) idles the
    /// core instead and is *not* counted here.
    pub steal_cycles: u64,
    /// Cache-hierarchy statistics at the end of the run.
    pub hierarchy: HierarchyStats,
}

impl SimResult {
    /// L2 misses per 1000 instructions — the paper's off-chip-traffic metric
    /// (left panel of Figure 1).
    pub fn l2_mpki(&self) -> f64 {
        self.hierarchy
            .l2_misses_per_kilo_instruction(self.instructions)
    }

    /// Total off-chip traffic in bytes.
    pub fn offchip_bytes(&self) -> u64 {
        self.hierarchy.offchip_bytes
    }

    /// Average core utilisation in [0, 1]: busy cycles / (cores × makespan).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 || self.busy_cycles.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.busy_cycles.iter().sum();
        busy as f64 / (self.cycles as f64 * self.busy_cycles.len() as f64)
    }

    /// Speedup of this run relative to a baseline run (typically the sequential
    /// one-core execution of the same DAG): `baseline.cycles / self.cycles`.
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        baseline.cycles as f64 / self.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cycles: u64, instructions: u64, l2_misses: u64, busy: Vec<u64>) -> SimResult {
        let mut hierarchy = HierarchyStats::new(busy.len());
        hierarchy.l2.read_misses = l2_misses;
        hierarchy.offchip_bytes = l2_misses * 64;
        SimResult {
            scheduler: "pdf".into(),
            cores: busy.len(),
            cycles,
            instructions,
            memory_accesses: instructions / 2,
            tasks: 10,
            busy_cycles: busy,
            offchip_queue_cycles: 0,
            bus_queue_cycles: 0,
            dram_queue_cycles: 0,
            migrations: 0,
            steal_cycles: 0,
            hierarchy,
        }
    }

    #[test]
    fn mpki_uses_total_instructions() {
        let r = result(1000, 50_000, 25, vec![1000]);
        assert!((r.l2_mpki() - 0.5).abs() < 1e-12);
        assert_eq!(r.offchip_bytes(), 25 * 64);
    }

    #[test]
    fn utilization_is_busy_over_total() {
        let r = result(1000, 1, 0, vec![1000, 500, 0, 500]);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        let empty = result(0, 0, 0, vec![]);
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn speedup_is_ratio_of_makespans() {
        let seq = result(10_000, 1, 0, vec![10_000]);
        let par = result(2_500, 1, 0, vec![2_500; 4]);
        assert!((par.speedup_over(&seq) - 4.0).abs() < 1e-12);
        assert!((seq.speedup_over(&seq) - 1.0).abs() < 1e-12);
    }
}
