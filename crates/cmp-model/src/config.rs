//! Complete CMP configurations and the paper's *default configuration* rule.
//!
//! A [`CmpConfig`] bundles everything the cache simulator and execution engine need
//! to know about the machine: core count, the geometry and latency of the private
//! L1s and the shared L2, memory latency, and the off-chip bandwidth ceiling.
//!
//! [`default_config`] derives the configuration the paper would use for a given
//! core count: pick the default process node for that core count, place the cores
//! on the 240 mm² die, and spend the remaining area on shared L2.

use crate::area::{AreaModel, L1_BYTES_PER_CORE};
use crate::error::ModelError;
use crate::latency;
use crate::memsys::{MemSysMode, MemSysParams, ResolvedMemSys};
use crate::tech::ProcessNode;
use crate::LINE_BYTES;
use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line (block) size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Access latency in core cycles (hit latency).
    pub latency_cycles: u64,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.line_bytes * self.associativity)
    }

    /// Number of lines in the cache.
    pub fn lines(&self) -> usize {
        self.capacity_bytes / self.line_bytes
    }

    /// Validate the geometry: everything non-zero, line size a power of two,
    /// capacity divisible into an integral number of sets.
    pub fn validate(&self) -> Result<(), ModelError> {
        let fail = |reason: &str| {
            Err(ModelError::InvalidCacheGeometry {
                reason: reason.to_string(),
            })
        };
        if self.capacity_bytes == 0 {
            return fail("capacity is zero");
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return fail("line size must be a non-zero power of two");
        }
        if self.associativity == 0 {
            return fail("associativity is zero");
        }
        if !self
            .capacity_bytes
            .is_multiple_of(self.line_bytes * self.associativity)
        {
            return fail("capacity is not an integral number of sets");
        }
        if !self.sets().is_power_of_two() {
            return fail("set count must be a power of two for address slicing");
        }
        Ok(())
    }
}

/// Largest core count a configuration may have: the cache hierarchy tracks
/// each L2 line's L1 sharers in a 64-bit core mask.
pub const MAX_CORES: usize = 64;

/// A complete simulated-CMP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CmpConfig {
    /// Number of processing cores on the die.
    pub cores: usize,
    /// Process technology node.
    pub node: ProcessNode,
    /// Private per-core L1 geometry.
    pub l1: CacheGeometry,
    /// Shared L2 geometry.
    pub l2: CacheGeometry,
    /// Round-trip latency to main memory, in cycles.
    pub memory_latency_cycles: u64,
    /// Sustained off-chip bandwidth in bytes per core cycle.
    pub offchip_bytes_per_cycle: f64,
    /// Cost of a context switch, in cycles (multiprogramming experiments).
    pub context_switch_cycles: u64,
    /// Core clock frequency in GHz (only used to convert cycles to seconds in reports).
    pub frequency_ghz: f64,
    /// Memory-system model selection and sizing overrides (the default derives
    /// a shared bus + DRAM controller from the channel parameters above).
    pub memsys: MemSysParams,
}

impl CmpConfig {
    /// Validate the whole configuration.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.cores == 0 || self.cores > MAX_CORES {
            return Err(ModelError::UnsupportedCoreCount {
                requested: self.cores,
            });
        }
        self.l1.validate()?;
        self.l2.validate()?;
        if self.l2.capacity_bytes < self.l1.capacity_bytes {
            return Err(ModelError::InvalidCacheGeometry {
                reason: "shared L2 smaller than one private L1".to_string(),
            });
        }
        if self.offchip_bytes_per_cycle <= 0.0 {
            return Err(ModelError::InvalidCacheGeometry {
                reason: "off-chip bandwidth must be positive".to_string(),
            });
        }
        self.memsys
            .validate()
            .map_err(|reason| ModelError::InvalidCacheGeometry { reason })?;
        Ok(())
    }

    /// Resolve the configuration's memory-system overrides into concrete
    /// component sizes (bus width, DRAM bandwidth, banks, row latencies).
    pub fn resolved_memsys(&self) -> ResolvedMemSys {
        self.memsys.resolve(
            self.offchip_bytes_per_cycle,
            self.memory_latency_cycles,
            self.l2.line_bytes,
        )
    }

    /// Shared L2 capacity per core, in bytes.
    pub fn l2_bytes_per_core(&self) -> usize {
        self.l2.capacity_bytes / self.cores
    }

    /// A compact single-line description, used by the experiment binaries.
    pub fn describe(&self) -> String {
        let memsys = match self.memsys.mode {
            MemSysMode::BusDram => "bus+dram",
            MemSysMode::Legacy => "legacy channel",
        };
        format!(
            "{} core(s) @ {:?}: L1 {} KiB/core, L2 {} KiB shared, mem {} cyc, {:.2} B/cyc off-chip ({memsys})",
            self.cores,
            self.node,
            self.l1.capacity_bytes / 1024,
            self.l2.capacity_bytes / 1024,
            self.memory_latency_cycles,
            self.offchip_bytes_per_cycle
        )
    }
}

/// The private-L1 geometry shared by every configuration in the study.
pub fn default_l1() -> CacheGeometry {
    CacheGeometry {
        capacity_bytes: L1_BYTES_PER_CORE,
        line_bytes: LINE_BYTES,
        associativity: 4,
        latency_cycles: latency::L1_LATENCY_CYCLES,
    }
}

/// Round a capacity down to the nearest value whose set count is a power of two
/// for the given line size and associativity.
fn round_to_power_of_two_sets(capacity: usize, line: usize, assoc: usize) -> usize {
    let set_bytes = line * assoc;
    let sets = capacity / set_bytes;
    if sets == 0 {
        return 0;
    }
    let sets_p2 = if sets.is_power_of_two() {
        sets
    } else {
        sets.next_power_of_two() / 2
    };
    sets_p2 * set_bytes
}

/// The paper's default configuration for a given core count (1..=32).
///
/// Picks the default process node for that core count, places the cores on the
/// fixed 240 mm² die, converts the left-over area into shared-L2 capacity, and
/// fills in latencies and bandwidth from the node.
pub fn default_config(cores: usize) -> Result<CmpConfig, ModelError> {
    let node = ProcessNode::default_for_cores(cores)
        .ok_or(ModelError::UnsupportedCoreCount { requested: cores })?;
    config_for(cores, node, &AreaModel::default())
}

/// Derive a configuration for an explicit (cores, node) pair and area model.
pub fn config_for(
    cores: usize,
    node: ProcessNode,
    area: &AreaModel,
) -> Result<CmpConfig, ModelError> {
    let breakdown = area.breakdown(cores, node)?;
    let l2_assoc = 16;
    let l2_capacity = round_to_power_of_two_sets(breakdown.l2_capacity_bytes, LINE_BYTES, l2_assoc);
    if l2_capacity == 0 {
        return Err(ModelError::DieBudgetExceeded {
            cores,
            required_mm2: breakdown.core_mm2 + breakdown.l1_mm2 + breakdown.overhead_mm2,
            budget_mm2: area.die_mm2,
        });
    }
    let l2 = CacheGeometry {
        capacity_bytes: l2_capacity,
        line_bytes: LINE_BYTES,
        associativity: l2_assoc,
        latency_cycles: latency::l2_latency_cycles(l2_capacity, node),
    };
    let cfg = CmpConfig {
        cores,
        node,
        l1: default_l1(),
        l2,
        memory_latency_cycles: latency::memory_latency_cycles(node),
        offchip_bytes_per_cycle: node.offchip_bytes_per_cycle(),
        context_switch_cycles: latency::CONTEXT_SWITCH_CYCLES,
        frequency_ghz: node.frequency_ghz(),
        memsys: MemSysParams::bus_dram(),
    };
    cfg.validate()?;
    Ok(cfg)
}

/// The core counts used on the x-axis of Figure 1: 1, 2, 4, 8, 16, 32.
pub fn default_core_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32]
}

/// The full set of default configurations used by Figure 1.
pub fn default_sweep() -> Vec<CmpConfig> {
    default_core_counts()
        .into_iter()
        .map(|c| default_config(c).expect("default configurations must exist for the study range"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_l1_is_valid() {
        default_l1().validate().unwrap();
    }

    #[test]
    fn geometry_sets_and_lines_are_consistent() {
        let g = default_l1();
        assert_eq!(g.sets() * g.associativity, g.lines());
        assert_eq!(g.lines() * g.line_bytes, g.capacity_bytes);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        let mut g = default_l1();
        g.capacity_bytes = 0;
        assert!(g.validate().is_err());

        let mut g = default_l1();
        g.line_bytes = 48;
        assert!(g.validate().is_err());

        let mut g = default_l1();
        g.associativity = 0;
        assert!(g.validate().is_err());

        let mut g = default_l1();
        g.capacity_bytes += 1;
        assert!(g.validate().is_err());
    }

    #[test]
    fn default_configs_exist_and_validate_for_figure1_points() {
        for cores in default_core_counts() {
            let cfg = default_config(cores).unwrap();
            cfg.validate().unwrap();
            assert_eq!(cfg.cores, cores);
        }
    }

    #[test]
    fn validate_bounds_the_core_count_by_the_sharer_mask_width() {
        let mut cfg = default_config(32).unwrap();
        cfg.cores = MAX_CORES;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.cores = MAX_CORES + 1;
        assert_eq!(
            cfg.validate(),
            Err(ModelError::UnsupportedCoreCount { requested: 65 })
        );
        cfg.cores = 0;
        assert_eq!(
            cfg.validate(),
            Err(ModelError::UnsupportedCoreCount { requested: 0 })
        );
    }

    #[test]
    fn default_configs_exist_for_every_count_in_1_to_32() {
        for cores in 1..=32 {
            let cfg = default_config(cores);
            assert!(cfg.is_ok(), "cores={cores}: {cfg:?}");
        }
    }

    #[test]
    fn out_of_range_core_counts_are_rejected() {
        assert!(default_config(0).is_err());
        assert!(default_config(33).is_err());
        assert!(default_config(1000).is_err());
    }

    #[test]
    fn l2_per_core_shrinks_across_the_sweep() {
        let sweep = default_sweep();
        let mut prev = usize::MAX;
        for cfg in &sweep {
            let per_core = cfg.l2_bytes_per_core();
            assert!(
                per_core <= prev,
                "L2 per core should not grow as cores grow ({}: {} vs {})",
                cfg.cores,
                per_core,
                prev
            );
            prev = per_core;
        }
        // And the pressure is real: 32 cores have far less L2 per core than 1 core.
        assert!(
            sweep.first().unwrap().l2_bytes_per_core()
                > 4 * sweep.last().unwrap().l2_bytes_per_core()
        );
    }

    #[test]
    fn l2_is_multi_megabyte_for_every_default_config() {
        for cfg in default_sweep() {
            assert!(
                cfg.l2.capacity_bytes >= 1024 * 1024,
                "cores={}: L2 = {} bytes",
                cfg.cores,
                cfg.l2.capacity_bytes
            );
        }
    }

    #[test]
    fn l2_set_count_is_power_of_two() {
        for cfg in default_sweep() {
            assert!(cfg.l2.sets().is_power_of_two());
        }
    }

    #[test]
    fn bandwidth_per_core_shrinks_as_cores_grow() {
        let sweep = default_sweep();
        let first = &sweep[0];
        let last = sweep.last().unwrap();
        let per_core_first = first.offchip_bytes_per_cycle / first.cores as f64;
        let per_core_last = last.offchip_bytes_per_cycle / last.cores as f64;
        assert!(per_core_last < per_core_first / 4.0);
    }

    #[test]
    fn describe_mentions_cores_and_l2() {
        let cfg = default_config(8).unwrap();
        let d = cfg.describe();
        assert!(d.contains("8 core"));
        assert!(d.contains("KiB shared"));
        assert!(d.contains("bus+dram"));
    }

    #[test]
    fn default_configs_use_the_component_memory_model() {
        for cfg in default_sweep() {
            assert_eq!(cfg.memsys.mode, MemSysMode::BusDram);
            let r = cfg.resolved_memsys();
            // The bus is the off-chip pin budget, and the unloaded row-missing
            // line fill is calibrated to the config's memory latency.
            assert!((r.bus_bytes_per_cycle - cfg.offchip_bytes_per_cycle).abs() < 1e-12);
            let bus_line = crate::memsys::transfer_cycles(64, r.bus_bytes_per_cycle);
            let dram_line = crate::memsys::transfer_cycles(64, r.dram_bytes_per_cycle);
            assert_eq!(
                bus_line + r.dram_miss_cycles + dram_line,
                cfg.memory_latency_cycles,
                "cores={}",
                cfg.cores
            );
        }
    }

    #[test]
    fn config_rejects_invalid_memsys_overrides() {
        let mut cfg = default_config(2).unwrap();
        cfg.memsys.dram_banks = Some(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn config_rejects_l2_smaller_than_l1() {
        let mut cfg = default_config(2).unwrap();
        cfg.l2.capacity_bytes = 16 * 1024;
        cfg.l2.associativity = 4;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn config_for_at_a_fixed_node_does_not_grow_the_l2_with_cores() {
        let area = AreaModel::default();
        let configs: Vec<CmpConfig> = [1, 2, 4, 8]
            .iter()
            .map(|&cores| config_for(cores, ProcessNode::Nm32, &area).unwrap())
            .collect();
        for cfg in &configs {
            assert_eq!(cfg.node, ProcessNode::Nm32);
        }
        for w in configs.windows(2) {
            assert!(w[1].l2.capacity_bytes <= w[0].l2.capacity_bytes);
        }
    }

    #[test]
    fn round_to_power_of_two_sets_behaviour() {
        // 3 MiB with 64 B lines and 16 ways: 3072 sets -> rounds down to 2048 sets = 2 MiB.
        let r = round_to_power_of_two_sets(3 * 1024 * 1024, 64, 16);
        assert_eq!(r, 2 * 1024 * 1024);
        // Exact powers of two are preserved.
        let r = round_to_power_of_two_sets(4 * 1024 * 1024, 64, 16);
        assert_eq!(r, 4 * 1024 * 1024);
        // Too small becomes zero.
        assert_eq!(round_to_power_of_two_sets(512, 64, 16), 0);
    }
}
