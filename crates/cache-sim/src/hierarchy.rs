//! The CMP memory hierarchy: per-core private L1s in front of one shared,
//! inclusive L2.
//!
//! This is the component the whole study runs on.  The hierarchy enforces
//! *inclusion* (a block present in any L1 is also present in the L2; evicting it
//! from the L2 back-invalidates every L1 copy) and a simple MSI-style write
//! -invalidate protocol between the L1s (a write by one core invalidates copies in
//! the other cores' L1s).  Each access reports where it was satisfied, how long it
//! took and how many bytes it moved across the off-chip interface, which is what
//! the execution engine needs to model bandwidth saturation.

use crate::addr::{Addr, BlockAddr};
use crate::cache::{AccessKind, Cache};
use crate::stats::HierarchyStats;
use pdfws_cmp_model::{CmpConfig, MAX_CORES};

/// Where in the hierarchy an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Private L1 hit.
    L1,
    /// L1 miss satisfied by the shared L2.
    L2,
    /// L2 miss satisfied by main memory (off-chip).
    Memory,
}

/// Result of one memory access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOutcome {
    /// Where the access was satisfied.
    pub level: Level,
    /// Latency of the access in cycles (hit latency of the satisfying level; the
    /// engine adds queueing delay for off-chip bandwidth separately).
    pub latency: u64,
    /// Bytes this access moved across the off-chip interface (line fill from
    /// memory plus any dirty L2 victim written back).
    pub offchip_bytes: u64,
}

impl AccessOutcome {
    /// Whether the access went off chip (L2 miss).
    pub fn is_offchip(&self) -> bool {
        self.level == Level::Memory
    }

    /// Whether the access was satisfied by the shared L2.
    pub fn hit_in_l2(&self) -> bool {
        self.level == Level::L2
    }
}

/// Private-L1s + shared-L2 hierarchy for one simulated CMP.
///
/// The sharer directory lives with the inclusive L2: one core mask per L2
/// slot, plus, for every L1 slot, the L2 slot of the block it holds.
/// Inclusion guarantees that every L1 block has an L2 slot, and a block keeps
/// its L2 slot until the L2 evicts it (which back-invalidates every L1 copy),
/// so each directory update is a direct index rather than a lookup.
#[derive(Debug, Clone)]
pub struct CmpCacheHierarchy {
    l1s: Vec<Cache>,
    l2: Cache,
    line_bytes: u64,
    /// `log2(line_bytes)`, precomputed so `access` turns a byte address into a
    /// block number with one shift instead of re-deriving the shift per access.
    block_shift: u32,
    l1_latency: u64,
    l2_latency: u64,
    memory_latency: u64,
    /// Per L2 slot: bitmask of the cores whose L1 holds that slot's block
    /// (0 for an empty slot).
    sharers: Box<[u64]>,
    /// Per core, per L1 slot: the L2 slot of the block the L1 line holds.
    /// Meaningful only while the L1 line is valid.
    l2_slot_of: Vec<Box<[u32]>>,
    offchip_bytes: u64,
    memory_fills: u64,
    coherence_invalidations: u64,
}

impl CmpCacheHierarchy {
    /// Build the hierarchy described by a CMP configuration, with LRU replacement
    /// everywhere (the paper's setting).
    ///
    /// # Panics
    ///
    /// Panics above 64 cores, the sharer-mask width; `CmpConfig::validate`
    /// rejects such configurations.
    pub fn new(config: &CmpConfig) -> Self {
        assert!(
            config.cores <= MAX_CORES,
            "the sharer masks are 64 bits wide"
        );
        assert!(
            u32::try_from(config.l2.lines()).is_ok(),
            "L2 slots must fit the 32-bit L1-to-L2 map"
        );
        CmpCacheHierarchy {
            l1s: (0..config.cores).map(|_| Cache::new(config.l1)).collect(),
            l2: Cache::new(config.l2),
            sharers: vec![0; config.l2.lines()].into_boxed_slice(),
            l2_slot_of: (0..config.cores)
                .map(|_| vec![0; config.l1.lines()].into_boxed_slice())
                .collect(),
            line_bytes: config.l2.line_bytes as u64,
            block_shift: (config.l2.line_bytes as u64).trailing_zeros(),
            l1_latency: config.l1.latency_cycles,
            l2_latency: config.l2.latency_cycles,
            memory_latency: config.memory_latency_cycles,
            offchip_bytes: 0,
            memory_fills: 0,
            coherence_invalidations: 0,
        }
    }

    /// Number of cores (private L1s).
    pub fn cores(&self) -> usize {
        self.l1s.len()
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Issue one access by `core` to byte address `addr`.
    #[inline]
    pub fn access(&mut self, core: usize, addr: Addr, write: bool) -> AccessOutcome {
        self.access_block(core, addr >> self.block_shift, write)
    }

    /// Issue one access by `core` to an already-computed block address.
    pub fn access_block(&mut self, core: usize, block: BlockAddr, write: bool) -> AccessOutcome {
        assert!(core < self.l1s.len(), "core {core} out of range");
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };

        let l1_result = self.l1s[core].access(block, kind);

        if l1_result.hit {
            if write {
                let slot = self.l2_slot_of[core][l1_result.slot] as usize;
                self.invalidate_other_sharers(slot, block, core);
            }
            return AccessOutcome {
                level: Level::L1,
                latency: self.l1_latency,
                offchip_bytes: 0,
            };
        }

        // The L1 filled the block and may have evicted a victim from the same
        // slot; drop this core from the victim's sharers and sink a dirty
        // victim into its L2 line, which inclusion guarantees is still there.
        if let Some(victim) = l1_result.evicted {
            let slot = self.l2_slot_of[core][l1_result.slot] as usize;
            debug_assert_eq!(self.l2.block_at(slot), Some(victim.block));
            self.sharers[slot] &= !(1 << core);
            if victim.dirty {
                self.l2.set_dirty(slot);
            }
        }

        // Look up the shared L2.  Fills are reads from the L2's perspective; dirty
        // data only reaches the L2 through L1 write-backs.
        let l2_result = self.l2.access(block, AccessKind::Read);
        let slot = l2_result.slot;

        let mut offchip = 0u64;
        if let Some(victim) = l2_result.evicted {
            // Inclusion: every L1 copy of the victim must go.
            let victim_dirty_in_l1 = self.back_invalidate(slot, victim.block);
            if victim.dirty || victim_dirty_in_l1 {
                offchip += self.line_bytes;
            }
        }

        // Mark this core as a sharer of the newly filled block and resolve write
        // invalidations against the other cores.  Doing this after the L2
        // lookup changes nothing: a block another L1 holds is an L2 hit, so the
        // lookup neither evicts nor reorders anything the invalidation touches.
        self.l2_slot_of[core][l1_result.slot] = slot as u32;
        self.sharers[slot] |= 1 << core;
        if write {
            self.invalidate_other_sharers(slot, block, core);
        }

        if l2_result.hit {
            self.offchip_bytes += offchip;
            AccessOutcome {
                level: Level::L2,
                latency: self.l2_latency,
                offchip_bytes: offchip,
            }
        } else {
            offchip += self.line_bytes; // the fill itself
            self.offchip_bytes += offchip;
            self.memory_fills += 1;
            AccessOutcome {
                level: Level::Memory,
                latency: self.memory_latency,
                offchip_bytes: offchip,
            }
        }
    }

    /// Invalidate every other core's L1 copy of `block`, held in L2 slot
    /// `slot` (write-invalidate coherence).  Dirty remote copies are folded
    /// into the L2.
    fn invalidate_other_sharers(&mut self, slot: usize, block: BlockAddr, writer: usize) {
        let mut others = self.sharers[slot] & !(1 << writer);
        if others == 0 {
            return;
        }
        while others != 0 {
            let core = others.trailing_zeros() as usize;
            others &= others - 1;
            if let Some(dirty) = self.l1s[core].invalidate(block) {
                self.coherence_invalidations += 1;
                if dirty {
                    self.l2.set_dirty(slot);
                }
            }
        }
        self.sharers[slot] = 1 << writer;
    }

    /// Remove `block`, just evicted from L2 slot `slot`, from every L1
    /// (inclusion back-invalidation).  Returns whether any evicted L1 copy
    /// was dirty.
    fn back_invalidate(&mut self, slot: usize, block: BlockAddr) -> bool {
        let mut remaining = std::mem::take(&mut self.sharers[slot]);
        let mut any_dirty = false;
        while remaining != 0 {
            let core = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            if let Some(dirty) = self.l1s[core].invalidate(block) {
                any_dirty |= dirty;
            }
        }
        any_dirty
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1s.iter().map(|c| *c.stats()).collect(),
            l2: *self.l2.stats(),
            offchip_bytes: self.offchip_bytes,
            memory_fills: self.memory_fills,
            coherence_invalidations: self.coherence_invalidations,
        }
    }

    /// Reset all statistics, keeping cache contents (used to exclude warm-up).
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1s {
            c.reset_stats();
        }
        self.l2.reset_stats();
        self.offchip_bytes = 0;
        self.memory_fills = 0;
        self.coherence_invalidations = 0;
    }

    /// Flush every cache (contents and directory), keeping statistics.  Used to
    /// model a context switch that destroys cache state.
    pub fn flush(&mut self) {
        for c in &mut self.l1s {
            c.flush();
        }
        self.l2.flush();
        self.sharers.fill(0);
    }

    /// Direct read-only access to the shared L2 (tests, working-set analysis).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Direct read-only access to core `i`'s L1.
    pub fn l1(&self, core: usize) -> &Cache {
        &self.l1s[core]
    }

    /// Check the inclusion invariant: every block in any L1 is also in the L2.
    /// Intended for tests and debug assertions; O(L1 lines × 1 probe).
    pub fn check_inclusion(&self) -> bool {
        self.l1s
            .iter()
            .all(|l1| l1.resident_blocks().all(|b| self.l2.probe(b)))
    }

    /// Check the sharer directory: every L2 slot's mask is exactly the set of
    /// cores whose L1 holds the slot's block (empty for an empty slot), and
    /// every valid L1 line's recorded L2 slot holds that line's block.
    /// Intended for tests and debug assertions; O(L2 lines × cores).
    pub fn check_directory(&self) -> bool {
        let masks_exact = (0..self.l2.geometry().lines()).all(|slot| {
            let holders = match self.l2.block_at(slot) {
                Some(block) => self
                    .l1s
                    .iter()
                    .enumerate()
                    .filter(|(_, l1)| l1.probe(block))
                    .fold(0u64, |mask, (core, _)| mask | 1 << core),
                None => 0,
            };
            self.sharers[slot] == holders
        });
        let slots_exact = self.l1s.iter().zip(&self.l2_slot_of).all(|(l1, map)| {
            (0..l1.geometry().lines()).all(|l1_slot| match l1.block_at(l1_slot) {
                Some(block) => self.l2.block_at(map[l1_slot] as usize) == Some(block),
                None => true,
            })
        });
        masks_exact && slots_exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_cmp_model::{config::config_for, default_config, AreaModel, ProcessNode};
    use proptest::prelude::*;

    fn small_config(cores: usize) -> CmpConfig {
        let mut cfg = config_for(cores, ProcessNode::Nm32, &AreaModel::default()).unwrap();
        // Shrink caches so capacity effects show up quickly in tests.
        cfg.l1.capacity_bytes = 4 * 1024;
        cfg.l2.capacity_bytes = 64 * 1024;
        cfg.l2.associativity = 8;
        cfg.validate().unwrap();
        cfg
    }

    #[test]
    fn cold_miss_then_l2_hit_from_other_core() {
        let cfg = default_config(4).unwrap();
        let mut h = CmpCacheHierarchy::new(&cfg);
        let first = h.access(0, 0x1000, false);
        assert_eq!(first.level, Level::Memory);
        assert_eq!(first.offchip_bytes, h.line_bytes());
        let second = h.access(1, 0x1000, false);
        assert_eq!(second.level, Level::L2);
        assert_eq!(second.offchip_bytes, 0);
        let third = h.access(1, 0x1000, false);
        assert_eq!(third.level, Level::L1);
    }

    #[test]
    fn latencies_come_from_the_configuration() {
        let cfg = default_config(2).unwrap();
        let mut h = CmpCacheHierarchy::new(&cfg);
        let miss = h.access(0, 0, false);
        assert_eq!(miss.latency, cfg.memory_latency_cycles);
        let l1_hit = h.access(0, 0, false);
        assert_eq!(l1_hit.latency, cfg.l1.latency_cycles);
        let l2_hit = h.access(1, 0, false);
        assert_eq!(l2_hit.latency, cfg.l2.latency_cycles);
    }

    #[test]
    fn same_line_accesses_do_not_go_offchip_twice() {
        let cfg = default_config(1).unwrap();
        let mut h = CmpCacheHierarchy::new(&cfg);
        h.access(0, 0, false);
        for offset in 1..64 {
            let o = h.access(0, offset, false);
            assert_eq!(o.level, Level::L1, "offset {offset} is in the same line");
        }
        assert_eq!(h.stats().memory_fills, 1);
    }

    #[test]
    fn write_by_one_core_invalidates_the_other_l1_copy() {
        let cfg = default_config(2).unwrap();
        let mut h = CmpCacheHierarchy::new(&cfg);
        h.access(0, 0x40, false);
        h.access(1, 0x40, false);
        assert!(h.l1(0).probe(1));
        assert!(h.l1(1).probe(1));
        // Core 0 writes the block: core 1's copy must be invalidated.
        h.access(0, 0x40, true);
        assert!(h.l1(0).probe(1));
        assert!(!h.l1(1).probe(1));
        assert_eq!(h.stats().coherence_invalidations, 1);
        // Core 1 re-reads: L2 hit, not off-chip.
        let o = h.access(1, 0x40, false);
        assert_eq!(o.level, Level::L2);
    }

    #[test]
    fn dirty_data_survives_via_l2_after_invalidation() {
        let cfg = small_config(2);
        let mut h = CmpCacheHierarchy::new(&cfg);
        // Core 0 writes a block, core 1 then writes the same block: core 0's dirty
        // copy is invalidated and folded into the L2, which must now be dirty.  We
        // observe this indirectly: evicting that block from the L2 produces
        // off-chip write-back traffic.
        h.access(0, 0, true);
        h.access(1, 0, true);
        let before = h.stats().offchip_bytes;
        // Stream enough distinct blocks through the L2 to evict block 0.
        let lines = (cfg.l2.capacity_bytes / cfg.l2.line_bytes) as u64;
        for i in 1..=2 * lines {
            h.access(0, i * 64, false);
        }
        let after = h.stats().offchip_bytes;
        // Traffic must include at least one write-back beyond the pure fills.
        let fills = h.stats().memory_fills * h.line_bytes();
        assert!(after > before);
        assert!(after > fills, "write-backs must add to off-chip traffic");
    }

    #[test]
    fn inclusion_holds_under_random_traffic() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let cfg = small_config(4);
        let mut h = CmpCacheHierarchy::new(&cfg);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20_000 {
            let core = rng.gen_range(0..4);
            let addr = rng.gen_range(0..512u64) * 64;
            let write = rng.gen_bool(0.3);
            h.access(core, addr, write);
        }
        assert!(h.check_inclusion(), "inclusion invariant violated");
        assert!(h.check_directory(), "sharer directory out of sync");
    }

    /// 32 cores in front of tiny caches, so L1 and L2 evictions, sharing and
    /// write-invalidation all happen within a few hundred references.
    fn tiny_32core_config() -> CmpConfig {
        let mut cfg = default_config(32).unwrap();
        cfg.l1.capacity_bytes = 512;
        cfg.l1.associativity = 2;
        cfg.l2.capacity_bytes = 8 * 1024;
        cfg.l2.associativity = 4;
        cfg.validate().unwrap();
        cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // Random read/write traffic with an occasional flush keeps inclusion,
        // the sharer directory and the level accounting exact.
        #[test]
        fn directory_stays_exact_under_random_traffic(
            ops in prop::collection::vec((0usize..32, 0u64..512, 0u8..4, 0u8..64), 1..600),
        ) {
            let cfg = tiny_32core_config();
            let mut h = CmpCacheHierarchy::new(&cfg);
            let (mut l1_hits, mut l2_hits, mut mem) = (0u64, 0u64, 0u64);
            for (i, &(core, block, write, flush)) in ops.iter().enumerate() {
                if flush == 0 {
                    h.flush();
                }
                match h.access(core, block * 64, write == 0).level {
                    Level::L1 => l1_hits += 1,
                    Level::L2 => l2_hits += 1,
                    Level::Memory => mem += 1,
                }
                if i % 50 == 49 || i + 1 == ops.len() {
                    prop_assert!(h.check_inclusion());
                    prop_assert!(h.check_directory());
                    let s = h.stats();
                    prop_assert_eq!(s.l1_total().accesses(), i as u64 + 1);
                    prop_assert_eq!(s.l1_total().hits(), l1_hits);
                    prop_assert_eq!(s.l2.accesses(), l2_hits + mem);
                    prop_assert_eq!(s.l2.misses(), mem);
                    prop_assert_eq!(s.memory_fills, mem);
                    prop_assert!(s.offchip_bytes >= mem * h.line_bytes());
                }
            }
        }
    }

    #[test]
    fn a_block_dirty_in_an_l1_is_written_back_once_on_l2_eviction() {
        // Direct-mapped L2 with 1 KiB: blocks 16 apart collide in one L2 set
        // (and in one set of each 2-way L1).
        let mut cfg = default_config(2).unwrap();
        cfg.l1.capacity_bytes = 512;
        cfg.l1.associativity = 2;
        cfg.l2.capacity_bytes = 1024;
        cfg.l2.associativity = 1;
        cfg.validate().unwrap();
        let line = cfg.l2.line_bytes as u64;

        // Dirty only in core 0's L1: the L2 copy is clean.
        let mut h = CmpCacheHierarchy::new(&cfg);
        h.access(0, 0, true);
        let evicting = h.access(1, 16 * line, false);
        assert_eq!(evicting.level, Level::Memory);
        assert_eq!(evicting.offchip_bytes, 2 * line, "fill + one write-back");
        assert!(!h.l1(0).probe(0), "back-invalidated");
        assert!(h.check_directory());
        assert_eq!(h.stats().offchip_bytes, 3 * line);

        // Dirty in the L2 (core 0's copy folded in by core 1's write) and in
        // core 1's L1: still one write-back.
        let mut h = CmpCacheHierarchy::new(&cfg);
        h.access(0, 0, true);
        h.access(1, 0, true);
        assert_eq!(h.stats().coherence_invalidations, 1);
        let evicting = h.access(0, 16 * line, false);
        assert_eq!(evicting.offchip_bytes, 2 * line, "fill + one write-back");
        assert!(!h.l1(1).probe(0), "back-invalidated");
        assert!(h.check_inclusion() && h.check_directory());
        assert_eq!(h.stats().offchip_bytes, 3 * line);
    }

    #[test]
    fn disjoint_working_sets_thrash_a_small_shared_l2() {
        // Two cores streaming over disjoint regions that together exceed the L2
        // generate more off-chip traffic than two cores sharing one region of the
        // same total size.  This is the constructive-sharing effect in miniature.
        let cfg = small_config(2);

        let mut disjoint = CmpCacheHierarchy::new(&cfg);
        let blocks = (cfg.l2.capacity_bytes / cfg.l2.line_bytes) as u64;
        for round in 0..4 {
            let _ = round;
            for i in 0..blocks {
                disjoint.access(0, i * 64, false);
                disjoint.access(1, (blocks + i) * 64, false);
            }
        }

        let mut shared = CmpCacheHierarchy::new(&cfg);
        for round in 0..4 {
            let _ = round;
            for i in 0..blocks {
                shared.access(0, i * 64, false);
                shared.access(1, i * 64, false);
            }
        }

        let disjoint_misses = disjoint.stats().l2_misses();
        let shared_misses = shared.stats().l2_misses();
        assert!(
            disjoint_misses > 2 * shared_misses,
            "disjoint {disjoint_misses} vs shared {shared_misses}"
        );
    }

    #[test]
    fn flush_models_a_cold_cache() {
        let cfg = default_config(2).unwrap();
        let mut h = CmpCacheHierarchy::new(&cfg);
        h.access(0, 0, false);
        h.access(0, 0, false);
        h.flush();
        let o = h.access(0, 0, false);
        assert_eq!(o.level, Level::Memory);
        assert!(h.check_inclusion());
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let cfg = default_config(2).unwrap();
        let mut h = CmpCacheHierarchy::new(&cfg);
        h.access(0, 0, false);
        h.reset_stats();
        assert_eq!(h.stats().memory_fills, 0);
        let o = h.access(0, 0, false);
        assert_eq!(o.level, Level::L1, "contents must survive a stats reset");
    }

    #[test]
    fn stats_level_accounting_is_consistent() {
        let cfg = small_config(2);
        let mut h = CmpCacheHierarchy::new(&cfg);
        let mut l1_hits = 0u64;
        let mut l2_hits = 0u64;
        let mut mem = 0u64;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut accesses = 0u64;
        for _ in 0..5_000 {
            let core = rng.gen_range(0..2);
            let addr = rng.gen_range(0..256u64) * 64;
            match h.access(core, addr, rng.gen_bool(0.2)).level {
                Level::L1 => l1_hits += 1,
                Level::L2 => l2_hits += 1,
                Level::Memory => mem += 1,
            }
            accesses += 1;
        }
        let s = h.stats();
        assert_eq!(s.l1_total().accesses(), accesses);
        assert_eq!(s.l1_total().hits(), l1_hits);
        assert_eq!(s.l2.accesses(), l2_hits + mem);
        assert_eq!(s.l2.misses(), mem);
        assert_eq!(s.memory_fills, mem);
        assert!(s.offchip_bytes >= mem * h.line_bytes());
    }

    #[test]
    fn core_out_of_range_panics() {
        let cfg = default_config(2).unwrap();
        let mut h = CmpCacheHierarchy::new(&cfg);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.access(5, 0, false);
        }));
        assert!(result.is_err());
    }
}
