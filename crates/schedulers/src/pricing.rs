//! The reference pricer: the cache half of the engine's memory layer.
//!
//! [`RefPricer`] owns the [`CmpCacheHierarchy`] and prices every reference
//! the event core's tasks issue by sending it through the hierarchy.
//! Off-chip traffic goes through the [`OffChip`] model, the other half of
//! the layer.

use pdfws_cache_sim::hierarchy::CmpCacheHierarchy;
use pdfws_cache_sim::{CacheStats, HierarchyStats};
use pdfws_cmp_model::CmpConfig;
use pdfws_memsys::{Carry, OffChip};
use pdfws_task_dag::MemAccess;

/// The cache half of the memory layer (see the module docs).
pub(crate) struct RefPricer {
    hierarchy: CmpCacheHierarchy,
    /// `log2(line_bytes)`, so the hot path shifts instead of dividing.
    block_shift: u32,
    /// The flat memory latency the hierarchy charges an L2 miss.
    memory_latency: u64,
}

impl RefPricer {
    /// The memory layer one run prices through: the pricer over `config`'s
    /// hierarchy and the off-chip model `config.memsys` selects.
    pub(crate) fn memory_layer(config: &CmpConfig) -> (RefPricer, OffChip) {
        let pricer = RefPricer {
            hierarchy: CmpCacheHierarchy::new(config),
            block_shift: (config.l2.line_bytes as u64).trailing_zeros(),
            memory_latency: config.memory_latency_cycles,
        };
        (
            pricer,
            OffChip::new(&config.resolved_memsys(), config.offchip_bytes_per_cycle),
        )
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
        let block = acc.addr >> self.block_shift;
        let outcome = self.hierarchy.access_block(core, block, acc.write);
        let mut latency = outcome.latency;
        if outcome.offchip_bytes > 0 {
            match offchip.carry(block, outcome.offchip_bytes, at) {
                Carry::Queued(queue) => latency += queue,
                Carry::Transaction(tx) if outcome.is_offchip() => {
                    latency = latency.saturating_sub(self.memory_latency) + tx.total_cycles;
                }
                Carry::Transaction(_) => {}
            }
        }
        latency
    }

    /// One co-runner reference to `block` at `at`, through core 0's L1.  It
    /// is filtered like the program's references, and its off-chip traffic
    /// is background load.
    pub(crate) fn corunner_access(&mut self, block: u64, at: u64, offchip: &mut OffChip) {
        let bytes = self.hierarchy.access_block(0, block, false).offchip_bytes;
        if bytes > 0 {
            offchip.background(block, bytes, at);
        }
    }

    /// Running (L1, L2) miss totals, for the trace windows and the policy
    /// feedback.
    pub(crate) fn miss_totals(&self) -> (u64, u64) {
        let stats = self.hierarchy.stats();
        let l1 = stats.l1.iter().map(CacheStats::misses).sum();
        (l1, stats.l2.misses())
    }

    /// Final hierarchy statistics.
    pub(crate) fn stats(&self) -> HierarchyStats {
        self.hierarchy.stats()
    }
}
