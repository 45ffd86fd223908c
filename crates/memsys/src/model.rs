//! The [`MemSystem`] facade: one shared bus in front of one DRAM controller,
//! driven by the execution engine one transfer at a time, in simulated-time
//! order.
//!
//! Every L2 miss becomes a [`MemSystem::transact`] call: the request is
//! granted the bus (queuing behind the transfers issued before it),
//! delivered to the controller, serviced by a bank (open-row hit or miss),
//! and its data serialized over the controller's pins.  The
//! returned [`Transaction`] carries the end-to-end latency and the split of
//! queuing delay between bus and DRAM, so contention cost is *observed*, not
//! computed from a formula.

use crate::bus::SharedBus;
use crate::dram::DramController;
use pdfws_cmp_model::memsys::ResolvedMemSys;

/// One completed memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// End-to-end cycles from issue to data return.
    pub total_cycles: u64,
    /// Cycles spent waiting for the bus grant.
    pub bus_queue_cycles: u64,
    /// Cycles spent waiting inside the controller (bank + data resource).
    pub dram_queue_cycles: u64,
    /// Whether the access hit an open row.
    pub row_hit: bool,
}

/// The assembled memory system: shared bus feeding a DRAM controller.
#[derive(Debug)]
pub struct MemSystem {
    bus: SharedBus,
    dram: DramController,
}

impl MemSystem {
    /// Build the system a resolved parameter set describes.
    pub fn new(resolved: &ResolvedMemSys) -> Self {
        MemSystem {
            bus: SharedBus::new(resolved.bus_bytes_per_cycle, resolved.bus_clock_period),
            dram: DramController::new(
                resolved.dram_bytes_per_cycle,
                resolved.dram_banks,
                resolved.dram_hit_cycles,
                resolved.dram_miss_cycles,
                resolved.line_bytes,
            ),
        }
    }

    /// Push one transaction of `bytes` for `block` through bus and DRAM,
    /// issued by a requester at cycle `at`.  The bus serves requests in issue
    /// order, whoever issued them, so the requester does not change the
    /// price.
    pub fn transact(&mut self, _requester: usize, block: u64, bytes: u64, at: u64) -> Transaction {
        let grant = self.bus.transact(bytes, at);
        let service = self.dram.service(block, bytes, grant.delivered_at);
        Transaction {
            total_cycles: service.done - at,
            bus_queue_cycles: grant.queue_cycles,
            dram_queue_cycles: service.queue_cycles,
            row_hit: service.row_hit,
        }
    }

    /// The cycle until which the system has committed work (latest of the
    /// bus busy window and the DRAM data resource).  New transactions issued
    /// before this will queue.
    pub fn backlog_until(&self) -> u64 {
        self.bus.busy_until().max(self.dram.data_busy_until())
    }

    /// Total cycles transactions spent waiting for the bus.
    pub fn bus_queue_cycles(&self) -> u64 {
        self.bus.queue_cycles()
    }

    /// Total cycles transactions spent waiting inside the controller.
    pub fn dram_queue_cycles(&self) -> u64 {
        self.dram.queue_cycles()
    }

    /// Total cycles the bus spent occupied by transfers.
    pub fn bus_busy_cycles(&self) -> u64 {
        self.bus.busy_cycles()
    }

    /// Open-row hits across all transactions.
    pub fn row_hits(&self) -> u64 {
        self.dram.row_hits()
    }

    /// Row misses (activations) across all transactions.
    pub fn row_misses(&self) -> u64 {
        self.dram.row_misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_cmp_model::memsys::MemSysParams;

    fn resolved() -> ResolvedMemSys {
        // The 90 nm anchor: 2.67 B/cyc channel, 240-cycle memory latency,
        // 64-byte lines.
        MemSysParams::bus_dram().resolve(2.67, 240, 64)
    }

    #[test]
    fn an_unloaded_row_miss_costs_the_configured_memory_latency() {
        // Calibration invariant: with no contention, a cold (row-missing)
        // line fill takes exactly the legacy memory latency.
        let r = resolved();
        let mut mem = MemSystem::new(&r);
        let tx = mem.transact(0, 1 << 20, r.line_bytes, 0);
        assert!(!tx.row_hit);
        assert_eq!(tx.total_cycles, 240);
        assert_eq!(tx.bus_queue_cycles, 0);
        assert_eq!(tx.dram_queue_cycles, 0);
    }

    #[test]
    fn contending_requesters_see_emergent_queuing() {
        let r = resolved();
        let mut mem = MemSystem::new(&r);
        let a = mem.transact(0, 0, r.line_bytes, 0);
        let b = mem.transact(1, 1 << 20, r.line_bytes, 0);
        assert!(b.total_cycles > a.total_cycles);
        assert!(b.bus_queue_cycles + b.dram_queue_cycles > 0);
        assert!(mem.bus_queue_cycles() + mem.dram_queue_cycles() > 0);
    }

    #[test]
    fn backlog_reflects_committed_work() {
        let r = resolved();
        let mut mem = MemSystem::new(&r);
        assert_eq!(mem.backlog_until(), 0);
        mem.transact(0, 0, r.line_bytes, 0);
        assert!(mem.backlog_until() > 0);
    }

    #[test]
    fn repeated_rows_hit_the_open_row_and_finish_faster() {
        let r = resolved();
        let mut mem = MemSystem::new(&r);
        let cold = mem.transact(0, 0, r.line_bytes, 0);
        // Same chunk → same bank, same row: an open-row hit.
        let warm = mem.transact(0, 4, r.line_bytes, 10_000);
        assert!(!cold.row_hit);
        assert!(warm.row_hit);
        assert!(warm.total_cycles < cold.total_cycles);
        assert_eq!(mem.row_hits(), 1);
        assert_eq!(mem.row_misses(), 1);
    }
}
