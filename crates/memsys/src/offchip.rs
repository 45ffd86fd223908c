//! [`OffChip`] — the off-chip half of the execution engine's memory layer.
//!
//! Every byte that crosses the chip boundary goes through one of two
//! models, selected by the configuration's [`MemSysMode`]: the component
//! [`MemSystem`] (shared bus in front of a banked DRAM controller, queuing
//! emergent), or the closed-form [`LegacyChannel`] (one serialising channel
//! with a single busy window, `ceil(bytes / bandwidth)` cycles a transfer).
//! Both price a transfer by what was issued before it, so the caller issues
//! every transfer in simulated-time order.

use crate::model::{MemSystem, Transaction};
use pdfws_cmp_model::{MemSysMode, ResolvedMemSys};

/// The pre-component off-chip formula: one channel, one busy window.
#[derive(Debug, Clone)]
pub struct LegacyChannel {
    bytes_per_cycle: f64,
    busy_until: u64,
}

impl LegacyChannel {
    /// An idle channel moving `bytes_per_cycle` bytes per core cycle.
    pub fn new(bytes_per_cycle: f64) -> Self {
        LegacyChannel {
            bytes_per_cycle,
            busy_until: 0,
        }
    }

    /// Occupy the channel with `bytes` issued at `at`; returns the cycles
    /// the transfer queued behind earlier ones.  A zero-cycle transfer
    /// (unbounded channel) occupies nothing and cannot queue.
    pub fn transfer(&mut self, at: u64, bytes: u64) -> u64 {
        let cycles = (bytes as f64 / self.bytes_per_cycle).ceil() as u64;
        if cycles == 0 {
            return 0;
        }
        let queue = self.busy_until.saturating_sub(at);
        self.busy_until = at.saturating_add(queue).saturating_add(cycles);
        queue
    }
}

/// What carrying one transfer cost its requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carry {
    /// Legacy channel: queue cycles, on top of the flat memory latency.
    Queued(u64),
    /// Bus+DRAM: the observed transaction, whose end-to-end time replaces
    /// the flat memory latency of a demand miss.
    Transaction(Transaction),
}

/// The off-chip model the execution engine drives.
#[derive(Debug)]
pub enum OffChip {
    /// The closed-form channel and the queue cycles of its
    /// [`carry`](OffChip::carry) transfers (background ones are not counted).
    Legacy {
        channel: LegacyChannel,
        queue_cycles: u64,
    },
    /// The component model.
    BusDram(Box<MemSystem>),
}

impl OffChip {
    /// The model `resolved.mode` selects; `legacy_bytes_per_cycle` sizes
    /// the legacy channel.
    pub fn new(resolved: &ResolvedMemSys, legacy_bytes_per_cycle: f64) -> Self {
        match resolved.mode {
            MemSysMode::Legacy => OffChip::Legacy {
                channel: LegacyChannel::new(legacy_bytes_per_cycle),
                queue_cycles: 0,
            },
            MemSysMode::BusDram => OffChip::BusDram(Box::new(MemSystem::new(resolved))),
        }
    }

    /// Carry `bytes` of the measured program's traffic for `block`, issued
    /// at `at`.  Neither model asks who issued it: both serve transfers in
    /// issue order.
    #[inline]
    pub fn carry(&mut self, block: u64, bytes: u64, at: u64) -> Carry {
        match self {
            OffChip::Legacy {
                channel,
                queue_cycles,
            } => {
                let queue = channel.transfer(at, bytes);
                *queue_cycles += queue;
                Carry::Queued(queue)
            }
            OffChip::BusDram(mem) => Carry::Transaction(mem.transact(0, block, bytes, at)),
        }
    }

    /// Carry background traffic (the co-runner's): it occupies the model
    /// like any transfer, but nobody waits for it.
    pub fn background(&mut self, block: u64, bytes: u64, at: u64) {
        match self {
            OffChip::Legacy { channel, .. } => {
                channel.transfer(at, bytes);
            }
            OffChip::BusDram(mem) => {
                mem.transact(0, block, bytes, at);
            }
        }
    }

    /// The cycle until which the model has committed work.
    pub fn backlog_until(&self) -> u64 {
        match self {
            OffChip::Legacy { channel, .. } => channel.busy_until,
            OffChip::BusDram(mem) => mem.backlog_until(),
        }
    }

    /// Queue totals `(all, bus, dram)`; legacy has no bus/DRAM split.
    pub fn queue_cycles(&self) -> (u64, u64, u64) {
        match self {
            OffChip::Legacy { queue_cycles, .. } => (*queue_cycles, 0, 0),
            OffChip::BusDram(mem) => {
                let (bus, dram) = (mem.bus_queue_cycles(), mem.dram_queue_cycles());
                (bus + dram, bus, dram)
            }
        }
    }

    /// The component model, if this is one.
    pub fn components(&self) -> Option<&MemSystem> {
        match self {
            OffChip::Legacy { .. } => None,
            OffChip::BusDram(mem) => Some(mem),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_cmp_model::MemSysParams;

    #[test]
    fn legacy_transfers_serialise_on_one_busy_window() {
        let mut ch = LegacyChannel::new(2.0);
        assert_eq!(ch.transfer(0, 64), 0);
        assert_eq!(ch.busy_until, 32);
        // Issued mid-transfer: waits for the rest of the window.
        assert_eq!(ch.transfer(10, 64), 22);
        assert_eq!(ch.busy_until, 64);
        // Issued after the window drained: no wait.
        assert_eq!(ch.transfer(100, 1), 0);
        assert_eq!(ch.busy_until, 101);
    }

    #[test]
    fn an_unbounded_legacy_channel_never_queues() {
        let mut ch = LegacyChannel::new(f64::INFINITY);
        for at in [50, 0, 10] {
            assert_eq!(ch.transfer(at, 64), 0);
        }
        assert_eq!(ch.busy_until, 0);
    }

    #[test]
    fn only_program_traffic_counts_as_legacy_queuing() {
        let resolved = MemSysParams::legacy().resolve(1.0, 240, 64);
        let mut off = OffChip::new(&resolved, 1.0);
        off.background(0, 64, 0);
        assert_eq!(off.carry(1, 64, 0), Carry::Queued(64));
        assert_eq!(off.backlog_until(), 128);
        assert_eq!(off.queue_cycles(), (64, 0, 0));
        assert!(off.components().is_none());
    }

    #[test]
    fn bus_dram_carries_through_the_components() {
        let resolved = MemSysParams::bus_dram().resolve(2.67, 240, 64);
        let mut off = OffChip::new(&resolved, 2.67);
        let Carry::Transaction(tx) = off.carry(1 << 20, 64, 0) else {
            panic!("the component model reports transactions");
        };
        assert_eq!(tx.total_cycles, 240);
        off.background(0, 64, 0);
        let (all, bus, dram) = off.queue_cycles();
        assert_eq!(all, bus + dram);
        assert!(all > 0, "the background transfer queued behind the first");
        assert!(off.components().is_some());
    }
}
