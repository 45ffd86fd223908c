//! The shared split-transaction bus: finite width, requests granted in issue
//! order, and queuing-delay accounting.
//!
//! The bus carries every off-chip transfer (line fills and writebacks).  A
//! request occupies the bus for `ceil(bytes / width)` bus cycles — each bus
//! cycle being the bus's clock period in core cycles — and a request that
//! finds the bus occupied waits for it to free up; the accumulated wait is the
//! model's *emergent* bandwidth-contention cost (nothing is derived from miss
//! counts).  [`SharedBus::transact`] resolves each grant as it is issued, so
//! the caller issues requests in simulated-time order and the bus serves them
//! in that order.

use crate::transfer::TransferTable;

/// The outcome of one bus grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// Cycle the bus was granted.
    pub start: u64,
    /// Cycle the request finished crossing the bus (delivery to the
    /// controller).
    pub delivered_at: u64,
    /// Cycles the request waited for the grant (queuing delay).
    pub queue_cycles: u64,
}

/// The shared bus.
#[derive(Debug)]
pub struct SharedBus {
    /// Bus cycles per transfer size, from the width in bytes per *bus* cycle.
    transfer: TransferTable,
    /// Core cycles per bus cycle.
    clock_period: u64,
    /// Core cycle until which the bus is occupied by earlier grants.
    busy_until: u64,
    /// Total queuing delay across all grants.
    queue_cycles: u64,
    /// Total cycles the bus spent occupied.
    busy_cycles: u64,
}

/// Round `t` up to the next multiple of `period`.
fn align_up(t: u64, period: u64) -> u64 {
    if period <= 1 {
        return t;
    }
    t.div_ceil(period) * period
}

impl SharedBus {
    /// A bus of the given width (bytes per bus cycle) and clock period (core
    /// cycles per bus cycle).
    pub fn new(width_bytes_per_cycle: f64, clock_period: u64) -> Self {
        assert!(
            width_bytes_per_cycle > 0.0,
            "bus width must be positive (can be infinite)"
        );
        SharedBus {
            transfer: TransferTable::new(width_bytes_per_cycle),
            clock_period: clock_period.max(1),
            busy_until: 0,
            queue_cycles: 0,
            busy_cycles: 0,
        }
    }

    /// Core cycles a request of `bytes` occupies the bus.
    pub fn occupancy_cycles(&self, bytes: u64) -> u64 {
        self.transfer
            .cycles(bytes)
            .saturating_mul(self.clock_period)
    }

    /// Grant a request of `bytes` issued at `at`: it starts at the first
    /// bus-clock edge at or after both `at` and the end of every earlier
    /// grant.  Requests are served in the order they are issued.
    pub fn transact(&mut self, bytes: u64, at: u64) -> BusGrant {
        let start = align_up(at.max(self.busy_until), self.clock_period);
        let duration = self.occupancy_cycles(bytes);
        let delivered_at = start.saturating_add(duration);
        if duration > 0 {
            self.busy_until = delivered_at;
        }
        let queue_cycles = start - at;
        self.queue_cycles += queue_cycles;
        self.busy_cycles += duration;
        BusGrant {
            start,
            delivered_at,
            queue_cycles,
        }
    }

    /// Total queuing delay accumulated across all grants.
    pub fn queue_cycles(&self) -> u64 {
        self.queue_cycles
    }

    /// Total cycles the bus spent occupied by transfers.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Core cycle until which the bus is occupied.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_transact_costs_only_the_transfer() {
        let mut bus = SharedBus::new(8.0, 1);
        let g = bus.transact(64, 100);
        assert_eq!(g.start, 100);
        assert_eq!(g.delivered_at, 108);
        assert_eq!(g.queue_cycles, 0);
        assert_eq!(bus.busy_cycles(), 8);
    }

    #[test]
    fn back_to_back_transacts_queue_behind_each_other() {
        let mut bus = SharedBus::new(8.0, 1);
        bus.transact(64, 0);
        let g = bus.transact(64, 2);
        assert_eq!(g.start, 8);
        assert_eq!(g.queue_cycles, 6);
        assert_eq!(bus.queue_cycles(), 6);
    }

    #[test]
    fn slow_bus_clock_aligns_grants() {
        let mut bus = SharedBus::new(64.0, 4);
        let g = bus.transact(64, 5);
        // One bus cycle of transfer, granted at the next bus-clock edge.
        assert_eq!(g.start, 8);
        assert_eq!(g.delivered_at, 12);
    }

    #[test]
    fn infinite_width_never_occupies_the_bus() {
        let mut bus = SharedBus::new(f64::INFINITY, 1);
        let a = bus.transact(1 << 20, 10);
        let b = bus.transact(1 << 20, 10);
        assert_eq!(a.delivered_at, 10);
        assert_eq!(b.delivered_at, 10);
        assert_eq!(bus.queue_cycles(), 0);
    }

    #[test]
    fn transact_grants_requests_in_issue_order() {
        // Requester/issue cycle of five 64-byte requests on a 4-byte bus at
        // half the core clock (32 core cycles a transfer).  Each request is
        // granted when the one issued before it is delivered, whoever issued
        // it: 0@20 goes ahead of 2@21.
        let trace = [(0, 0), (1, 3), (0, 20), (2, 21), (1, 40)];
        let mut bus = SharedBus::new(4.0, 2);
        let delivered: Vec<(usize, u64)> = trace
            .iter()
            .map(|&(requester, at)| (requester, bus.transact(64, at).delivered_at))
            .collect();
        assert_eq!(delivered, [(0, 32), (1, 64), (0, 96), (2, 128), (1, 160)]);
        // Waits: 0 + 29 + 44 + 75 + 88.
        assert_eq!(bus.queue_cycles(), 236);
        assert_eq!(bus.busy_cycles(), 5 * 32);
    }

    #[test]
    fn align_up_respects_the_period() {
        assert_eq!(align_up(0, 4), 0);
        assert_eq!(align_up(1, 4), 4);
        assert_eq!(align_up(4, 4), 4);
        assert_eq!(align_up(5, 4), 8);
        assert_eq!(align_up(9, 1), 9);
        assert_eq!(align_up(9, 0), 9);
    }
}
