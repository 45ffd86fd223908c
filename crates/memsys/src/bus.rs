//! The shared split-transaction bus: finite width, FIFO request queues,
//! per-requester round-robin arbitration, and queuing-delay accounting.
//!
//! The bus carries every off-chip transfer (line fills and writebacks).  A
//! request occupies the bus for `ceil(bytes / width)` bus cycles — each bus
//! cycle being [`SharedBus::clock_period`] core cycles — and requests that
//! find the bus occupied queue up; the accumulated wait is the model's
//! *emergent* bandwidth-contention cost (nothing is derived from miss
//! counts).
//!
//! Two driving modes share the same state:
//!
//! * **queued** ([`SharedBus::push`] + the [`Component`] impl) — requests sit
//!   in per-requester FIFOs and a round-robin arbiter grants them as the bus
//!   frees up; used by component-level simulations and tests;
//! * **synchronous** ([`SharedBus::transact`]) — the caller has exactly one
//!   outstanding request per requester and wants the grant resolved
//!   immediately; used by the execution engine, whose cores block on their
//!   single outstanding miss.  With at most one outstanding request per
//!   requester the FIFO/round-robin arbiter and the busy-window resolution
//!   order grants identically.

use crate::component::{align_up, Component};
use crate::transfer::TransferTable;
use std::collections::{BTreeMap, VecDeque};

/// One request traversing the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusRequest {
    /// Who issued it (core index, or a reserved id for co-runners).
    pub requester: usize,
    /// The block being filled (forwarded to the DRAM controller).
    pub block: u64,
    /// Bytes to move (line fill plus any piggybacked writeback).
    pub bytes: u64,
    /// Core cycle the request was issued at.
    pub issued_at: u64,
}

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
    /// Number of grants.
    granted: u64,
    /// Last requester granted (round-robin arbitration state).
    rr_last: usize,
    /// Queued mode: per-requester FIFO queues.
    pending: BTreeMap<usize, VecDeque<BusRequest>>,
    /// Queued mode: the request currently crossing the bus.
    inflight: Option<(BusRequest, u64)>,
    /// Queued mode: requests delivered to the far side, with delivery times.
    delivered: Vec<(BusRequest, u64)>,
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
            granted: 0,
            rr_last: usize::MAX,
            pending: BTreeMap::new(),
            inflight: None,
            delivered: Vec::new(),
        }
    }

    /// Core cycles a request of `bytes` occupies the bus.
    pub fn occupancy_cycles(&self, bytes: u64) -> u64 {
        self.transfer
            .cycles(bytes)
            .saturating_mul(self.clock_period)
    }

    /// Synchronously resolve a grant for a requester with no other
    /// outstanding request (the execution-engine path).
    pub fn transact(&mut self, requester: usize, bytes: u64, at: u64) -> BusGrant {
        let start = align_up(at.max(self.busy_until), self.clock_period);
        let duration = self.occupancy_cycles(bytes);
        let delivered_at = start.saturating_add(duration);
        if duration > 0 {
            self.busy_until = delivered_at;
        }
        let queue_cycles = start - at;
        self.queue_cycles += queue_cycles;
        self.busy_cycles += duration;
        self.granted += 1;
        self.rr_last = requester;
        BusGrant {
            start,
            delivered_at,
            queue_cycles,
        }
    }

    /// Queued mode: enqueue a request into its requester's FIFO.
    pub fn push(&mut self, request: BusRequest) {
        self.pending
            .entry(request.requester)
            .or_default()
            .push_back(request);
    }

    /// Queued mode: take the requests that have finished crossing the bus,
    /// with their delivery times, in delivery order.
    pub fn take_delivered(&mut self) -> Vec<(BusRequest, u64)> {
        std::mem::take(&mut self.delivered)
    }

    /// Round-robin pick among requesters whose queue head was issued at or
    /// before `now`: the first eligible requester id strictly after
    /// `rr_last`, wrapping.
    fn arbitrate(&self, now: u64) -> Option<usize> {
        let eligible: Vec<usize> = self
            .pending
            .iter()
            .filter(|(_, q)| q.front().is_some_and(|r| r.issued_at <= now))
            .map(|(&id, _)| id)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        eligible
            .iter()
            .copied()
            .find(|&id| id > self.rr_last)
            .or_else(|| eligible.first().copied())
    }

    /// Total queuing delay accumulated across all grants.
    pub fn queue_cycles(&self) -> u64 {
        self.queue_cycles
    }

    /// Total cycles the bus spent occupied by transfers.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of grants so far.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Core cycle until which the bus is occupied.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }
}

impl Component for SharedBus {
    fn name(&self) -> &'static str {
        "bus"
    }

    fn clock_period(&self) -> u64 {
        self.clock_period
    }

    fn next_tick(&self) -> Option<u64> {
        if let Some((_, done)) = self.inflight {
            return Some(done);
        }
        let earliest = self
            .pending
            .values()
            .filter_map(|q| q.front())
            .map(|r| r.issued_at)
            .min()?;
        Some(align_up(earliest.max(self.busy_until), self.clock_period))
    }

    fn tick(&mut self, now: u64) {
        if let Some((request, done)) = self.inflight {
            if done <= now {
                self.delivered.push((request, done));
                self.inflight = None;
            } else {
                return;
            }
        }
        let Some(winner) = self.arbitrate(now) else {
            return;
        };
        let request = self
            .pending
            .get_mut(&winner)
            .and_then(VecDeque::pop_front)
            .expect("arbitrated requester has a queued request");
        if self.pending.get(&winner).is_some_and(VecDeque::is_empty) {
            self.pending.remove(&winner);
        }
        let start = align_up(now.max(self.busy_until), self.clock_period);
        debug_assert_eq!(start, now, "grants start on the tick that won them");
        let duration = self.occupancy_cycles(request.bytes);
        if duration > 0 {
            self.busy_until = start + duration;
        }
        self.queue_cycles += start - request.issued_at;
        self.busy_cycles += duration;
        self.granted += 1;
        self.rr_last = winner;
        if duration == 0 {
            self.delivered.push((request, start));
        } else {
            self.inflight = Some((request, start + duration));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::run_until;

    fn req(requester: usize, issued_at: u64) -> BusRequest {
        BusRequest {
            requester,
            block: requester as u64,
            bytes: 64,
            issued_at,
        }
    }

    #[test]
    fn uncontended_transact_costs_only_the_transfer() {
        let mut bus = SharedBus::new(8.0, 1);
        let g = bus.transact(0, 64, 100);
        assert_eq!(g.start, 100);
        assert_eq!(g.delivered_at, 108);
        assert_eq!(g.queue_cycles, 0);
        assert_eq!(bus.busy_cycles(), 8);
    }

    #[test]
    fn back_to_back_transacts_queue_behind_each_other() {
        let mut bus = SharedBus::new(8.0, 1);
        bus.transact(0, 64, 0);
        let g = bus.transact(1, 64, 2);
        assert_eq!(g.start, 8);
        assert_eq!(g.queue_cycles, 6);
        assert_eq!(bus.queue_cycles(), 6);
    }

    #[test]
    fn slow_bus_clock_aligns_grants() {
        let mut bus = SharedBus::new(64.0, 4);
        let g = bus.transact(0, 64, 5);
        // One bus cycle of transfer, granted at the next bus-clock edge.
        assert_eq!(g.start, 8);
        assert_eq!(g.delivered_at, 12);
    }

    #[test]
    fn infinite_width_never_occupies_the_bus() {
        let mut bus = SharedBus::new(f64::INFINITY, 1);
        let a = bus.transact(0, 1 << 20, 10);
        let b = bus.transact(1, 1 << 20, 10);
        assert_eq!(a.delivered_at, 10);
        assert_eq!(b.delivered_at, 10);
        assert_eq!(bus.queue_cycles(), 0);
    }

    #[test]
    fn queued_mode_arbitrates_round_robin() {
        // Three requesters all issue at cycle 0; grants must rotate 0, 1, 2
        // and each grant occupies 8 cycles.
        let mut bus = SharedBus::new(8.0, 1);
        for r in 0..3 {
            bus.push(req(r, 0));
        }
        run_until(&mut [&mut bus], u64::MAX, |_| {});
        let delivered = bus.take_delivered();
        let order: Vec<usize> = delivered.iter().map(|(r, _)| r.requester).collect();
        let times: Vec<u64> = delivered.iter().map(|(_, t)| *t).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(times, vec![8, 16, 24]);
        // Waits: 0, 8, 16 cycles.
        assert_eq!(bus.queue_cycles(), 24);
    }

    #[test]
    fn round_robin_does_not_starve_a_late_requester() {
        // Requester 0 keeps a deep queue; requester 1 arrives once the bus is
        // busy and must be granted second, not last.
        let mut bus = SharedBus::new(8.0, 1);
        for _ in 0..3 {
            bus.push(req(0, 0));
        }
        bus.push(req(1, 1));
        run_until(&mut [&mut bus], u64::MAX, |_| {});
        let order: Vec<usize> = bus
            .take_delivered()
            .iter()
            .map(|(r, _)| r.requester)
            .collect();
        assert_eq!(order, vec![0, 1, 0, 0]);
    }

    #[test]
    fn queued_and_synchronous_modes_agree_on_single_outstanding_traffic() {
        // An in-order trace with at most one outstanding request per
        // requester: the engine-style synchronous path and the queued
        // component path must produce identical delivery times and totals.
        let trace = [req(0, 0), req(1, 3), req(0, 20), req(2, 21), req(1, 40)];
        let mut sync = SharedBus::new(4.0, 2);
        let sync_times: Vec<u64> = trace
            .iter()
            .map(|r| {
                sync.transact(r.requester, r.bytes, r.issued_at)
                    .delivered_at
            })
            .collect();
        let mut queued = SharedBus::new(4.0, 2);
        for r in &trace {
            queued.push(*r);
        }
        run_until(&mut [&mut queued], u64::MAX, |_| {});
        let queued_times: Vec<u64> = queued.take_delivered().iter().map(|(_, t)| *t).collect();
        assert_eq!(sync_times, queued_times);
        assert_eq!(sync.queue_cycles(), queued.queue_cycles());
        assert_eq!(sync.busy_cycles(), queued.busy_cycles());
    }
}
