//! `pdfws-memsys` — the discrete-event memory-system substrate.
//!
//! The execution engine used to price off-chip traffic with a closed-form
//! per-miss formula (a single serializing channel with one busy window).
//! This crate replaces that formula with *components*: a shared
//! split-transaction [bus](bus::SharedBus) that grants requests in issue
//! order and a banked [DRAM controller](dram::DramController) with open-row
//! state and finite data bandwidth, assembled into a [`MemSystem`] the engine
//! drives one L2 miss at a time, in simulated-time order.  Bandwidth
//! contention — the mechanism behind the paper's claim that constructive
//! cache sharing reduces off-chip pressure — is then an *observed* queuing
//! delay, not a computed one.
//!
//! The crate has three layers:
//!
//! * the **components** — [`SharedBus`] and [`DramController`], each
//!   resolving a request as it is issued, so every transfer is priced by the
//!   traffic issued before it in simulated time;
//! * the **off-chip model** — [`OffChip`], what the execution engine drives:
//!   the component [`MemSystem`] or the closed-form [`LegacyChannel`];
//! * the **grammar** — [`MemSysSpec`] / [`Registry`], making the model
//!   selectable as `--memsys bus:width=4,dram:banks=16` (or `--memsys
//!   legacy`) through the same `pdfws-spec` machinery as schedulers and
//!   workloads.
//!
//! Next to them sits the engine's [`EventQueue`]: a deterministic sorted
//! ring of `(time, id)` events packed one `u64` each, `time << 8 | id` (ids
//! below 256, times below 2^56 cycles; O(1) pop, a re-key of the top from
//! the nearer end, meant for one or two entries per core).
//!
//! Parameter *resolution* (deriving unset bus/DRAM parameters from a
//! `CmpConfig`'s off-chip channel so the unloaded model reproduces the legacy
//! memory latency) lives in `pdfws-cmp-model`'s `memsys` module; this crate
//! consumes the resolved form.

pub mod bus;
pub mod dram;
pub mod model;
pub mod offchip;
pub mod queue;
pub mod registry;
pub mod spec;
mod transfer;

pub use bus::{BusGrant, SharedBus};
pub use dram::{DramController, DramService, ROW_BYTES};
pub use model::{MemSystem, Transaction};
pub use offchip::{Carry, LegacyChannel, OffChip};
pub use queue::EventQueue;
pub use registry::{MemSysDomain, ModelFactory, Registry};
pub use spec::{MemSysSpec, SpecError};

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_cmp_model::MemSysParams;
    use proptest::prelude::*;

    proptest! {
        // An infinite-width bus in front of an infinite-bandwidth controller
        // with hit == miss == L charges exactly L per transaction with zero
        // queuing, whatever the traffic pattern — the limiting case the
        // legacy formula's latency term corresponds to.
        #[test]
        fn infinite_capacity_degenerates_to_a_flat_latency(
            latency in 1u64..500,
            accesses in proptest::collection::vec((0u64..1 << 20, 1u64..4096, 0u64..10_000), 1..40),
        ) {
            let resolved = MemSysParams {
                bus_bytes_per_cycle: Some(f64::INFINITY),
                dram_bytes_per_cycle: Some(f64::INFINITY),
                dram_hit_cycles: Some(latency),
                dram_miss_cycles: Some(latency),
                ..MemSysParams::bus_dram()
            }
            .resolve(2.67, 240, 64);
            let mut mem = MemSystem::new(&resolved);
            for (i, &(block, bytes, at)) in accesses.iter().enumerate() {
                let tx = mem.transact(i % 8, block, bytes, at);
                prop_assert_eq!(tx.total_cycles, latency);
                prop_assert_eq!(tx.bus_queue_cycles, 0);
            }
            prop_assert_eq!(mem.bus_queue_cycles(), 0);
        }

        // Whatever the parameters, a transaction never completes before its
        // issue cycle plus the row access, and queue accounting only grows.
        #[test]
        fn transactions_are_causal_and_accounting_is_monotonic(
            width in 1u64..64,
            banks in 1u64..16,
            accesses in proptest::collection::vec((0u64..1 << 14, 0u64..5_000), 1..60),
        ) {
            let resolved = MemSysParams {
                bus_bytes_per_cycle: Some(width as f64),
                dram_banks: Some(banks),
                ..MemSysParams::bus_dram()
            }
            .resolve(2.67, 240, 64);
            let mut mem = MemSystem::new(&resolved);
            let mut last_queued = 0;
            for (i, &(block, at)) in accesses.iter().enumerate() {
                let tx = mem.transact(i % 4, block, 64, at);
                let floor = if tx.row_hit {
                    resolved.dram_hit_cycles
                } else {
                    resolved.dram_miss_cycles
                };
                prop_assert!(tx.total_cycles >= floor);
                let queued = mem.bus_queue_cycles() + mem.dram_queue_cycles();
                prop_assert!(queued >= last_queued);
                last_queued = queued;
            }
        }
    }
}
