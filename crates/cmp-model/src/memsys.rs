//! Memory-system parameters: which off-chip model a configuration uses and
//! how its shared bus and DRAM controller are sized.
//!
//! A [`CmpConfig`](crate::CmpConfig) carries a [`MemSysParams`] alongside the
//! cache geometry.  The parameters are *overrides*: every field defaults to
//! `None`, meaning "derive from the configuration" — the bus width from the
//! node's off-chip bandwidth, the DRAM latencies from the node's unloaded
//! memory latency — so tweaking `offchip_bytes_per_cycle` on a config still
//! moves the modelled bus.  [`MemSysParams::resolve`] turns the overrides into
//! a fully concrete [`ResolvedMemSys`] the execution engine (via
//! `pdfws-memsys`) instantiates.
//!
//! The string grammar (`bus:width=...,dram:banks=...`) and the component
//! implementations live in the `pdfws-memsys` crate; this module is only the
//! plain-old-data half that a `Copy + Serialize` config can embed.

use serde::{Deserialize, Serialize};

/// Which off-chip model the execution engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MemSysMode {
    /// The component model: every L2 miss traverses a shared split-transaction
    /// bus and a banked DRAM controller; queuing delays are emergent.
    #[default]
    BusDram,
    /// The pre-component model: a single serialising off-chip channel whose
    /// per-miss cost is a closed-form function of bytes and bandwidth.
    Legacy,
}

/// Overrides for the memory-system model carried by a configuration.
///
/// `None` means "derive the value from the configuration" — see
/// [`MemSysParams::resolve`] for the derivation rules.  The struct stays
/// `Copy`/`Serialize` so it can live inside [`CmpConfig`](crate::CmpConfig).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MemSysParams {
    /// Which model runs (default: [`MemSysMode::BusDram`]).
    pub mode: MemSysMode,
    /// Bus width in bytes per bus cycle (default: the config's
    /// `offchip_bytes_per_cycle`, so the bus *is* the off-chip pin budget).
    pub bus_bytes_per_cycle: Option<f64>,
    /// Core cycles per bus cycle (default 1; >1 models a slower bus clock —
    /// grants align to multiples of this period).
    pub bus_clock_period: Option<u64>,
    /// DRAM data bandwidth in bytes per core cycle (default: twice the bus
    /// width, so the controller is not the first bottleneck).
    pub dram_bytes_per_cycle: Option<f64>,
    /// Number of independently busy DRAM banks (default
    /// [`DEFAULT_DRAM_BANKS`]).
    pub dram_banks: Option<u64>,
    /// Open-row hit latency in core cycles (default: a quarter of the derived
    /// row-miss latency).
    pub dram_hit_cycles: Option<u64>,
    /// Row-miss (activate + access) latency in core cycles (default: the
    /// config's unloaded `memory_latency_cycles` minus the two line-transfer
    /// times, so an unloaded row miss round-trips in exactly the latency the
    /// legacy model charged).
    pub dram_miss_cycles: Option<u64>,
}

/// Default number of DRAM banks when no override is given: a channel with
/// two dual-rank DIMMs (4 ranks x 8 device banks), modelled as 16 banks that
/// each keep two rows open (`pdfws-memsys` pairs the ranks' row buffers).
pub const DEFAULT_DRAM_BANKS: u64 = 16;

/// Largest accepted bus clock period (core cycles per bus cycle); together
/// with the bounds below it keeps component timing far from `u64` overflow.
pub const MAX_BUS_CLOCK_PERIOD: u64 = 1 << 20;
/// Largest accepted DRAM bank count (banks are allocated up front).
pub const MAX_DRAM_BANKS: u64 = 1 << 12;
/// Largest accepted DRAM row-hit or row-miss latency, in core cycles.
pub const MAX_DRAM_CYCLES: u64 = 1 << 20;

impl MemSysParams {
    /// The component model with every value derived from the configuration.
    pub fn bus_dram() -> Self {
        MemSysParams::default()
    }

    /// The legacy serialising-channel model.
    pub fn legacy() -> Self {
        MemSysParams {
            mode: MemSysMode::Legacy,
            ..MemSysParams::default()
        }
    }

    /// Resolve the overrides against a configuration's channel parameters
    /// into concrete component sizes.
    ///
    /// * bus width ← `offchip_bytes_per_cycle`;
    /// * DRAM bandwidth ← 2 × bus width;
    /// * banks ← [`DEFAULT_DRAM_BANKS`];
    /// * row-miss latency ← `memory_latency_cycles` − line transfer on the bus
    ///   − line transfer in DRAM (clamped to ≥ 1), calibrated so an unloaded
    ///   row-missing line fill costs exactly `memory_latency_cycles`;
    /// * row-hit latency ← max(miss / 4, 1).
    pub fn resolve(
        &self,
        offchip_bytes_per_cycle: f64,
        memory_latency_cycles: u64,
        line_bytes: usize,
    ) -> ResolvedMemSys {
        let bus_bytes_per_cycle = self.bus_bytes_per_cycle.unwrap_or(offchip_bytes_per_cycle);
        let bus_clock_period = self.bus_clock_period.unwrap_or(1).max(1);
        let dram_bytes_per_cycle = self
            .dram_bytes_per_cycle
            .unwrap_or(2.0 * bus_bytes_per_cycle);
        let dram_banks = self.dram_banks.unwrap_or(DEFAULT_DRAM_BANKS).max(1);
        let bus_line = transfer_cycles(line_bytes as u64, bus_bytes_per_cycle);
        let dram_line = transfer_cycles(line_bytes as u64, dram_bytes_per_cycle);
        let dram_miss_cycles = self.dram_miss_cycles.unwrap_or_else(|| {
            memory_latency_cycles
                .saturating_sub(bus_line + dram_line)
                .max(1)
        });
        let dram_hit_cycles = self
            .dram_hit_cycles
            .unwrap_or_else(|| (dram_miss_cycles / 4).max(1));
        ResolvedMemSys {
            mode: self.mode,
            bus_bytes_per_cycle,
            bus_clock_period,
            dram_bytes_per_cycle,
            dram_banks,
            dram_hit_cycles,
            dram_miss_cycles,
            line_bytes: line_bytes as u64,
        }
    }

    /// Validate the overrides that are present.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(w) = self.bus_bytes_per_cycle {
            if w.is_nan() || w <= 0.0 {
                return Err("memsys bus width must be positive".to_string());
            }
        }
        if let Some(bw) = self.dram_bytes_per_cycle {
            if bw.is_nan() || bw <= 0.0 {
                return Err("memsys DRAM bandwidth must be positive".to_string());
            }
        }
        for (value, min, max, what) in [
            (self.bus_clock_period, 1, MAX_BUS_CLOCK_PERIOD, "bus clock"),
            (self.dram_banks, 1, MAX_DRAM_BANKS, "DRAM bank count"),
            (self.dram_hit_cycles, 0, MAX_DRAM_CYCLES, "DRAM row hit"),
            (self.dram_miss_cycles, 1, MAX_DRAM_CYCLES, "DRAM row miss"),
        ] {
            if value.is_some_and(|v| !(min..=max).contains(&v)) {
                return Err(format!("memsys {what} must be in {min}..={max}"));
            }
        }
        Ok(())
    }
}

/// Cycles to move `bytes` at `bytes_per_cycle` (0 for an unbounded resource).
pub fn transfer_cycles(bytes: u64, bytes_per_cycle: f64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let cycles = (bytes as f64 / bytes_per_cycle).ceil();
    if cycles.is_finite() {
        cycles as u64
    } else {
        0
    }
}

/// Fully concrete memory-system sizing, produced by [`MemSysParams::resolve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedMemSys {
    /// Which model runs.
    pub mode: MemSysMode,
    /// Bus width in bytes per bus cycle.
    pub bus_bytes_per_cycle: f64,
    /// Core cycles per bus cycle.
    pub bus_clock_period: u64,
    /// DRAM data bandwidth in bytes per core cycle.
    pub dram_bytes_per_cycle: f64,
    /// Number of DRAM banks.
    pub dram_banks: u64,
    /// Open-row hit latency in core cycles.
    pub dram_hit_cycles: u64,
    /// Row-miss latency in core cycles.
    pub dram_miss_cycles: u64,
    /// Cache line size in bytes (the fill granularity).
    pub line_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LINE_BYTES;

    #[test]
    fn defaults_derive_from_the_channel() {
        let r = MemSysParams::bus_dram().resolve(8.0 / 3.0, 240, LINE_BYTES);
        assert_eq!(r.mode, MemSysMode::BusDram);
        assert!((r.bus_bytes_per_cycle - 8.0 / 3.0).abs() < 1e-12);
        assert!((r.dram_bytes_per_cycle - 16.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.dram_banks, DEFAULT_DRAM_BANKS);
        // line transfers: ceil(64 / 2.67) = 24 on the bus, 12 in DRAM.
        let bus_line = transfer_cycles(64, 8.0 / 3.0);
        let dram_line = transfer_cycles(64, 16.0 / 3.0);
        assert_eq!(r.dram_miss_cycles, 240 - bus_line - dram_line);
        assert_eq!(r.dram_hit_cycles, r.dram_miss_cycles / 4);
        // Calibration: unloaded row-missing line fill costs the legacy latency.
        assert_eq!(bus_line + r.dram_miss_cycles + dram_line, 240);
    }

    #[test]
    fn overrides_win_over_derivation() {
        let params = MemSysParams {
            bus_bytes_per_cycle: Some(4.0),
            dram_banks: Some(2),
            dram_miss_cycles: Some(100),
            ..MemSysParams::bus_dram()
        };
        let r = params.resolve(8.0, 240, LINE_BYTES);
        assert_eq!(r.bus_bytes_per_cycle, 4.0);
        assert_eq!(r.dram_bytes_per_cycle, 8.0); // 2x the *overridden* width
        assert_eq!(r.dram_banks, 2);
        assert_eq!(r.dram_miss_cycles, 100);
        assert_eq!(r.dram_hit_cycles, 25);
    }

    #[test]
    fn infinite_width_means_zero_cycle_transfers() {
        assert_eq!(transfer_cycles(64, f64::INFINITY), 0);
        assert_eq!(transfer_cycles(0, 2.0), 0);
        assert_eq!(transfer_cycles(64, 0.5), 128);
    }

    #[test]
    fn tiny_latencies_stay_positive() {
        let r = MemSysParams::bus_dram().resolve(0.1, 10, LINE_BYTES);
        assert!(r.dram_miss_cycles >= 1);
        assert!(r.dram_hit_cycles >= 1);
    }

    #[test]
    fn validation_rejects_non_positive_overrides() {
        for bad in [
            MemSysParams {
                bus_bytes_per_cycle: Some(0.0),
                ..MemSysParams::bus_dram()
            },
            MemSysParams {
                dram_bytes_per_cycle: Some(-1.0),
                ..MemSysParams::bus_dram()
            },
            MemSysParams {
                bus_clock_period: Some(0),
                ..MemSysParams::bus_dram()
            },
            MemSysParams {
                dram_banks: Some(0),
                ..MemSysParams::bus_dram()
            },
            MemSysParams {
                dram_miss_cycles: Some(0),
                ..MemSysParams::bus_dram()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        MemSysParams::bus_dram().validate().unwrap();
        MemSysParams::legacy().validate().unwrap();
    }

    #[test]
    fn validation_rejects_unphysical_overrides() {
        for bad in [
            MemSysParams {
                bus_clock_period: Some(u64::MAX),
                ..MemSysParams::bus_dram()
            },
            MemSysParams {
                dram_banks: Some(MAX_DRAM_BANKS + 1),
                ..MemSysParams::bus_dram()
            },
            MemSysParams {
                dram_hit_cycles: Some(u64::MAX),
                ..MemSysParams::bus_dram()
            },
            MemSysParams {
                dram_miss_cycles: Some(MAX_DRAM_CYCLES + 1),
                ..MemSysParams::bus_dram()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        let at_the_bounds = MemSysParams {
            bus_clock_period: Some(MAX_BUS_CLOCK_PERIOD),
            dram_banks: Some(MAX_DRAM_BANKS),
            dram_hit_cycles: Some(MAX_DRAM_CYCLES),
            dram_miss_cycles: Some(MAX_DRAM_CYCLES),
            ..MemSysParams::bus_dram()
        };
        at_the_bounds.validate().unwrap();
    }
}
