//! CMP configuration model for the PDF-vs-WS scheduler study.
//!
//! The SPAA'06 brief announcement evaluates both schedulers "across a range of
//! simulated CMP configurations", all derived from a single rule:
//!
//! * the die size is fixed at **240 mm²**,
//! * the chip has **1 to 32 cores**, each with a fixed-size private L1,
//! * the remaining die area is spent on a **shared L2**, and
//! * for each core count a *default configuration* is chosen "based on current
//!   CMPs and realistic projections of future CMPs, as process technologies
//!   decrease from 90 nm to 32 nm".
//!
//! This crate reproduces that rule as an analytic model: a [`tech::ProcessNode`]
//! fixes transistor density, SRAM density, frequency and off-chip bandwidth; an
//! [`area::AreaModel`] splits the 240 mm² budget between cores, L1s, interconnect
//! and the shared L2; and [`config::default_config`] combines the two into a
//! [`config::CmpConfig`] that the cache simulator and the execution engine consume.
//!
//! Absolute numbers are calibrated against publicly known 2004-2006 CMPs (e.g.
//! 1 MB of L2 occupying roughly 18 mm² at 90 nm, dual-core dies around 200-300 mm²)
//! but the *trends* are what the study depends on:
//!
//! * at a fixed process node, more cores ⇒ less shared L2;
//! * newer nodes ⇒ smaller cores and denser SRAM ⇒ larger L2 and more cores fit;
//! * off-chip bandwidth grows far more slowly than aggregate compute, which is the
//!   reason constructive cache sharing matters at all.
//!
//! # Example
//!
//! ```
//! use pdfws_cmp_model::config::{default_config, default_core_counts};
//!
//! for cores in default_core_counts() {
//!     let cfg = default_config(cores).unwrap();
//!     println!(
//!         "{:2} cores @ {:?}: L2 = {} KiB, off-chip = {:.1} bytes/cycle",
//!         cfg.cores,
//!         cfg.node,
//!         cfg.l2.capacity_bytes / 1024,
//!         cfg.offchip_bytes_per_cycle
//!     );
//! }
//! ```

pub mod area;
pub mod config;
pub mod error;
pub mod latency;
pub mod memsys;
pub mod sweep;
pub mod tech;

pub use area::AreaModel;
pub use config::{
    default_config, default_core_counts, default_sweep, CacheGeometry, CmpConfig, MAX_CORES,
};
pub use error::ModelError;
pub use memsys::{MemSysMode, MemSysParams, ResolvedMemSys};
pub use tech::ProcessNode;

/// Fixed die area used throughout the paper's evaluation, in mm².
pub const DIE_AREA_MM2: f64 = 240.0;

/// Cache line size (bytes) used by every configuration in the study.
pub const LINE_BYTES: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn die_area_matches_paper() {
        assert_eq!(DIE_AREA_MM2, 240.0);
    }

    #[test]
    fn line_size_is_power_of_two() {
        assert!(LINE_BYTES.is_power_of_two());
    }
}
