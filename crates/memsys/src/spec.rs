//! `MemSysSpec` — the open, parameterized description of a memory-system
//! model, in the workspace's shared `name:key=value` grammar:
//!
//! ```text
//! bus                                  the component bus+DRAM model, defaults
//! bus:width=4,dram:banks=16            wider bus, more banks
//! bus:width=inf,bw=inf                 infinite-capacity limiting case
//! legacy                               the old serializing-channel formula
//! ```
//!
//! Parsing validates the model name and every parameter against the
//! [`registry`](crate::registry); the stored form is canonical (sorted keys,
//! normalised numbers), so `to_string()` then `parse()` is the identity.
//! Unset parameters stay unset in the produced
//! [`MemSysParams`] — the configuration
//! derives them from its off-chip channel at resolve time, which is what
//! keeps `bus` calibrated against the legacy latency by default.

use crate::registry::{MemSysDomain, Registry};
use pdfws_cmp_model::MemSysParams;
use pdfws_spec::{spec_type, Spec};
use std::collections::BTreeMap;

/// Errors from parsing or validating a [`MemSysSpec`] (the shared
/// [`pdfws_spec::SpecError`], worded with the memsys vocabulary).
pub type SpecError = pdfws_spec::SpecError;

spec_type! {
    /// A parsed, validated memory-system model description: model name +
    /// parameter overrides (only the explicitly-given ones; everything else
    /// derives from the config).
    ///
    /// Construct one with the named constructors ([`MemSysSpec::bus`],
    /// [`MemSysSpec::legacy`]), by parsing (`"bus:width=4".parse()`), or via
    /// [`MemSysSpec::with_param`]; every path validates against the global
    /// [`Registry`], so a value is always resolvable into [`MemSysParams`].
    pub struct MemSysSpec(MemSysDomain);
}

impl MemSysSpec {
    /// The component bus+DRAM model with every parameter derived from the
    /// configuration (the default).
    pub fn bus() -> Self {
        MemSysSpec(Spec::known_valid("bus", BTreeMap::new()))
    }

    /// The pre-memsys serializing-channel latency formula.
    pub fn legacy() -> Self {
        MemSysSpec(Spec::known_valid("legacy", BTreeMap::new()))
    }

    /// The [`MemSysParams`] override block this spec describes — what gets
    /// stored on a `CmpConfig` and resolved against its channel parameters.
    pub fn memsys_params(&self) -> MemSysParams {
        Registry::global().resolve(self).memsys_params(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_cmp_model::MemSysMode;

    #[test]
    fn bare_model_names_parse_and_display() {
        for name in ["bus", "legacy"] {
            let spec: MemSysSpec = name.parse().unwrap();
            assert_eq!(spec.name(), name);
            assert_eq!(spec.to_string(), name);
        }
    }

    #[test]
    fn parameters_canonicalise_and_round_trip() {
        let spec: MemSysSpec = "bus:dram:banks=016,width=2.50".parse().unwrap();
        assert_eq!(spec.to_string(), "bus:dram:banks=16,width=2.5");
        let again: MemSysSpec = spec.to_string().parse().unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn infinity_is_a_legal_capacity() {
        let spec: MemSysSpec = "bus:bw=inf,width=inf".parse().unwrap();
        assert_eq!(spec.f64_param("width"), Some(f64::INFINITY));
        assert_eq!(spec.f64_param("bw"), Some(f64::INFINITY));
        assert_eq!(spec.to_string(), "bus:bw=inf,width=inf");
    }

    #[test]
    fn default_bus_spec_leaves_everything_derived() {
        let params = MemSysSpec::bus().memsys_params();
        assert_eq!(params, MemSysParams::bus_dram());
    }

    #[test]
    fn legacy_spec_selects_the_legacy_mode() {
        let params: MemSysSpec = "legacy".parse().unwrap();
        assert_eq!(params.memsys_params().mode, MemSysMode::Legacy);
    }

    #[test]
    fn overrides_land_in_the_params_block() {
        let spec: MemSysSpec = "bus:width=4,clock=2,bw=8,dram:banks=16,dram:hit=30,dram:miss=90"
            .parse()
            .unwrap();
        let p = spec.memsys_params();
        assert_eq!(p.mode, MemSysMode::BusDram);
        assert_eq!(p.bus_bytes_per_cycle, Some(4.0));
        assert_eq!(p.bus_clock_period, Some(2));
        assert_eq!(p.dram_bytes_per_cycle, Some(8.0));
        assert_eq!(p.dram_banks, Some(16));
        assert_eq!(p.dram_hit_cycles, Some(30));
        assert_eq!(p.dram_miss_cycles, Some(90));
    }

    #[test]
    fn unknown_models_and_params_are_rejected_with_vocabulary() {
        let err = "phaser".parse::<MemSysSpec>().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unknown memory-system model 'phaser'"),
            "{msg}"
        );
        assert!(msg.contains("known models"), "{msg}");
        assert!(msg.contains("bus"), "{msg}");
        let err = "bus:lanes=4".parse::<MemSysSpec>().unwrap_err();
        assert!(
            err.to_string().contains("has no parameter 'lanes'"),
            "{err}"
        );
        let err = "legacy:width=1".parse::<MemSysSpec>().unwrap_err();
        assert!(err.to_string().contains("takes no parameters"), "{err}");
    }

    #[test]
    fn degenerate_values_are_rejected() {
        for bad in [
            "bus:width=0",
            "bus:bw=-2",
            "bus:width=NaN",
            "bus:clock=0",
            "bus:dram:banks=0",
            "bus:dram:miss=0",
            "bus:width=1e-300",
            "bus:bw=0.0001",
            "bus:clock=18446744073709551615",
            "bus:dram:banks=18446744073709551615",
            "bus:dram:hit=18446744073709551615",
            "bus:dram:miss=4294967296",
        ] {
            assert!(bad.parse::<MemSysSpec>().is_err(), "{bad} should not parse");
        }
        // A zero hit latency is fine (an idealised row buffer).
        assert!("bus:dram:hit=0".parse::<MemSysSpec>().is_ok());
    }

    #[test]
    fn with_param_revalidates() {
        let spec = MemSysSpec::bus().with_param("width", "4").unwrap();
        assert_eq!(spec.to_string(), "bus:width=4");
        assert!(MemSysSpec::bus().with_param("width", "0").is_err());
    }
}
