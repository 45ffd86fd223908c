//! The memory-system model registry: name → [`ModelFactory`], the open half
//! of the [`MemSysSpec`] API.
//!
//! An instance of the generic `pdfws-spec` registry, so `--memsys` strings
//! get the same typed-parameter validation and `--list` help treatment as
//! `--scheduler` and `--workload` strings.
//! Two models ship built in: `bus` (the component bus+DRAM system) and
//! `legacy` (the old serializing-channel formula); registering another
//! factory makes its name parseable everywhere a memsys spec is accepted.

use crate::spec::MemSysSpec;
use pdfws_cmp_model::MemSysParams;
use pdfws_spec::{Domain, Spec, SpecFamily, Vocab};
use std::sync::{Arc, OnceLock};

pub use pdfws_spec::{ParamKind, ParamSpec};

/// Turns a validated [`MemSysSpec`] into the [`MemSysParams`] override block
/// a `CmpConfig` stores.
///
/// The registry guarantees `memsys_params` only ever sees specs whose keys
/// and values passed the factory's [`SpecFamily`] declarations, so it is
/// infallible.
pub trait ModelFactory: SpecFamily {
    /// The parameter block the spec describes.
    fn memsys_params(&self, spec: &MemSysSpec) -> MemSysParams;
}

/// The memory-system axis.
pub enum MemSysDomain {}

impl Domain for MemSysDomain {
    type Factory = dyn ModelFactory;
    const VOCAB: &'static Vocab = &Vocab {
        subject: "memsys",
        entity: "memory-system model",
        known_label: "known models",
    };
    fn builtins() -> Vec<Arc<dyn ModelFactory>> {
        vec![Arc::new(BusFactory), Arc::new(LegacyFactory)]
    }
    fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::with_builtins)
    }
}

/// The memory-system model registry (every `--memsys` string resolves
/// through its [`global`](pdfws_spec::Registry::global) instance).
pub type Registry = pdfws_spec::Registry<MemSysDomain>;

// ---------------------------------------------------------------------------
// Built-in factories.
// ---------------------------------------------------------------------------

struct BusFactory;

impl SpecFamily for BusFactory {
    fn name(&self) -> &'static str {
        "bus"
    }
    fn doc(&self) -> &'static str {
        "shared split-transaction bus + banked DRAM controller (contention is emergent)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "width",
                kind: ParamKind::PositiveF64,
                doc: "bus width in bytes per bus cycle (default: the config's off-chip \
                      channel bandwidth; 'inf' for an unbounded bus)",
            },
            ParamSpec {
                key: "clock",
                kind: ParamKind::U64,
                doc: "bus clock period in core cycles per bus cycle (default 1)",
            },
            ParamSpec {
                key: "bw",
                kind: ParamKind::PositiveF64,
                doc: "DRAM data bandwidth in bytes per core cycle (default: 2x the bus \
                      width; 'inf' for unbounded pins)",
            },
            ParamSpec {
                key: "dram:banks",
                kind: ParamKind::U64,
                doc: "number of DRAM banks (default 16: two dual-rank DIMMs)",
            },
            ParamSpec {
                key: "dram:hit",
                kind: ParamKind::U64,
                doc: "open-row hit latency in cycles (default: a quarter of the miss \
                      latency)",
            },
            ParamSpec {
                key: "dram:miss",
                kind: ParamKind::U64,
                doc: "row activate+access latency in cycles (default: calibrated so an \
                      unloaded row miss costs the config's memory latency)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        // Below this a single line transfer no longer fits in a cycle count.
        const MIN_BYTES_PER_CYCLE: f64 = 1e-3;
        for key in ["width", "bw"] {
            if spec.f64_param(key).is_some_and(|v| v < MIN_BYTES_PER_CYCLE) {
                return Err(format!(
                    "'{key}' must be at least {MIN_BYTES_PER_CYCLE} bytes per cycle"
                ));
            }
        }
        bus_params(spec).validate()
    }
}

/// The override block a `bus` spec describes.
fn bus_params(spec: &Spec) -> MemSysParams {
    MemSysParams {
        bus_bytes_per_cycle: spec.f64_param("width"),
        bus_clock_period: spec.u64_param("clock"),
        dram_bytes_per_cycle: spec.f64_param("bw"),
        dram_banks: spec.u64_param("dram:banks"),
        dram_hit_cycles: spec.u64_param("dram:hit"),
        dram_miss_cycles: spec.u64_param("dram:miss"),
        ..MemSysParams::bus_dram()
    }
}

impl ModelFactory for BusFactory {
    fn memsys_params(&self, spec: &MemSysSpec) -> MemSysParams {
        bus_params(spec)
    }
}

struct LegacyFactory;

impl SpecFamily for LegacyFactory {
    fn name(&self) -> &'static str {
        "legacy"
    }
    fn doc(&self) -> &'static str {
        "pre-memsys serializing channel: per-miss transfer formula, single busy window"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }
}

impl ModelFactory for LegacyFactory {
    fn memsys_params(&self, _spec: &MemSysSpec) -> MemSysParams {
        MemSysParams::legacy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_cmp_model::MemSysMode;

    #[test]
    fn global_registry_knows_the_builtins() {
        let names = Registry::global().names();
        for name in ["bus", "legacy"] {
            assert!(names.contains(&name.to_string()), "{names:?}");
        }
    }

    #[test]
    fn help_lists_models_and_parameters() {
        let help = Registry::global().help();
        assert!(help.contains("bus"), "{help}");
        assert!(help.contains("legacy"), "{help}");
        assert!(help.contains("width=<f64>0>"), "{help}");
        assert!(help.contains("dram:banks=<u64>"), "{help}");
    }

    #[test]
    fn custom_factories_extend_the_grammar() {
        struct Perfect;
        impl SpecFamily for Perfect {
            fn name(&self) -> &'static str {
                "test-perfect"
            }
            fn doc(&self) -> &'static str {
                "infinite everything (registered by a unit test)"
            }
            fn params(&self) -> &'static [ParamSpec] {
                &[]
            }
        }
        impl ModelFactory for Perfect {
            fn memsys_params(&self, _spec: &MemSysSpec) -> MemSysParams {
                MemSysParams {
                    bus_bytes_per_cycle: Some(f64::INFINITY),
                    dram_bytes_per_cycle: Some(f64::INFINITY),
                    ..MemSysParams::bus_dram()
                }
            }
        }
        Registry::global().register(Arc::new(Perfect));
        let spec: MemSysSpec = "test-perfect".parse().unwrap();
        let params = spec.memsys_params();
        assert_eq!(params.mode, MemSysMode::BusDram);
        assert_eq!(params.bus_bytes_per_cycle, Some(f64::INFINITY));
        let err = "test-perfect:x=1".parse::<MemSysSpec>().unwrap_err();
        assert!(err.to_string().contains("takes no parameters"), "{err}");
    }

    #[test]
    fn separate_registries_are_independent() {
        let reg = Registry::empty();
        assert!(reg.names().is_empty());
        assert!(reg.parse("bus").is_err());
    }
}
