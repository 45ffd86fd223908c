//! `CacheModeSpec` — the open, parameterized description of *how* the cache
//! hierarchy is evaluated, in the workspace's shared `name:key=value` grammar:
//!
//! ```text
//! exact                 per-access simulation of every set (the default)
//! sampled:rate=16       systematic set-sampling: simulate 1/16th of the sets,
//!                       scale the statistics back up
//! analytic              reuse-distance histograms profiled once per DAG,
//!                       composed per cache size without replaying the stream
//! ```
//!
//! The three modes trade fidelity for speed.  `exact` is bit-exact and is what
//! every claim evaluation defaults to; `sampled` keeps the full engine
//! interleaving but touches only the sampled sets; `analytic` prices each
//! task's references from its profiled stack-distance histogram, so a sweep
//! over schedulers × cores × cache sizes never re-simulates the address
//! stream.  The declared accuracy contracts ([`MPKI_TOLERANCE_SAMPLED`],
//! [`MPKI_TOLERANCE_ANALYTIC`]) are enforced against `exact` by property
//! tests over every registered workload × scheduler.
//!
//! Parsing validates the mode name and parameters against the global
//! [`CacheModeRegistry`]; the stored form is canonical, so `to_string()` then
//! `parse()` is the identity — the same contract as the scheduler, workload
//! and memsys grammars.

use pdfws_spec::{spec_type, Domain, ParamKind, ParamSpec, Registry, Spec, SpecFamily, Vocab};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Errors from parsing or validating a [`CacheModeSpec`] (the shared
/// [`pdfws_spec::SpecError`], worded with the cache vocabulary).
pub type CacheModeError = pdfws_spec::SpecError;

/// Declared accuracy contract of `sampled` (any legal rate) against `exact`:
/// L2 MPKI must agree within this relative fraction plus [`MPKI_SLACK_ABS`]
/// absolute misses-per-kilo-instruction.
pub const MPKI_TOLERANCE_SAMPLED: f64 = 0.25;

/// Declared accuracy contract of `analytic` against `exact` (same form as
/// [`MPKI_TOLERANCE_SAMPLED`]; looser because the composed histograms model
/// capacity, not scheduler-induced sharing).
pub const MPKI_TOLERANCE_ANALYTIC: f64 = 0.60;

/// Absolute MPKI slack added to both relative tolerances, so near-zero miss
/// rates (everything fits in the L2) cannot fail on rounding noise.
pub const MPKI_SLACK_ABS: f64 = 2.0;

/// The cache-mode axis: the modes carry no domain method, so their factory
/// objects are the bare [`SpecFamily`] declarations.
pub enum CacheModeDomain {}

impl Domain for CacheModeDomain {
    type Factory = dyn SpecFamily;
    const VOCAB: &'static Vocab = &Vocab {
        subject: "cache",
        entity: "cache mode",
        known_label: "known modes",
    };
    fn builtins() -> Vec<Arc<dyn SpecFamily>> {
        vec![
            Arc::new(ExactFactory),
            Arc::new(SampledFactory),
            Arc::new(AnalyticFactory),
        ]
    }
    fn global() -> &'static CacheModeRegistry {
        static GLOBAL: OnceLock<CacheModeRegistry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::with_builtins)
    }
}

/// The cache-mode registry (every `--cache` string resolves through its
/// [`global`](Registry::global) instance).
pub type CacheModeRegistry = Registry<CacheModeDomain>;

spec_type! {
    /// A parsed, validated cache-evaluation mode: mode name + parameters.
    ///
    /// Construct one with the named constructors ([`CacheModeSpec::exact`],
    /// [`CacheModeSpec::sampled`], [`CacheModeSpec::analytic`]) or by parsing
    /// (`"sampled:rate=16".parse()`); every path validates against the global
    /// [`CacheModeRegistry`].
    pub struct CacheModeSpec(CacheModeDomain);
}

impl Default for CacheModeSpec {
    /// `exact` — the bit-exact per-access path every claim defaults to.
    fn default() -> Self {
        Self::exact()
    }
}

impl CacheModeSpec {
    /// Per-access exact simulation of every set (the default).
    pub fn exact() -> Self {
        CacheModeSpec(Spec::known_valid("exact", BTreeMap::new()))
    }

    /// Systematic set-sampling at the given rate (a power of two ≥ 2).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a power of two ≥ 2 (use `parse` for fallible
    /// construction).
    pub fn sampled(rate: u64) -> Self {
        format!("sampled:rate={rate}")
            .parse()
            .expect("rate must be a power of two >= 2")
    }

    /// Reuse-distance histograms profiled once per DAG, composed per cache
    /// size.
    pub fn analytic() -> Self {
        CacheModeSpec(Spec::known_valid("analytic", BTreeMap::new()))
    }

    /// Whether this is the bit-exact default mode.
    pub fn is_exact(&self) -> bool {
        self.name() == "exact"
    }

    /// The sampling rate, if this is a `sampled` spec (defaults to 16 when
    /// the parameter was omitted).
    pub fn sample_rate(&self) -> Option<u64> {
        sample_rate(self)
    }
}

/// The sampling rate of a `sampled` spec (see [`CacheModeSpec::sample_rate`]).
fn sample_rate(spec: &Spec) -> Option<u64> {
    (spec.name() == "sampled").then(|| spec.u64_param("rate").unwrap_or(16))
}

// ---------------------------------------------------------------------------
// Built-in factories.
// ---------------------------------------------------------------------------

struct ExactFactory;

impl SpecFamily for ExactFactory {
    fn name(&self) -> &'static str {
        "exact"
    }
    fn doc(&self) -> &'static str {
        "per-access simulation of every set (bit-exact; the default)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }
}

struct SampledFactory;

impl SpecFamily for SampledFactory {
    fn name(&self) -> &'static str {
        "sampled"
    }
    fn doc(&self) -> &'static str {
        "systematic set-sampling: simulate 1/rate of the sets, scale the stats back up"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[ParamSpec {
            key: "rate",
            kind: ParamKind::U64,
            doc: "sample 1 in <rate> sets; a power of two >= 2 (default 16)",
        }]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        let rate = sample_rate(spec).expect("sampled spec");
        if rate < 2 || !rate.is_power_of_two() {
            return Err(format!("'rate' must be a power of two >= 2, got {rate}"));
        }
        Ok(())
    }
}

struct AnalyticFactory;

impl SpecFamily for AnalyticFactory {
    fn name(&self) -> &'static str {
        "analytic"
    }
    fn doc(&self) -> &'static str {
        "stack-distance histograms profiled once per DAG, composed per cache size"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_mode_names_parse_and_display() {
        for name in ["exact", "sampled", "analytic"] {
            let spec: CacheModeSpec = name.parse().unwrap();
            assert_eq!(spec.name(), name);
            assert_eq!(spec.to_string(), name);
        }
    }

    #[test]
    fn default_is_exact() {
        assert_eq!(CacheModeSpec::default(), CacheModeSpec::exact());
        assert!(CacheModeSpec::exact().is_exact());
        assert!(!CacheModeSpec::analytic().is_exact());
    }

    #[test]
    fn sampled_rates_canonicalise_and_round_trip() {
        let spec: CacheModeSpec = "sampled:rate=032".parse().unwrap();
        assert_eq!(spec.to_string(), "sampled:rate=32");
        assert_eq!(spec.sample_rate(), Some(32));
        let again: CacheModeSpec = spec.to_string().parse().unwrap();
        assert_eq!(again, spec);
        // A bare `sampled` means the default rate.
        let bare: CacheModeSpec = "sampled".parse().unwrap();
        assert_eq!(bare.sample_rate(), Some(16));
        assert_eq!(CacheModeSpec::sampled(8).to_string(), "sampled:rate=8");
    }

    #[test]
    fn degenerate_rates_are_rejected() {
        for bad in ["sampled:rate=0", "sampled:rate=1", "sampled:rate=3"] {
            let err = bad.parse::<CacheModeSpec>().unwrap_err();
            assert!(err.to_string().contains("power of two"), "{bad} -> {err}");
        }
    }

    #[test]
    fn unknown_modes_and_params_are_rejected_with_vocabulary() {
        let err = "oracle".parse::<CacheModeSpec>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown cache mode 'oracle'"), "{msg}");
        assert!(msg.contains("known modes"), "{msg}");
        assert!(msg.contains("exact"), "{msg}");
        let err = "exact:rate=2".parse::<CacheModeSpec>().unwrap_err();
        assert!(err.to_string().contains("takes no parameters"), "{err}");
        let err = "sampled:sets=2".parse::<CacheModeSpec>().unwrap_err();
        assert!(err.to_string().contains("has no parameter 'sets'"), "{err}");
    }

    #[test]
    fn help_lists_modes_and_parameters() {
        let help = CacheModeRegistry::global().help();
        assert!(help.contains("exact"), "{help}");
        assert!(help.contains("sampled"), "{help}");
        assert!(help.contains("analytic"), "{help}");
        assert!(help.contains("rate=<u64>"), "{help}");
    }

    #[test]
    fn separate_registries_are_independent() {
        let reg = CacheModeRegistry::empty();
        assert!(reg.names().is_empty());
        assert!(reg.validate("exact".to_string(), BTreeMap::new()).is_err());
    }
}
