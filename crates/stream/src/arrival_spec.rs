//! `ArrivalSpec` — the open, parameterized description of an arrival process,
//! the workspace's **fourth** string-addressable axis (after schedulers,
//! workloads and memory-system models), in the shared
//! `name:key=value` grammar:
//!
//! ```text
//! poisson:rate=80                      memoryless arrivals at 80 jobs/Mcycle
//! pareto:alpha=1.5,rate=80             heavy-tailed interarrival gaps
//! burst:period=400000,duty=0.25,hi=160,lo=10
//!                                      square-wave on/off load
//! diurnal:period=2000000,mean=40,amp=0.8
//!                                      sinusoidal day/night load
//! uniform:gap=25000                    deterministic arrivals, one per gap
//! ```
//!
//! Parsing validates the process name and every parameter against the
//! [`ArrivalRegistry`]; the stored form is canonical (sorted keys, normalised
//! numbers), so `to_string()` then `parse()` is the identity.  Every process
//! is open loop: a validated spec yields a streaming [`ArrivalGen`]
//! (constant-memory, one arrival cycle at a time — what the stream backend
//! and the serving loop consume).
//!
//! All rates are in jobs per million cycles; all generators are pure
//! functions of (spec, seed).

use crate::arrival::{ArrivalGen, ModulatedGen, ParetoGen, PoissonGen, UniformGen};
use pdfws_spec::{spec_type, Domain, ParamKind, ParamSpec, Registry, Spec, SpecFamily, Vocab};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

spec_type! {
    /// A parsed, validated arrival-process description: process name +
    /// parameter overrides (only the explicitly-given ones; everything else
    /// uses the factory's default).
    ///
    /// Construct one with the named constructors ([`ArrivalSpec::poisson`],
    /// [`ArrivalSpec::pareto`], …), by parsing (`"pareto:alpha=1.5".parse()`),
    /// or via [`ArrivalSpec::with_param`]; every path validates against the
    /// global [`ArrivalRegistry`], so a value can always produce its
    /// generator.
    pub struct ArrivalSpec(ArrivalDomain);
}

impl ArrivalSpec {
    /// Memoryless Poisson arrivals at `rate` jobs per million cycles.
    pub fn poisson(rate: f64) -> Self {
        format!("poisson:rate={rate}")
            .parse()
            .expect("positive rates build valid poisson specs")
    }

    /// Heavy-tailed Pareto interarrival gaps with tail index `alpha`
    /// (`> 1`, lower is heavier) at mean `rate` jobs per million cycles.
    pub fn pareto(alpha: f64, rate: f64) -> Self {
        format!("pareto:alpha={alpha},rate={rate}")
            .parse()
            .expect("alpha > 1 and positive rates build valid pareto specs")
    }

    /// Square-wave on/off load with the factory defaults.
    pub fn burst() -> Self {
        ArrivalSpec(Spec::known_valid("burst", BTreeMap::new()))
    }

    /// Sinusoidal day/night load with the factory defaults.
    pub fn diurnal() -> Self {
        ArrivalSpec(Spec::known_valid("diurnal", BTreeMap::new()))
    }

    /// Deterministic arrivals, one every `gap` cycles.
    pub fn uniform(gap: u64) -> Self {
        format!("uniform:gap={gap}")
            .parse()
            .expect("positive gaps build valid uniform specs")
    }

    /// A streaming generator of absolute arrival cycles for this process,
    /// seeded by `seed`.
    pub fn generator(&self, seed: u64) -> Box<dyn ArrivalGen> {
        ArrivalRegistry::global()
            .resolve(self)
            .generator(self, seed)
    }
}

/// Turns a validated [`ArrivalSpec`] into its generator.
///
/// The registry guarantees `generator` only ever sees specs whose keys and
/// values passed the factory's [`SpecFamily`] declarations.
pub trait ArrivalFactory: SpecFamily {
    /// The streaming generator.
    fn generator(&self, spec: &ArrivalSpec, seed: u64) -> Box<dyn ArrivalGen>;
}

/// The arrival-process axis.
pub enum ArrivalDomain {}

impl Domain for ArrivalDomain {
    type Factory = dyn ArrivalFactory;
    const VOCAB: &'static Vocab = &Vocab {
        subject: "arrivals",
        entity: "arrival process",
        known_label: "known processes",
    };
    fn builtins() -> Vec<Arc<dyn ArrivalFactory>> {
        vec![
            Arc::new(PoissonFactory),
            Arc::new(UniformFactory),
            Arc::new(ParetoFactory),
            Arc::new(BurstFactory),
            Arc::new(DiurnalFactory),
        ]
    }
    fn global() -> &'static ArrivalRegistry {
        static GLOBAL: OnceLock<ArrivalRegistry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::with_builtins)
    }
}

/// The arrival-process registry (every `--arrivals` string resolves through
/// its [`global`](Registry::global) instance).
pub type ArrivalRegistry = Registry<ArrivalDomain>;

// ---------------------------------------------------------------------------
// Built-in factories.
// ---------------------------------------------------------------------------

/// Reject infinite values where a generator needs a finite mean.
fn require_finite(spec: &Spec, key: &str) -> Result<(), String> {
    if spec.f64_param(key).is_some_and(|v| !v.is_finite()) {
        return Err(format!("'{key}' must be finite"));
    }
    Ok(())
}

struct PoissonFactory;

impl SpecFamily for PoissonFactory {
    fn name(&self) -> &'static str {
        "poisson"
    }
    fn doc(&self) -> &'static str {
        "memoryless open-loop arrivals (exponential interarrival gaps)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[ParamSpec {
            key: "rate",
            kind: ParamKind::PositiveF64,
            doc: "offered load in jobs per million cycles (default 40)",
        }]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        require_finite(spec, "rate")
    }
}

impl ArrivalFactory for PoissonFactory {
    fn generator(&self, spec: &ArrivalSpec, seed: u64) -> Box<dyn ArrivalGen> {
        let rate = spec.f64_param("rate").unwrap_or(40.0);
        Box::new(PoissonGen::new(rate, seed))
    }
}

struct UniformFactory;

impl SpecFamily for UniformFactory {
    fn name(&self) -> &'static str {
        "uniform"
    }
    fn doc(&self) -> &'static str {
        "deterministic open-loop arrivals, one every gap cycles"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[ParamSpec {
            key: "gap",
            kind: ParamKind::U64,
            doc: "cycles between consecutive arrivals (default 25000)",
        }]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        if spec.u64_param("gap") == Some(0) {
            return Err("'gap' must be at least 1 cycle".into());
        }
        Ok(())
    }
}

impl ArrivalFactory for UniformFactory {
    fn generator(&self, spec: &ArrivalSpec, _seed: u64) -> Box<dyn ArrivalGen> {
        Box::new(UniformGen::new(spec.u64_param("gap").unwrap_or(25_000)))
    }
}

struct ParetoFactory;

impl SpecFamily for ParetoFactory {
    fn name(&self) -> &'static str {
        "pareto"
    }
    fn doc(&self) -> &'static str {
        "heavy-tailed open-loop arrivals (Pareto interarrival gaps)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "alpha",
                kind: ParamKind::PositiveF64,
                doc: "Pareto tail index; must exceed 1 for a finite mean, lower \
                      is heavier (default 1.5)",
            },
            ParamSpec {
                key: "rate",
                kind: ParamKind::PositiveF64,
                doc: "mean offered load in jobs per million cycles (default 40)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        require_finite(spec, "rate")?;
        require_finite(spec, "alpha")?;
        if spec.f64_param("alpha").is_some_and(|a| a <= 1.0) {
            return Err("'alpha' must exceed 1 (a Pareto tail at or below 1 has no \
                        finite mean rate)"
                .into());
        }
        Ok(())
    }
}

impl ArrivalFactory for ParetoFactory {
    fn generator(&self, spec: &ArrivalSpec, seed: u64) -> Box<dyn ArrivalGen> {
        let alpha = spec.f64_param("alpha").unwrap_or(1.5);
        let rate = spec.f64_param("rate").unwrap_or(40.0);
        Box::new(ParetoGen::new(alpha, rate, seed))
    }
}

struct BurstFactory;

impl SpecFamily for BurstFactory {
    fn name(&self) -> &'static str {
        "burst"
    }
    fn doc(&self) -> &'static str {
        "square-wave on/off load: Poisson at rate hi for the duty fraction of \
         each period, lo for the rest"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "period",
                kind: ParamKind::U64,
                doc: "burst cycle length in cycles (default 400000)",
            },
            ParamSpec {
                key: "duty",
                kind: ParamKind::Fraction,
                doc: "fraction of each period spent at the hi rate, strictly \
                      between 0 and 1 (default 0.25)",
            },
            ParamSpec {
                key: "hi",
                kind: ParamKind::PositiveF64,
                doc: "burst rate in jobs per million cycles (default 160)",
            },
            ParamSpec {
                key: "lo",
                kind: ParamKind::PositiveF64,
                doc: "off-burst rate in jobs per million cycles (default 10)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        require_finite(spec, "hi")?;
        require_finite(spec, "lo")?;
        if spec.u64_param("period") == Some(0) {
            return Err("'period' must be at least 1 cycle".into());
        }
        if spec.f64_param("duty").is_some_and(|d| d == 0.0 || d == 1.0) {
            return Err("'duty' must lie strictly between 0 and 1 (otherwise one \
                        of the two rates never applies)"
                .into());
        }
        let hi = spec.f64_param("hi").unwrap_or(160.0);
        let lo = spec.f64_param("lo").unwrap_or(10.0);
        if lo > hi {
            return Err(format!("'lo' ({lo}) must not exceed 'hi' ({hi})"));
        }
        Ok(())
    }
}

impl ArrivalFactory for BurstFactory {
    fn generator(&self, spec: &ArrivalSpec, seed: u64) -> Box<dyn ArrivalGen> {
        let period = spec.u64_param("period").unwrap_or(400_000) as f64;
        let duty = spec.f64_param("duty").unwrap_or(0.25);
        let hi = spec.f64_param("hi").unwrap_or(160.0) / 1.0e6;
        let lo = spec.f64_param("lo").unwrap_or(10.0) / 1.0e6;
        let rate_at = move |t: f64| {
            if (t % period) < duty * period {
                hi
            } else {
                lo
            }
        };
        Box::new(ModulatedGen::new(hi, rate_at, seed ^ 0xB52A_57F1))
    }
}

struct DiurnalFactory;

impl SpecFamily for DiurnalFactory {
    fn name(&self) -> &'static str {
        "diurnal"
    }
    fn doc(&self) -> &'static str {
        "sinusoidal day/night load: Poisson at mean*(1 + amp*sin(2*pi*t/period))"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "period",
                kind: ParamKind::U64,
                doc: "cycle length of one full day/night swing (default 2000000)",
            },
            ParamSpec {
                key: "mean",
                kind: ParamKind::PositiveF64,
                doc: "mean rate in jobs per million cycles (default 40)",
            },
            ParamSpec {
                key: "amp",
                kind: ParamKind::Fraction,
                doc: "swing amplitude as a fraction of the mean, 0..1 (default 0.8)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        require_finite(spec, "mean")?;
        if spec.u64_param("period") == Some(0) {
            return Err("'period' must be at least 1 cycle".into());
        }
        Ok(())
    }
}

impl ArrivalFactory for DiurnalFactory {
    fn generator(&self, spec: &ArrivalSpec, seed: u64) -> Box<dyn ArrivalGen> {
        let period = spec.u64_param("period").unwrap_or(2_000_000) as f64;
        let mean = spec.f64_param("mean").unwrap_or(40.0) / 1.0e6;
        let amp = spec.f64_param("amp").unwrap_or(0.8);
        let rate_at = move |t: f64| mean * (1.0 + amp * (std::f64::consts::TAU * t / period).sin());
        Box::new(ModulatedGen::new(
            mean * (1.0 + amp),
            rate_at,
            seed ^ 0xD1_0BA1,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(spec: &str, n: usize, seed: u64) -> Vec<u64> {
        let spec: ArrivalSpec = spec.parse().unwrap();
        let mut gen = spec.generator(seed);
        (0..n).map(|_| gen.next_arrival()).collect()
    }

    #[test]
    fn all_builtin_processes_parse_and_display_canonically() {
        for name in ["poisson", "uniform", "pareto", "burst", "diurnal"] {
            let spec: ArrivalSpec = name.parse().unwrap();
            assert_eq!(spec.name(), name);
            assert_eq!(spec.to_string(), name);
        }
        let spec: ArrivalSpec = "pareto:rate=080,alpha=1.50".parse().unwrap();
        assert_eq!(spec.to_string(), "pareto:alpha=1.5,rate=80");
        let again: ArrivalSpec = spec.to_string().parse().unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn unknown_processes_and_params_are_rejected_with_vocabulary() {
        let err = "avalanche".parse::<ArrivalSpec>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown arrival process 'avalanche'"), "{msg}");
        assert!(msg.contains("known processes"), "{msg}");
        assert!(msg.contains("pareto"), "{msg}");
        let err = "poisson:burstiness=4".parse::<ArrivalSpec>().unwrap_err();
        assert!(
            err.to_string().contains("has no parameter 'burstiness'"),
            "{err}"
        );
    }

    #[test]
    fn degenerate_values_are_rejected() {
        for bad in [
            "pareto:alpha=1",
            "pareto:alpha=0.8",
            "pareto:rate=inf",
            "poisson:rate=inf",
            "poisson:rate=0",
            "uniform:gap=0",
            "burst:duty=0",
            "burst:duty=1",
            "burst:period=0",
            "burst:hi=10,lo=40",
            "diurnal:period=0",
        ] {
            assert!(
                bad.parse::<ArrivalSpec>().is_err(),
                "{bad} should not parse"
            );
        }
        assert!("diurnal:amp=1".parse::<ArrivalSpec>().is_ok());
    }

    #[test]
    fn generators_are_deterministic_and_non_decreasing() {
        for spec in [
            "poisson:rate=100",
            "uniform:gap=5000",
            "pareto:alpha=1.5,rate=100",
            "burst:period=100000,duty=0.3,hi=200,lo=20",
            "diurnal:period=500000,mean=100,amp=0.9",
        ] {
            let a = schedule(spec, 300, 11);
            let b = schedule(spec, 300, 11);
            assert_eq!(a, b, "{spec}");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{spec}: {a:?}");
            let c = schedule(spec, 300, 12);
            if spec.starts_with("uniform") {
                assert_eq!(a, c, "uniform ignores the seed");
            } else {
                assert_ne!(a, c, "{spec} should react to the seed");
            }
        }
    }

    #[test]
    fn mean_rates_are_calibrated() {
        // Every open-loop process targeting ~100 jobs/Mcycle should produce a
        // long-run mean gap near 10_000 cycles.
        for spec in [
            "poisson:rate=100",
            "pareto:alpha=2.5,rate=100",
            "diurnal:period=200000,mean=100,amp=0.8",
        ] {
            let times = schedule(spec, 20_000, 5);
            let mean_gap = *times.last().unwrap() as f64 / times.len() as f64;
            assert!(
                (mean_gap - 10_000.0).abs() < 1_200.0,
                "{spec}: mean gap {mean_gap}"
            );
        }
    }

    #[test]
    fn pareto_gaps_are_heavier_tailed_than_poisson() {
        let max_gap = |times: &[u64]| times.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        let pareto = schedule("pareto:alpha=1.2,rate=100", 5_000, 3);
        let poisson = schedule("poisson:rate=100", 5_000, 3);
        assert!(
            max_gap(&pareto) > 4 * max_gap(&poisson),
            "pareto max gap {} vs poisson {}",
            max_gap(&pareto),
            max_gap(&poisson)
        );
    }

    #[test]
    fn burst_loads_clump_arrivals() {
        // With duty 0.2 and hi >> lo, most arrivals land inside the burst
        // window (the first 20% of each period).
        let times = schedule("burst:period=1000000,duty=0.2,hi=400,lo=4", 2_000, 9);
        let in_burst = times.iter().filter(|&&t| (t % 1_000_000) < 200_000).count();
        assert!(
            in_burst as f64 > 0.8 * times.len() as f64,
            "{in_burst} of {} arrivals in burst windows",
            times.len()
        );
    }

    #[test]
    fn help_lists_processes_and_parameters() {
        let help = ArrivalRegistry::global().help();
        for needle in [
            "poisson",
            "pareto",
            "alpha=<f64>0>",
            "duty=<0..1>",
            "uniform",
        ] {
            assert!(help.contains(needle), "missing {needle} in:\n{help}");
        }
    }

    #[test]
    fn custom_factories_extend_the_grammar() {
        struct Tide;
        impl SpecFamily for Tide {
            fn name(&self) -> &'static str {
                "test-tide"
            }
            fn doc(&self) -> &'static str {
                "one arrival per 1000 cycles (registered by a unit test)"
            }
            fn params(&self) -> &'static [ParamSpec] {
                &[]
            }
        }
        impl ArrivalFactory for Tide {
            fn generator(&self, _spec: &ArrivalSpec, _seed: u64) -> Box<dyn ArrivalGen> {
                Box::new(UniformGen::new(1_000))
            }
        }
        ArrivalRegistry::global().register(Arc::new(Tide));
        let spec: ArrivalSpec = "test-tide".parse().unwrap();
        let mut gen = spec.generator(0);
        assert_eq!(gen.next_arrival(), 0);
        assert_eq!(gen.next_arrival(), 1_000);
        let err = "test-tide:x=1".parse::<ArrivalSpec>().unwrap_err();
        assert!(err.to_string().contains("takes no parameters"), "{err}");
    }

    #[test]
    fn with_param_revalidates() {
        let spec = ArrivalSpec::burst().with_param("duty", "0.5").unwrap();
        assert_eq!(spec.to_string(), "burst:duty=0.5");
        assert!(ArrivalSpec::burst().with_param("duty", "0").is_err());
    }
}
