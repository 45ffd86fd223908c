//! The policy registry: name → [`PolicyFactory`], the open half of the
//! [`SchedulerSpec`] API.
//!
//! Each factory declares its parameters ([`ParamSpec`]) so the spec parser can
//! type-check values and produce helpful unknown-key errors *before* anything
//! is built, and builds the policy object from a validated spec.  The global
//! registry starts with the built-in policies (`pdf`, `ws`, `static`,
//! `hybrid`, `adaptive`) and is open for extension: register your own factory and its name
//! becomes parseable everywhere a spec string is accepted — experiments,
//! stream configs, bench binaries (see `examples/custom_policy.rs`).
//!
//! The grammar, typed-parameter declarations and the registry itself are the
//! generic `pdfws-spec` machinery shared by all four spec axes; this module
//! adds the scheduler-specific half: the [`PolicyFactory`] trait with its
//! `build` method, the scheduler error vocabulary, and the built-in policies.

use crate::hybrid::HybridPolicy;
use crate::pdf::PdfPolicy;
use crate::policy::SchedulerPolicy;
use crate::spec::SchedulerSpec;
use crate::static_partition::StaticPartitionPolicy;
use crate::ws::WorkStealingPolicy;
use pdfws_spec::{Domain, Spec, SpecFamily, Vocab};
use std::sync::{Arc, OnceLock};

pub use pdfws_spec::{ParamKind, ParamSpec};

/// Builds a [`SchedulerPolicy`] from a validated [`SchedulerSpec`].
///
/// Implementations declare their parameters through the [`SpecFamily`]
/// supertrait; the registry guarantees that `build` only ever sees specs
/// whose keys and values passed those declarations (and
/// [`SpecFamily::validate_spec`]), so `build` is infallible.
pub trait PolicyFactory: SpecFamily {
    /// Build the policy for a machine with `cores` cores.
    fn build(&self, spec: &SchedulerSpec, cores: usize) -> Box<dyn SchedulerPolicy>;
}

/// The scheduler axis.
pub enum SchedulerDomain {}

impl Domain for SchedulerDomain {
    type Factory = dyn PolicyFactory;
    const VOCAB: &'static Vocab = &Vocab {
        subject: "scheduler",
        entity: "scheduler policy",
        known_label: "known policies",
    };
    fn builtins() -> Vec<Arc<dyn PolicyFactory>> {
        vec![
            Arc::new(PdfFactory),
            Arc::new(WsFactory),
            Arc::new(StaticFactory),
            Arc::new(HybridFactory),
            Arc::new(AdaptiveFactory),
        ]
    }
    fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::with_builtins)
    }
}

/// The policy registry: almost all code uses its process-wide
/// [`global`](pdfws_spec::Registry::global) instance, which the spec parser
/// consults; separate instances exist only for tests.
pub type Registry = pdfws_spec::Registry<SchedulerDomain>;

// ---------------------------------------------------------------------------
// Built-in factories.
// ---------------------------------------------------------------------------

struct PdfFactory;

impl SpecFamily for PdfFactory {
    fn name(&self) -> &'static str {
        "pdf"
    }
    fn doc(&self) -> &'static str {
        "Parallel Depth First: global ready queue prioritised by sequential (1DF) rank"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }
}

impl PolicyFactory for PdfFactory {
    fn build(&self, spec: &SchedulerSpec, _cores: usize) -> Box<dyn SchedulerPolicy> {
        Box::new(PdfPolicy::new(spec))
    }
}

struct WsFactory;

impl SpecFamily for WsFactory {
    fn name(&self) -> &'static str {
        "ws"
    }
    fn doc(&self) -> &'static str {
        "Work Stealing: per-core deques, owner LIFO, idle cores steal"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "victim",
                kind: ParamKind::Choice(&["round-robin", "random", "hier"]),
                doc: "victim selection: scan round-robin from the thief (default), \
                      seeded-random start, or hierarchical (same cluster first, then \
                      spill outward)",
            },
            ParamSpec {
                key: "steal",
                kind: ParamKind::Choice(&["one", "half"]),
                doc: "steal granularity: one task per steal (default) or half the \
                      victim's deque",
            },
            ParamSpec {
                key: "seed",
                kind: ParamKind::U64,
                doc: "seed for victim=random (default 0)",
            },
            ParamSpec {
                key: "cluster",
                kind: ParamKind::U64,
                doc: "cores per cluster for victim=hier (default 2)",
            },
            ParamSpec {
                key: "steal_cycles",
                kind: ParamKind::U64,
                doc: "cycles a successful steal occupies the thief core (default 0 = \
                      the paper's free-steal model)",
            },
            ParamSpec {
                key: "fail_backoff",
                kind: ParamKind::U64,
                doc: "idle back-off cycles after a victim scan finds every deque \
                      empty (default 0 = re-probe at the next event)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        validate_ws_params(spec)
    }
}

impl PolicyFactory for WsFactory {
    fn build(&self, spec: &SchedulerSpec, cores: usize) -> Box<dyn SchedulerPolicy> {
        Box::new(WorkStealingPolicy::new(spec, cores))
    }
}

/// Largest `steal_cycles` or `fail_backoff` a spec may set: 2^32 cycles.
///
/// A price is added to the simulated clock at every steal or failed probe,
/// so an unbounded one would wrap `now + cost` and the per-core busy totals
/// in a release build; the cap also keeps every backoff-wake time inside
/// the event queue's packed range (`pdfws_memsys::queue::TIME_LIMIT`).
const MAX_STEAL_PRICE_CYCLES: u64 = 1 << 32;

/// The checks every spec carrying the work-stealing parameters passes
/// (`ws`, `hybrid` and `adaptive`; [`WorkStealingPolicy::new`] decodes them).
fn validate_ws_params(spec: &Spec) -> Result<(), String> {
    // An inert `seed` or `cluster` would still produce a distinct spec
    // string: reject it so identical runs cannot masquerade as different
    // schedulers.
    if spec.param("seed").is_some() && spec.param("victim") != Some("random") {
        return Err("'seed' only affects victim=random; add victim=random or drop seed".into());
    }
    if spec.param("cluster").is_some() && spec.param("victim") != Some("hier") {
        return Err("'cluster' only affects victim=hier; add victim=hier or drop cluster".into());
    }
    if spec.param("cluster") == Some("0") {
        return Err("'cluster' must be at least 1 core".into());
    }
    for key in ["steal_cycles", "fail_backoff"] {
        if spec
            .u64_param(key)
            .is_some_and(|cycles| cycles > MAX_STEAL_PRICE_CYCLES)
        {
            return Err(format!(
                "'{key}' must be at most {MAX_STEAL_PRICE_CYCLES} cycles (2^32)"
            ));
        }
    }
    Ok(())
}

struct StaticFactory;

impl SpecFamily for StaticFactory {
    fn name(&self) -> &'static str {
        "static"
    }
    fn doc(&self) -> &'static str {
        "Static round-robin partitioning with per-core FIFO queues (SMP baseline)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }
}

impl PolicyFactory for StaticFactory {
    fn build(&self, spec: &SchedulerSpec, cores: usize) -> Box<dyn SchedulerPolicy> {
        Box::new(StaticPartitionPolicy::new(spec, cores))
    }
}

struct HybridFactory;

impl SpecFamily for HybridFactory {
    fn name(&self) -> &'static str {
        "hybrid"
    }
    fn doc(&self) -> &'static str {
        "PDF while the ready queue is shallow, per-core deques (WS) once it exceeds the threshold"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "threshold",
                kind: ParamKind::U64,
                doc: "ready-queue depth that triggers the PDF -> deques switch \
                      (default: 2 x cores)",
            },
            ParamSpec {
                key: "victim",
                kind: ParamKind::Choice(&["round-robin", "random", "hier"]),
                doc: "victim selection for the post-switch deque mode (as in ws)",
            },
            ParamSpec {
                key: "steal",
                kind: ParamKind::Choice(&["one", "half"]),
                doc: "steal granularity for the post-switch deque mode (as in ws)",
            },
            ParamSpec {
                key: "seed",
                kind: ParamKind::U64,
                doc: "seed for victim=random (default 0)",
            },
            ParamSpec {
                key: "cluster",
                kind: ParamKind::U64,
                doc: "cores per cluster for victim=hier (default 2)",
            },
            ParamSpec {
                key: "steal_cycles",
                kind: ParamKind::U64,
                doc: "cycles a successful post-switch steal occupies the thief (default 0)",
            },
            ParamSpec {
                key: "fail_backoff",
                kind: ParamKind::U64,
                doc: "post-switch idle back-off cycles after an all-empty victim scan \
                      (default 0)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        validate_ws_params(spec)
    }
}

impl PolicyFactory for HybridFactory {
    fn build(&self, spec: &SchedulerSpec, cores: usize) -> Box<dyn SchedulerPolicy> {
        Box::new(HybridPolicy::new(spec, cores))
    }
}

struct AdaptiveFactory;

impl SpecFamily for AdaptiveFactory {
    fn name(&self) -> &'static str {
        "adaptive"
    }
    fn doc(&self) -> &'static str {
        "self-tuning hybrid: the PDF -> deques threshold tracks windowed MPKI + \
         migration pressure, hot deque phases drain back to the global queue"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "threshold",
                kind: ParamKind::U64,
                doc: "initial PDF -> deques switch threshold (default: 2 x cores; \
                      tuned online from there)",
            },
            ParamSpec {
                key: "window",
                kind: ParamKind::U64,
                doc: "feedback-window length in simulated cycles (default 4096; \
                      must be non-zero)",
            },
            ParamSpec {
                key: "step",
                kind: ParamKind::U64,
                doc: "threshold adjustment per out-of-band window (default 1)",
            },
            ParamSpec {
                key: "lo",
                kind: ParamKind::PositiveF64,
                doc: "lower pressure band in MPKI + migrations/KI; below it the \
                      threshold decays towards deque mode (default 0.5)",
            },
            ParamSpec {
                key: "hi",
                kind: ParamKind::PositiveF64,
                doc: "upper pressure band; above it the threshold grows and a \
                      running deque phase is abandoned (default 4)",
            },
            ParamSpec {
                key: "victim",
                kind: ParamKind::Choice(&["round-robin", "random", "hier"]),
                doc: "victim selection for the deque mode (as in ws)",
            },
            ParamSpec {
                key: "steal",
                kind: ParamKind::Choice(&["one", "half"]),
                doc: "steal granularity for the deque mode (as in ws)",
            },
            ParamSpec {
                key: "seed",
                kind: ParamKind::U64,
                doc: "seed for victim=random (default 0)",
            },
            ParamSpec {
                key: "cluster",
                kind: ParamKind::U64,
                doc: "cores per cluster for victim=hier (default 2)",
            },
            ParamSpec {
                key: "steal_cycles",
                kind: ParamKind::U64,
                doc: "cycles a successful deque-mode steal occupies the thief (default 0)",
            },
            ParamSpec {
                key: "fail_backoff",
                kind: ParamKind::U64,
                doc: "deque-mode idle back-off cycles after an all-empty victim scan \
                      (default 0)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        validate_ws_params(spec)?;
        if spec.param("window") == Some("0") {
            return Err("the feedback 'window' must be non-zero".into());
        }
        let lo = spec.f64_param("lo").unwrap_or(crate::adaptive::DEFAULT_LO);
        let hi = spec.f64_param("hi").unwrap_or(crate::adaptive::DEFAULT_HI);
        if lo > hi {
            return Err(format!(
                "the pressure band needs lo <= hi, got lo={lo} hi={hi}"
            ));
        }
        Ok(())
    }
}

impl PolicyFactory for AdaptiveFactory {
    fn build(&self, spec: &SchedulerSpec, cores: usize) -> Box<dyn SchedulerPolicy> {
        // The two-mode policy with the tuner and a threshold floored at 1.
        Box::new(HybridPolicy::new(spec, cores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::make_policy;
    use pdfws_spec::SpecErrorKind;

    #[test]
    fn global_registry_knows_the_builtins() {
        let names = Registry::global().names();
        for name in ["adaptive", "hybrid", "pdf", "static", "ws"] {
            assert!(names.contains(&name.to_string()), "{names:?}");
        }
    }

    #[test]
    fn build_resolves_each_builtin_spec() {
        let mut specs: Vec<String> = [
            "pdf",
            "ws",
            "ws:steal=half",
            "ws:steal_cycles=64,fail_backoff=128",
            "ws:victim=hier,cluster=4",
            "static",
            "hybrid:threshold=3",
            "hybrid:threshold=3,steal_cycles=32",
            "adaptive",
            "adaptive:threshold=6,window=1024,step=2,lo=0.25,hi=8",
            "adaptive:victim=hier,cluster=4,steal_cycles=64",
        ]
        .map(String::from)
        .to_vec();
        // The work-stealing parameter grid, under every family that takes it.
        for family in ["ws", "hybrid", "adaptive"] {
            for victim in [
                "victim=round-robin",
                "victim=random",
                "victim=random,seed=7",
                "victim=hier,cluster=1",
                "victim=hier,cluster=2",
                "victim=hier,cluster=4",
            ] {
                for steal in ["steal=one", "steal=half"] {
                    for prices in [
                        "steal_cycles=0,fail_backoff=0",
                        "steal_cycles=64,fail_backoff=128",
                    ] {
                        specs.push(format!("{family}:{victim},{steal},{prices}"));
                    }
                }
            }
        }
        for s in &specs {
            let spec: SchedulerSpec = s.parse().unwrap();
            let policy = make_policy(&spec, 4);
            assert_eq!(policy.name(), spec.canonical(), "{s}");
        }
    }

    #[test]
    fn help_lists_policies_and_parameters() {
        let help = Registry::global().help();
        assert!(help.contains("pdf"), "{help}");
        assert!(help.contains("victim=<round-robin|random|hier>"), "{help}");
        assert!(help.contains("threshold=<u64>"), "{help}");
        assert!(help.contains("steal_cycles=<u64>"), "{help}");
        assert!(help.contains("fail_backoff=<u64>"), "{help}");
        assert!(help.contains("cluster=<u64>"), "{help}");
        assert!(help.contains("adaptive"), "{help}");
        assert!(help.contains("lo=<f64>0>"), "{help}");
    }

    #[test]
    fn inert_cluster_and_bad_bands_are_rejected() {
        for s in ["ws:cluster=4", "hybrid:cluster=2", "adaptive:cluster=8"] {
            let err = s.parse::<SchedulerSpec>().unwrap_err();
            assert!(
                matches!(err.kind, SpecErrorKind::InvalidCombination { .. }),
                "{s}"
            );
            assert!(err.to_string().contains("victim=hier"), "{err}");
        }
        let err = "ws:victim=hier,cluster=0"
            .parse::<SchedulerSpec>()
            .unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        let err = "adaptive:window=0".parse::<SchedulerSpec>().unwrap_err();
        assert!(err.to_string().contains("non-zero"), "{err}");
        let err = "adaptive:lo=5,hi=2".parse::<SchedulerSpec>().unwrap_err();
        assert!(err.to_string().contains("lo <= hi"), "{err}");
        // The band endpoints are individually typed as positive reals.
        let err = "adaptive:hi=0".parse::<SchedulerSpec>().unwrap_err();
        assert!(err.to_string().contains("positive real"), "{err}");
    }

    #[test]
    fn custom_factories_extend_the_spec_grammar() {
        struct Lifo;
        impl SpecFamily for Lifo {
            fn name(&self) -> &'static str {
                "test-lifo"
            }
            fn doc(&self) -> &'static str {
                "global LIFO stack (registered by a unit test)"
            }
            fn params(&self) -> &'static [ParamSpec] {
                &[]
            }
        }
        impl PolicyFactory for Lifo {
            fn build(&self, spec: &SchedulerSpec, _cores: usize) -> Box<dyn SchedulerPolicy> {
                // A LIFO stack is just the static policy on one queue for the
                // purposes of this test; realism is not the point here.
                Box::new(StaticPartitionPolicy::new(spec, 1))
            }
        }
        Registry::global().register(Arc::new(Lifo));
        let spec: SchedulerSpec = "test-lifo".parse().unwrap();
        assert_eq!(make_policy(&spec, 8).name(), "test-lifo");
        // Unknown params still rejected for custom policies.
        let err = "test-lifo:x=1".parse::<SchedulerSpec>().unwrap_err();
        assert!(err.to_string().contains("takes no parameters"), "{err}");
    }

    #[test]
    fn separate_registries_are_independent() {
        let reg = Registry::empty();
        assert!(reg.names().is_empty());
        let err = reg.parse("pdf").unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownName { .. }));
    }
}
