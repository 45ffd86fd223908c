//! `SchedulerSpec` — the open, parameterized description of a scheduler.
//!
//! A spec is the system's currency for "which scheduler": a policy name plus
//! typed `key=value` parameters, round-trippable through [`std::fmt::Display`]
//! and [`std::str::FromStr`]:
//!
//! ```text
//! pdf                                  the classic Parallel Depth First policy
//! ws                                   work stealing, round-robin victims
//! ws:seed=7,steal=half,victim=random   parameterized work stealing
//! static                               static round-robin partitioning
//! hybrid:threshold=2                   PDF until ready depth exceeds 2, then deques
//! ```
//!
//! Parsing validates the policy name and every parameter against the
//! [`registry`](crate::registry): unknown policies and unknown or malformed
//! parameters are rejected at parse time with messages that list what *would*
//! have been accepted.  The stored form is canonical — parameters are sorted
//! by key and numeric values are normalised — so `to_string()` followed by
//! `parse()` is the identity, and two equal specs render identically in
//! reports and job-stream records.

use crate::registry::SchedulerDomain;
use pdfws_spec::{spec_type, Spec};
use std::collections::BTreeMap;

/// Errors from parsing or validating a [`SchedulerSpec`] (the shared
/// [`pdfws_spec::SpecError`], worded with the scheduler vocabulary; match on
/// its [`kind`](pdfws_spec::SpecError::kind)).
pub type SpecError = pdfws_spec::SpecError;

spec_type! {
    /// A parsed, validated scheduler description: policy name + parameters.
    ///
    /// Construct one with the named constructors ([`SchedulerSpec::pdf`],
    /// [`SchedulerSpec::ws`], ...), by parsing (`"ws:steal=half".parse()`),
    /// or via [`SchedulerSpec::with_param`].  Every constructor validates
    /// against the global [`Registry`](crate::Registry), so a
    /// `SchedulerSpec` value is always resolvable into a policy object.
    pub struct SchedulerSpec(SchedulerDomain);
}

impl SchedulerSpec {
    /// Internal: a spec that is already known valid (the named constructors).
    pub(crate) fn known_valid(policy: &str, params: BTreeMap<String, String>) -> Self {
        SchedulerSpec(Spec::known_valid(policy, params))
    }

    /// The classic Parallel Depth First policy (no parameters).
    pub fn pdf() -> Self {
        Self::known_valid("pdf", BTreeMap::new())
    }

    /// Classic work stealing: round-robin victim scan, steal-one (no parameters).
    pub fn ws() -> Self {
        Self::known_valid("ws", BTreeMap::new())
    }

    /// Static round-robin partitioning (no parameters).
    pub fn static_partition() -> Self {
        Self::known_valid("static", BTreeMap::new())
    }

    /// The spec of the sequential baseline: on one core the PDF schedule *is*
    /// the sequential depth-first execution, so the baseline is `pdf`.
    pub fn sequential_baseline() -> Self {
        Self::pdf()
    }

    /// The two schedulers the paper compares: `[pdf, ws]`.
    pub fn paper_pair() -> [SchedulerSpec; 2] {
        [Self::pdf(), Self::ws()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_spec::SpecErrorKind;

    #[test]
    fn bare_policy_names_parse_and_display() {
        for name in ["pdf", "ws", "static", "hybrid"] {
            let spec: SchedulerSpec = name.parse().unwrap();
            assert_eq!(spec.name(), name);
            assert_eq!(spec.to_string(), name);
        }
    }

    #[test]
    fn parameters_are_canonicalised_sorted_by_key() {
        let spec: SchedulerSpec = "ws:victim=random,steal=half,seed=7".parse().unwrap();
        assert_eq!(spec.to_string(), "ws:seed=7,steal=half,victim=random");
        // Round trip through the canonical form.
        let again: SchedulerSpec = spec.to_string().parse().unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn numeric_values_are_normalised() {
        let a: SchedulerSpec = "hybrid:threshold=007".parse().unwrap();
        let b: SchedulerSpec = "hybrid:threshold=7".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "hybrid:threshold=7");
        assert_eq!(a.u64_param("threshold"), Some(7));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let spec: SchedulerSpec = "  ws : victim = random , seed = 3 ".parse().unwrap();
        assert_eq!(spec.to_string(), "ws:seed=3,victim=random");
    }

    #[test]
    fn unknown_policy_lists_known_names() {
        let err = "bogus".parse::<SchedulerSpec>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown scheduler policy 'bogus'"), "{msg}");
        assert!(msg.contains("pdf"), "{msg}");
        assert!(msg.contains("ws"), "{msg}");
        assert!(msg.contains("hybrid"), "{msg}");
    }

    #[test]
    fn unknown_parameter_lists_known_keys() {
        let err = "ws:speed=9".parse::<SchedulerSpec>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("has no parameter 'speed'"), "{msg}");
        assert!(msg.contains("victim"), "{msg}");
        assert!(msg.contains("steal"), "{msg}");
        assert!(msg.contains("seed"), "{msg}");
    }

    #[test]
    fn parameterless_policies_reject_any_key() {
        for raw in ["static:chunk=4", "pdf:lag=4"] {
            let err = raw.parse::<SchedulerSpec>().unwrap_err();
            assert!(
                matches!(err.kind, SpecErrorKind::UnknownParam { .. }),
                "{err}"
            );
            assert!(err.to_string().contains("takes no parameters"), "{err}");
        }
    }

    #[test]
    fn malformed_and_duplicate_params_are_rejected() {
        let err = "ws:steal".parse::<SchedulerSpec>().unwrap_err();
        assert!(
            matches!(err.kind, SpecErrorKind::MalformedParam { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("expected key=value"), "{err}");
        let err = "ws:seed=1,seed=2".parse::<SchedulerSpec>().unwrap_err();
        assert!(
            matches!(err.kind, SpecErrorKind::DuplicateParam { .. }),
            "{err}"
        );
    }

    #[test]
    fn typed_values_are_checked() {
        let err = "hybrid:threshold=soon"
            .parse::<SchedulerSpec>()
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("invalid value 'soon'"), "{msg}");
        assert!(msg.contains("unsigned integer"), "{msg}");
        for raw in [
            "ws:victim=closest",
            "ws:victim=nearest",
            "hybrid:victim=nearest",
            "adaptive:victim=nearest",
        ] {
            let err = raw.parse::<SchedulerSpec>().unwrap_err();
            assert!(
                matches!(err.kind, SpecErrorKind::InvalidValue { .. }),
                "{err}"
            );
            let msg = err.to_string();
            assert!(msg.contains("one of round-robin, random, hier"), "{msg}");
        }
    }

    #[test]
    fn inert_parameter_combinations_are_rejected() {
        let err = "ws:seed=7".parse::<SchedulerSpec>().unwrap_err();
        assert!(
            matches!(err.kind, SpecErrorKind::InvalidCombination { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("victim=random"), "{err}");
        let err = "hybrid:threshold=2,seed=7"
            .parse::<SchedulerSpec>()
            .unwrap_err();
        assert!(err.to_string().contains("victim=random"), "{err}");
        // With the random victim the seed is meaningful and accepted.
        assert!("ws:victim=random,seed=7".parse::<SchedulerSpec>().is_ok());
        assert!("hybrid:victim=random,seed=7,steal=half"
            .parse::<SchedulerSpec>()
            .is_ok());
    }

    #[test]
    fn empty_specs_are_rejected() {
        for raw in ["", "  ", ":threshold=1"] {
            let err = raw.parse::<SchedulerSpec>().unwrap_err();
            assert_eq!(err.kind, SpecErrorKind::Empty, "{raw:?}");
            assert_eq!(err.to_string(), "empty scheduler spec");
        }
    }

    #[test]
    fn with_param_revalidates() {
        let spec = SchedulerSpec::ws().with_param("steal", "half").unwrap();
        assert_eq!(spec.to_string(), "ws:steal=half");
        let err = SchedulerSpec::ws().with_param("steal", "most").unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::InvalidValue { .. }));
    }

    #[test]
    fn named_constructors_match_parsed_specs() {
        assert_eq!(SchedulerSpec::pdf(), "pdf".parse().unwrap());
        assert_eq!(SchedulerSpec::ws(), "ws".parse().unwrap());
        assert_eq!(SchedulerSpec::static_partition(), "static".parse().unwrap());
        assert_eq!(SchedulerSpec::sequential_baseline(), SchedulerSpec::pdf());
        assert_eq!(SchedulerSpec::paper_pair().len(), 2);
    }
}
