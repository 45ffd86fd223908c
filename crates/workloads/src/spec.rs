//! `WorkloadSpec` — the open, parameterized description of a benchmark
//! program, mirroring the scheduler side's `SchedulerSpec`.
//!
//! A spec is the system's currency for "which workload": a registered name
//! plus typed `key=value` parameters, round-trippable through
//! [`std::fmt::Display`] and [`std::str::FromStr`]:
//!
//! ```text
//! mergesort                         the Figure-1 merge sort at test-size defaults
//! mergesort:grain=64,n=262144       parameterized instance
//! mergesort:coarse=32,n=1048576     the coarse-grained SMP-style variant
//! spmv:nnz-per-row=8,rows=65536     bandwidth-limited irregular
//! synthetic:depth=12,fanout=2       the tunable fork-join tree
//! matmul:coarse=4,n=256             coarse-grained blocked matmul
//! ```
//!
//! Parsing validates the name and every parameter against the
//! [`WorkloadRegistry`]: unknown workloads
//! and unknown or malformed parameters are rejected at parse time with
//! messages that list what *would* have been accepted, and each factory's
//! structural constraints (`matmul`'s power-of-two dimension, `lu`'s
//! block-divisibility) are checked before any DAG is built.  The stored form
//! is canonical — parameters sorted by key, numeric values normalised — so
//! `to_string()` followed by `parse()` is the identity, and the same instance
//! renders identically in reports, sweep tables and job-stream records.
//!
//! Every parameter has a default equal to the workload's `small()`
//! constructor, so the bare name builds exactly the instance the unit tests
//! exercise.  A registered workload is built only from its spec.

use crate::registry::{WorkloadDomain, WorkloadRegistry};
use crate::Workload;
use pdfws_spec::{spec_type, Spec};
use std::collections::BTreeMap;

/// Errors from parsing or validating a [`WorkloadSpec`] (the shared
/// `pdfws-spec` error with the workload vocabulary attached).
pub type WorkloadSpecError = pdfws_spec::SpecError;

spec_type! {
    /// A parsed, validated workload description: registered name +
    /// parameters.
    ///
    /// Construct one by parsing (`"mergesort:n=4096".parse()`) or via
    /// [`WorkloadSpec::with_param`].  Every parsed spec validates against the
    /// global [`WorkloadRegistry`], so it is always resolvable into a
    /// workload object with [`WorkloadSpec::build`].
    pub struct WorkloadSpec(WorkloadDomain);
}

impl WorkloadSpec {
    /// Internal: build a spec that is already known valid (used by the
    /// registry's scale/reseed hooks).
    pub(crate) fn known_valid(name: &str, params: BTreeMap<String, String>) -> Self {
        WorkloadSpec(Spec::known_valid(name, params))
    }

    /// A bare, *unvalidated* spec for an ad-hoc workload that is not in the
    /// registry (e.g. a hand-built DAG).  It renders and compares like any
    /// other spec but will not re-parse unless the name gets registered.
    pub fn unregistered(name: impl Into<String>) -> Self {
        WorkloadSpec(Spec::known_valid(name, BTreeMap::new()))
    }

    /// Instantiate the workload this spec describes, via the global
    /// [`WorkloadRegistry`].
    ///
    /// # Panics
    ///
    /// Panics if the spec's name is not (or no longer) registered — parsed
    /// specs are validated at construction, so this only affects
    /// [`WorkloadSpec::unregistered`] values.
    pub fn build(&self) -> Box<dyn Workload> {
        WorkloadRegistry::global().resolve(self).build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_names_parse_and_display() {
        for name in ["mergesort", "quicksort", "spmv", "scan", "synthetic"] {
            let spec: WorkloadSpec = name.parse().unwrap();
            assert_eq!(spec.name(), name);
            assert_eq!(spec.to_string(), name);
        }
    }

    #[test]
    fn parameters_are_canonicalised_sorted_by_key() {
        let spec: WorkloadSpec = "mergesort:n=4096,grain=064".parse().unwrap();
        assert_eq!(spec.to_string(), "mergesort:grain=64,n=4096");
        let again: WorkloadSpec = spec.to_string().parse().unwrap();
        assert_eq!(again, spec);
        assert_eq!(spec.u64_param("grain"), Some(64));
        assert_eq!(spec.u64_param("leaf-instr"), None);
    }

    #[test]
    fn unknown_workloads_and_params_are_rejected_helpfully() {
        let err = "bogosort".parse::<WorkloadSpec>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown workload 'bogosort'"), "{msg}");
        assert!(msg.contains("known workloads"), "{msg}");
        assert!(msg.contains("mergesort"), "{msg}");

        let err = "mergesort:keys=4".parse::<WorkloadSpec>().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("workload 'mergesort' has no parameter 'keys'"),
            "{msg}"
        );
        assert!(msg.contains("grain"), "{msg}");

        let err = "mergesort:n=lots".parse::<WorkloadSpec>().unwrap_err();
        assert!(err.to_string().contains("unsigned integer"), "{err}");
    }

    #[test]
    fn structural_constraints_are_checked_at_parse_time() {
        let err = "matmul:n=48".parse::<WorkloadSpec>().unwrap_err();
        assert!(err.to_string().contains("power of two"), "{err}");
        let err = "lu:block=48".parse::<WorkloadSpec>().unwrap_err();
        assert!(err.to_string().contains("multiple"), "{err}");
        let err = "mergesort:n=1".parse::<WorkloadSpec>().unwrap_err();
        assert!(err.to_string().contains("at least"), "{err}");
        // Zero grains and chunk counts are parse errors, never clamped.
        for (raw, key) in [
            ("mergesort:coarse=0", "coarse"),
            ("mergesort:grain=0", "grain"),
            ("quicksort:grain=0", "grain"),
            ("matmul:grain=0", "grain"),
            ("matmul:coarse=0", "coarse"),
        ] {
            let err = raw.parse::<WorkloadSpec>().unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("'{key}' must be at least 1")),
                "{raw}: {err}"
            );
        }
    }

    #[test]
    fn fractions_parse_and_normalise() {
        let spec: WorkloadSpec = "synthetic:shared-fraction=0.50".parse().unwrap();
        assert_eq!(spec.to_string(), "synthetic:shared-fraction=0.5");
        assert_eq!(spec.f64_param("shared-fraction"), Some(0.5));
        let err = "synthetic:shared-fraction=1.5"
            .parse::<WorkloadSpec>()
            .unwrap_err();
        assert!(err.to_string().contains("between 0 and 1"), "{err}");
    }

    #[test]
    fn with_param_revalidates() {
        let spec: WorkloadSpec = "scan".parse().unwrap();
        let spec = spec.with_param("n", "2048").unwrap();
        assert_eq!(spec.to_string(), "scan:n=2048");
        let err = spec.with_param("n", "minus-one").unwrap_err();
        assert!(err.to_string().contains("unsigned integer"), "{err}");
    }

    #[test]
    fn unregistered_specs_render_but_do_not_parse() {
        let spec = WorkloadSpec::unregistered("adhoc-dag");
        assert_eq!(spec.to_string(), "adhoc-dag");
        assert!("adhoc-dag".parse::<WorkloadSpec>().is_err());
    }

    #[test]
    fn empty_specs_are_rejected() {
        use pdfws_spec::SpecErrorKind;
        for raw in ["", "   ", ":n=1"] {
            let err = raw.parse::<WorkloadSpec>().unwrap_err();
            assert_eq!(err.kind, SpecErrorKind::Empty, "{raw:?}");
            assert_eq!(err.to_string(), "empty workload spec");
        }
    }
}
