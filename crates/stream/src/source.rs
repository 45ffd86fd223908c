//! Job sources: deterministic sampling of weighted workload-spec mixes.
//!
//! A [`JobMix`] is a weighted set of **workload spec strings**
//! (`"spmv:rows=256"`, `"compute-kernel:items=1024"`, …) — the job-stream
//! configuration is expressed in the same open, string-addressable
//! [`WorkloadSpec`] grammar the rest of the system uses, so any registered
//! workload (including user-registered ones) can serve traffic without
//! touching this crate.
//!
//! Per sampled job the mix draws a size multiplier in `[1, 4]` and a fresh
//! seed, and applies them through the workload factory's
//! [`scale`](pdfws_workloads::WorkloadFactory::scale) and
//! [`reseed`](pdfws_workloads::WorkloadFactory::reseed) hooks — the sampler
//! does not need to know which parameter carries a workload's problem size.
//! The resulting stream is heterogeneous in job size, and each job carries
//! the exact canonical spec it was built from.  Sampling is a pure
//! function of the mix and a seed, so a fixed seed reproduces the exact same
//! job sequence — the property the determinism tests pin down.

use crate::job::StreamJob;
use pdfws_workloads::{WorkloadRegistry, WorkloadSpec, WorkloadSpecError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A weighted mix of workload specs; the stream's traffic model.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMix {
    /// Mix name used in tables ("class-a", "class-b", "mixed").
    pub name: String,
    /// (spec, weight) pairs; the tenant id of a sampled job is the index of
    /// its spec in this list.
    entries: Vec<(WorkloadSpec, u32)>,
    /// SLO class label per entry (same order as `entries`); `"none"` unless
    /// [`JobMix::with_slo_classes`] declared otherwise.
    slo_classes: Vec<String>,
}

impl JobMix {
    /// Build a mix from (workload spec, weight) pairs.  Every spec must
    /// resolve through the global registry when the mix generates jobs —
    /// parsed specs always do; [`WorkloadSpec::unregistered`] values only
    /// after their name is registered.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or all weights are zero.
    pub fn new(name: impl Into<String>, entries: Vec<(WorkloadSpec, u32)>) -> Self {
        assert!(!entries.is_empty(), "a job mix needs at least one template");
        assert!(
            entries.iter().any(|&(_, w)| w > 0),
            "a job mix needs a non-zero weight"
        );
        let slo_classes = vec!["none".to_string(); entries.len()];
        JobMix {
            name: name.into(),
            entries,
            slo_classes,
        }
    }

    /// Declare one SLO class label per entry (tenant), in entry order — the
    /// label each sampled job (and its [`JobRecord`](crate::JobRecord))
    /// carries.  The serving tier uses this to cut JSONL traces per class.
    ///
    /// # Panics
    ///
    /// Panics if `classes` does not have exactly one label per entry.
    pub fn with_slo_classes(mut self, classes: &[&str]) -> Self {
        assert_eq!(
            classes.len(),
            self.entries.len(),
            "need exactly one SLO class per mix entry"
        );
        self.slo_classes = classes.iter().map(|c| c.to_string()).collect();
        self
    }

    /// The SLO class labels, in tenant (entry) order.
    pub fn slo_classes(&self) -> &[String] {
        &self.slo_classes
    }

    /// Build a mix from weighted spec *strings*, validating each against the
    /// global workload registry — the form job-stream configuration files and
    /// command lines use.
    ///
    /// ```
    /// use pdfws_stream::JobMix;
    /// let mix = JobMix::from_specs("custom", &[("spmv:rows=256", 2), ("scan", 1)]).unwrap();
    /// assert_eq!(mix.tenants(), 2);
    /// assert!(JobMix::from_specs("typo", &[("bogosort", 1)]).is_err());
    /// ```
    pub fn from_specs(
        name: impl Into<String>,
        entries: &[(&str, u32)],
    ) -> Result<Self, WorkloadSpecError> {
        let parsed = entries
            .iter()
            .map(|&(s, w)| Ok((s.parse::<WorkloadSpec>()?, w)))
            .collect::<Result<Vec<_>, WorkloadSpecError>>()?;
        Ok(JobMix::new(name, parsed))
    }

    /// The exact (workload spec, weight) entries of [`JobMix::class_a`] —
    /// exposed so consumers that must name the mix's spec strings verbatim
    /// (the replication suite's stream claim) cannot drift from the built-in
    /// mix.
    pub const CLASS_A_ENTRIES: &'static [(&'static str, u32)] = &[
        ("spmv:rows=256", 2),
        ("hashjoin", 2),
        ("mergesort:n=1024", 1),
    ];

    /// The paper's class-A traffic: bandwidth-limited irregular programs plus
    /// divide-and-conquer sorts — the programs PDF's constructive cache
    /// sharing helps most.
    pub fn class_a() -> Self {
        JobMix::from_specs("class-a", Self::CLASS_A_ENTRIES).expect("built-in specs parse")
    }

    /// The paper's class-B traffic: cache-neutral programs (streaming scans
    /// and compute-bound kernels) where PDF and WS should tie.
    pub fn class_b() -> Self {
        JobMix::from_specs(
            "class-b",
            &[("compute-kernel:items=1024", 2), ("scan:n=2048", 1)],
        )
        .expect("built-in specs parse")
    }

    /// Mixed tenancy: class-A and class-B jobs interleaved, the realistic
    /// serving scenario.
    pub fn mixed() -> Self {
        JobMix::from_specs(
            "mixed",
            &[
                ("spmv:rows=256", 1),
                ("hashjoin", 1),
                ("compute-kernel:items=1024", 1),
                ("scan:n=2048", 1),
            ],
        )
        .expect("built-in specs parse")
    }

    /// The weighted entries, in tenant order.
    pub fn entries(&self) -> impl Iterator<Item = (&WorkloadSpec, u32)> {
        self.entries.iter().map(|(s, w)| (s, *w))
    }

    /// Number of distinct templates (== number of tenants).
    pub fn tenants(&self) -> usize {
        self.entries.len()
    }

    /// Generate `n` jobs deterministically from `seed`.  Arrival cycles are
    /// left at 0; the arrival process assigns them.
    ///
    /// # Panics
    ///
    /// Panics if a mix entry's workload has been removed from the registry
    /// since the mix was built.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<StreamJob> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5712_EA11_0B5E_11ED);
        let total_weight: u64 = self.entries.iter().map(|&(_, w)| w as u64).sum();
        (0..n as u64)
            .map(|id| {
                let mut pick = rng.gen_range(0..total_weight);
                let mut tenant = 0usize;
                for (i, &(_, w)) in self.entries.iter().enumerate() {
                    if pick < w as u64 {
                        tenant = i;
                        break;
                    }
                    pick -= w as u64;
                }
                let base = &self.entries[tenant].0;
                let scale = rng.gen_range(1u64..=4);
                let job_seed = rng.gen::<u64>();
                let factory = WorkloadRegistry::global()
                    .factory(base.name())
                    .unwrap_or_else(|| {
                        panic!(
                            "workload '{}' is not in the registry (an unregistered ad-hoc \
                             spec, or removed since the mix was built)",
                            base.name()
                        )
                    });
                let spec = factory.reseed(&factory.scale(base, scale), job_seed);
                let workload = spec.build();
                let dag = std::sync::Arc::new(workload.build_dag());
                StreamJob {
                    id,
                    tenant: tenant as u32,
                    slo_class: self.slo_classes[tenant].clone(),
                    class: workload.class(),
                    workload: spec,
                    dag,
                    arrival_cycle: 0,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_workloads::WorkloadClass;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mix = JobMix::mixed();
        let a = mix.generate(12, 42);
        let b = mix.generate(12, 42);
        assert_eq!(a, b);
        let c = mix.generate(12, 43);
        assert_ne!(a, c, "different seeds must produce different streams");
    }

    #[test]
    fn jobs_carry_valid_dags_and_canonical_specs() {
        for mix in [JobMix::class_a(), JobMix::class_b(), JobMix::mixed()] {
            let jobs = mix.generate(8, 7);
            assert_eq!(jobs.len(), 8);
            for (i, job) in jobs.iter().enumerate() {
                assert_eq!(job.id, i as u64);
                assert!((job.tenant as usize) < mix.tenants());
                assert!(!job.dag.is_empty(), "{}", job.workload);
                assert!(job.dag.work() > 0);
                // Each job's spec string re-parses to the identical spec …
                let reparsed: WorkloadSpec = job.workload.to_string().parse().unwrap();
                assert_eq!(reparsed, job.workload);
                // … and rebuilds the identical DAG.
                assert_eq!(*job.dag, reparsed.build().build_dag(), "{}", job.workload);
            }
        }
    }

    #[test]
    fn class_a_streams_are_bandwidth_heavy() {
        let jobs = JobMix::class_a().generate(16, 1);
        assert!(jobs.iter().all(|j| matches!(
            j.class,
            WorkloadClass::BandwidthLimitedIrregular | WorkloadClass::DivideAndConquer
        )));
        let names: std::collections::HashSet<_> = jobs.iter().map(|j| j.workload.name()).collect();
        assert!(names.len() >= 2, "mix collapsed to one template: {names:?}");
    }

    #[test]
    fn sizes_are_heterogeneous() {
        let jobs = JobMix::class_b().generate(24, 3);
        let works: std::collections::HashSet<u64> = jobs.iter().map(|j| j.dag.work()).collect();
        assert!(works.len() > 4, "job sizes should vary");
    }

    #[test]
    fn custom_spec_mixes_drive_any_registered_workload() {
        let mix = JobMix::from_specs("sorts", &[("quicksort:n=600", 1), ("mergesort", 1)]).unwrap();
        let jobs = mix.generate(8, 5);
        assert!(jobs
            .iter()
            .all(|j| matches!(j.workload.name(), "quicksort" | "mergesort")));
    }

    #[test]
    fn unknown_specs_are_rejected_at_mix_build_time() {
        let err = JobMix::from_specs("broken", &[("spmv:rows=abc", 1)]).unwrap_err();
        assert!(err.to_string().contains("unsigned integer"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one template")]
    fn empty_mixes_are_rejected() {
        let _ = JobMix::new("empty", vec![]);
    }
}
