//! The stream-experiment builder: one job stream × several schedulers.
//!
//! [`StreamExperiment`] is the serving-shaped sibling of a
//! [`SweepGrid`](crate::sweep::SweepGrid): instead of sweeping
//! (cores × scheduler) cells over one DAG, it drives one *stream* of DAG jobs
//! through each requested scheduler on the simulated backend and reports
//! latency and throughput per scheduler.

use crate::experiment::ExperimentError;
use crate::sweep::SweepRunner;
use pdfws_metrics::{Series, Table};
use pdfws_schedulers::SchedulerSpec;
use pdfws_stream::{
    run_stream_sim_with_jobs, validate_stream_cfg, ArrivalSpec, JobMix, StreamConfig,
    StreamOutcome, StreamSummary,
};

/// Builder for one job-stream experiment.
///
/// Wraps one [`StreamConfig`] (whose `scheduler` field is overridden per run)
/// so every stream knob has exactly one home; the builder methods below are a
/// fluent veneer over it.  The per-scheduler streams are independent seeded
/// simulations, so they execute through the same [`SweepRunner`] cell
/// substrate as DAG sweeps — one scheduler per cell, deterministic for every
/// thread count.
#[derive(Debug, Clone)]
pub struct StreamExperiment {
    mix: JobMix,
    jobs: usize,
    schedulers: Vec<SchedulerSpec>,
    config: StreamConfig,
    runner: SweepRunner,
}

impl StreamExperiment {
    /// Start a stream experiment over a job mix.  Defaults: 16 jobs, 8 cores,
    /// the paper's two schedulers, [`StreamConfig::new`]'s stream knobs
    /// (Poisson arrivals at 40 jobs/Mcycle, 4 slots), and
    /// [`SweepRunner::from_env`] threading.
    pub fn new(mix: JobMix) -> Self {
        StreamExperiment {
            mix,
            jobs: 16,
            schedulers: SchedulerSpec::paper_pair().to_vec(),
            config: StreamConfig::new(8, SchedulerSpec::pdf()),
            runner: SweepRunner::from_env(),
        }
    }

    /// Number of jobs to drive through the system.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Cores of the simulated CMP.
    pub fn cores(mut self, cores: usize) -> Self {
        self.config.cores = cores;
        self
    }

    /// Which schedulers to compare (any mix of registered specs).
    pub fn schedulers(mut self, specs: &[SchedulerSpec]) -> Self {
        self.schedulers = specs.to_vec();
        self
    }

    /// The arrival process: any registered [`ArrivalSpec`]
    /// (`poisson:rate=80`, `pareto:alpha=1.5,rate=80`, ...).
    pub fn arrivals(mut self, arrivals: ArrivalSpec) -> Self {
        self.config.arrivals = arrivals;
        self
    }

    /// Machine quantum per scheduling turn.
    pub fn quantum_cycles(mut self, quantum: u64) -> Self {
        self.config.quantum_cycles = quantum;
        self
    }

    /// Maximum co-resident jobs.
    pub fn max_concurrent(mut self, slots: usize) -> Self {
        self.config.max_concurrent = slots;
        self
    }

    /// Job-sampling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Arrival-generator seed (independent of the job-sampling
    /// [`seed`](Self::seed)).
    pub fn arrival_seed(mut self, seed: u64) -> Self {
        self.config.arrival_seed = seed;
        self
    }

    /// Memory-system model for the simulated machine, e.g.
    /// `"legacy".parse().unwrap()` (default: the configuration's component
    /// bus+DRAM model).
    pub fn memsys(mut self, spec: pdfws_memsys::MemSysSpec) -> Self {
        self.config.memsys = Some(spec.memsys_params());
        self
    }

    /// Run each scheduler's stream on its own worker thread (results are
    /// bit-identical for every thread count).
    pub fn threads(mut self, threads: usize) -> Self {
        self.runner = SweepRunner::new(threads);
        self
    }

    /// Run the stream once per requested scheduler (one runner cell each).
    ///
    /// The job stream is sampled **once** — every scheduler replays clones of
    /// the same jobs, whose DAGs are `Arc`-shared, so the comparison builds
    /// each job's DAG exactly one time no matter how many schedulers compete.
    pub fn run(self) -> Result<StreamReport, ExperimentError> {
        if self.schedulers.is_empty() {
            return Err(ExperimentError::NoSchedulers);
        }
        // Validate before sampling: a bad config must not cost a stream of
        // DAG builds first.
        validate_stream_cfg(&self.config)?;
        let jobs = self.mix.generate(self.jobs, self.config.seed);
        let results = self.runner.run_cells(self.schedulers.len(), |i| {
            let cfg = StreamConfig {
                scheduler: self.schedulers[i].clone(),
                ..self.config.clone()
            };
            run_stream_sim_with_jobs(jobs.clone(), &cfg)
        });
        let mut outcomes = Vec::with_capacity(results.len());
        for result in results {
            outcomes.push(result?);
        }
        Ok(StreamReport {
            mix: self.mix.name.clone(),
            outcomes,
        })
    }
}

/// Results of a stream experiment: one outcome per scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Name of the job mix that was served.
    pub mix: String,
    outcomes: Vec<StreamOutcome>,
}

impl StreamReport {
    /// All per-scheduler outcomes, in the order the schedulers were requested.
    pub fn outcomes(&self) -> &[StreamOutcome] {
        &self.outcomes
    }

    /// The outcome for one scheduler, if it was part of the experiment.
    pub fn find(&self, scheduler: &SchedulerSpec) -> Option<&StreamOutcome> {
        self.outcomes.iter().find(|o| o.scheduler == *scheduler)
    }

    /// Summary for one scheduler.
    pub fn summary(&self, scheduler: &SchedulerSpec) -> Option<StreamSummary> {
        self.find(scheduler).map(StreamOutcome::summary)
    }

    /// Render the per-scheduler summaries as one [`Table`]: one row per
    /// scheduler spec, one series per dashboard quantity (p50/p95/p99 sojourn
    /// in kcycles, p95 queueing delay, jobs per megacycle, mean per-job L2
    /// MPKI, peak co-residency).  This is the table the artifact renderers
    /// (`pdfws-report`) and the `job_stream` binary share.
    pub fn summary_table(&self) -> Table {
        let x: Vec<String> = self
            .outcomes
            .iter()
            .map(|o| o.scheduler.canonical())
            .collect();
        let summaries: Vec<StreamSummary> =
            self.outcomes.iter().map(StreamOutcome::summary).collect();
        let mut table = Table::new(
            format!("Job stream '{}': per-scheduler serving summary", self.mix),
            "scheduler",
            x,
        );
        let col = |name: &str, f: &dyn Fn(&StreamSummary) -> f64| {
            Series::new(name, summaries.iter().map(f).collect())
        };
        table.push_series(col("p50_sojourn_kcyc", &|s| s.sojourn.p50 / 1_000.0));
        table.push_series(col("p95_sojourn_kcyc", &|s| s.sojourn.p95 / 1_000.0));
        table.push_series(col("p99_sojourn_kcyc", &|s| s.sojourn.p99 / 1_000.0));
        table.push_series(col("p95_queue_kcyc", &|s| s.queue.p95 / 1_000.0));
        table.push_series(col("jobs_per_mcyc", &|s| s.jobs_per_mcycle));
        table.push_series(col("mean_l2_mpki", &|s| s.mean_l2_mpki));
        table.push_series(col("peak_concurrency", &|s| s.peak_concurrency as f64));
        table
    }

    /// Serialize every scheduler's per-job records as one JSONL document (the
    /// records carry both the scheduler and workload spec strings, so the
    /// streams stay distinguishable after concatenation).
    pub fn to_jsonl(&self) -> String {
        self.outcomes.iter().map(StreamOutcome::to_jsonl).collect()
    }

    /// Ratio of WS p95 sojourn to PDF p95 sojourn (> 1 means PDF serves the
    /// tail faster under this load).
    pub fn ws_over_pdf_p95(&self) -> Option<f64> {
        let pdf = self.summary(&SchedulerSpec::pdf())?;
        let ws = self.summary(&SchedulerSpec::ws())?;
        if pdf.sojourn.p95 <= 0.0 || ws.sojourn.p95 <= 0.0 {
            return None;
        }
        Some(ws.sojourn.p95 / pdf.sojourn.p95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_cmp_model::ModelError;

    fn quick() -> StreamExperiment {
        StreamExperiment::new(JobMix::class_b())
            .jobs(8)
            .cores(4)
            .quantum_cycles(5_000)
            .arrivals(ArrivalSpec::poisson(100.0))
            .arrival_seed(3)
    }

    #[test]
    fn runs_one_outcome_per_scheduler() {
        let report = quick().run().unwrap();
        assert_eq!(report.mix, "class-b");
        assert_eq!(report.outcomes().len(), 2);
        assert!(report.find(&SchedulerSpec::pdf()).is_some());
        assert!(report.find(&SchedulerSpec::ws()).is_some());
        assert!(report.find(&SchedulerSpec::static_partition()).is_none());
        assert!(report.ws_over_pdf_p95().unwrap() > 0.0);
        for outcome in report.outcomes() {
            assert_eq!(outcome.records.len(), 8);
        }
    }

    #[test]
    fn same_builder_is_deterministic() {
        let a = quick().run().unwrap();
        let b = quick().run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_scheduler_lists_are_rejected() {
        let err = quick().schedulers(&[]).run().unwrap_err();
        assert_eq!(err, ExperimentError::NoSchedulers);
    }

    #[test]
    fn model_errors_surface() {
        let err = quick().cores(999).run().unwrap_err();
        assert!(matches!(err, ExperimentError::Model(_)));
    }

    #[test]
    fn summary_table_has_one_row_per_scheduler() {
        let report = quick().run().unwrap();
        let table = report.summary_table();
        assert_eq!(table.rows(), 2);
        assert_eq!(table.x_values, vec!["pdf".to_string(), "ws".to_string()]);
        assert_eq!(table.series.len(), 7);
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 16); // 8 jobs x 2 schedulers
    }

    #[test]
    fn zero_quanta_and_zero_slots_are_typed_errors() {
        for experiment in [quick().quantum_cycles(0), quick().max_concurrent(0)] {
            let err = experiment.run().unwrap_err();
            assert!(
                matches!(
                    err,
                    ExperimentError::Model(ModelError::InvalidSweepParameter { .. })
                ),
                "{err}"
            );
        }
    }
}
