//! What a sweep returns for one workload: its (cores × scheduler) cells, the
//! sequential baseline, and the tables the figures are drawn from.
//!
//! [`SweepRunner`](crate::sweep::SweepRunner) is the only producer of an
//! [`ExperimentReport`]: one per workload of a
//! [`SweepGrid`](crate::sweep::SweepGrid), in the grid's order.

use pdfws_cmp_model::{CmpConfig, ModelError};
use pdfws_metrics::{Series, Table};
use pdfws_schedulers::{SchedulerSpec, SimResult};
use pdfws_workloads::WorkloadSpecError;
use std::collections::HashMap;
use std::fmt;

/// Errors from configuring or running an experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// No workloads were requested.
    NoWorkloads,
    /// No core counts were requested.
    NoCores,
    /// No schedulers were requested.
    NoSchedulers,
    /// A machine configuration could not be derived or validated.
    Model(ModelError),
    /// A workload spec string did not validate against the workload registry.
    Workload(WorkloadSpecError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::NoWorkloads => write!(f, "the sweep grid has no workloads to run"),
            ExperimentError::NoCores => write!(f, "the experiment has no core counts to run"),
            ExperimentError::NoSchedulers => write!(f, "the experiment has no schedulers to run"),
            ExperimentError::Model(e) => write!(f, "configuration error: {e}"),
            ExperimentError::Workload(e) => write!(f, "workload spec error: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<ModelError> for ExperimentError {
    fn from(e: ModelError) -> Self {
        ExperimentError::Model(e)
    }
}

impl From<WorkloadSpecError> for ExperimentError {
    fn from(e: WorkloadSpecError) -> Self {
        ExperimentError::Workload(e)
    }
}

/// One (cores, scheduler) cell of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Number of cores simulated.
    pub cores: usize,
    /// Full spec of the scheduler used.
    pub scheduler: SchedulerSpec,
    /// The machine configuration used for this cell.
    pub config: CmpConfig,
    /// Everything measured during the run.
    pub metrics: SimResult,
}

/// Results of a whole experiment: all cells plus the sequential baseline.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// The canonical workload spec string of the instance that was swept
    /// (`"mergesort"` for default-sized instances, `"mergesort:n=1048576"`
    /// for parameterized ones) — the workload-side twin of each run's
    /// scheduler spec string.
    pub workload: String,
    /// The one-core sequential baseline the speedups are measured against.
    pub baseline: SimResult,
    /// Configuration used for the baseline run.
    pub baseline_config: CmpConfig,
    runs: Vec<RunRecord>,
    /// `cores -> spec -> index into runs`, so the per-core lookups the table
    /// builders do in loops are O(1) instead of a linear scan of the sweep.
    index: HashMap<usize, HashMap<SchedulerSpec, usize>>,
}

impl PartialEq for ExperimentReport {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived from `runs`; comparing it would be redundant.
        self.workload == other.workload
            && self.baseline == other.baseline
            && self.baseline_config == other.baseline_config
            && self.runs == other.runs
    }
}

impl ExperimentReport {
    /// Assemble a report, building the `(cores, spec)` lookup index.  The
    /// sweep runner is the only producer.
    pub(crate) fn from_parts(
        workload: String,
        baseline: SimResult,
        baseline_config: CmpConfig,
        runs: Vec<RunRecord>,
    ) -> Self {
        let mut index: HashMap<usize, HashMap<SchedulerSpec, usize>> = HashMap::new();
        for (i, run) in runs.iter().enumerate() {
            // First occurrence wins, matching what a linear scan would find.
            index
                .entry(run.cores)
                .or_default()
                .entry(run.scheduler.clone())
                .or_insert(i);
        }
        ExperimentReport {
            workload,
            baseline,
            baseline_config,
            runs,
            index,
        }
    }

    /// All (cores, scheduler) cells, in the order they were run (cores outer,
    /// schedulers inner).
    pub fn runs(&self) -> &[RunRecord] {
        &self.runs
    }

    /// The cell for a specific core count and scheduler, if it was part of the
    /// sweep.  O(1): the report keeps a `(cores, canonical spec)` index.
    pub fn find(&self, cores: usize, scheduler: &SchedulerSpec) -> Option<&RunRecord> {
        self.index
            .get(&cores)
            .and_then(|specs| specs.get(scheduler))
            .map(|&i| &self.runs[i])
    }

    /// Speedup of a cell over the sequential baseline (the paper's Figure 1 right panel).
    pub fn speedup(&self, run: &RunRecord) -> f64 {
        run.metrics.speedup_over(&self.baseline)
    }

    /// Relative speedup of PDF over WS at the given core count (> 1 means PDF is faster).
    pub fn pdf_over_ws_speedup(&self, cores: usize) -> Option<f64> {
        let pdf = self.find(cores, &SchedulerSpec::pdf())?;
        let ws = self.find(cores, &SchedulerSpec::ws())?;
        Some(ws.metrics.cycles as f64 / pdf.metrics.cycles as f64)
    }

    /// Off-chip-traffic reduction (percent) of PDF relative to WS at the given core count.
    pub fn pdf_traffic_reduction_percent(&self, cores: usize) -> Option<f64> {
        let pdf = self.find(cores, &SchedulerSpec::pdf())?;
        let ws = self.find(cores, &SchedulerSpec::ws())?;
        let wsb = ws.metrics.offchip_bytes();
        if wsb == 0 {
            return Some(0.0);
        }
        Some((wsb as f64 - pdf.metrics.offchip_bytes() as f64) / wsb as f64 * 100.0)
    }

    /// Render one derived metric as a [`Table`] over `core_counts` (rows) ×
    /// `specs` (one series per scheduler spec, labelled by canonical string).
    /// This is the single table-emission path the figure builders and the
    /// artifact renderers (`pdfws-report`) share.
    ///
    /// # Panics
    ///
    /// Panics if a requested `(cores, spec)` cell was not part of the sweep.
    pub fn metric_table(
        &self,
        title: impl Into<String>,
        core_counts: &[usize],
        specs: &[SchedulerSpec],
        metric: impl Fn(&ExperimentReport, &RunRecord) -> f64,
    ) -> Table {
        let x: Vec<String> = core_counts.iter().map(|c| c.to_string()).collect();
        let mut table = Table::new(title, "cores", x);
        for spec in specs {
            let values: Vec<f64> = core_counts
                .iter()
                .map(|&cores| {
                    let run = self.find(cores, spec).unwrap_or_else(|| {
                        panic!(
                            "no ({cores} cores, {spec}) cell in the {} sweep",
                            self.workload
                        )
                    });
                    metric(self, run)
                })
                .collect();
            table.push_series(Series::new(spec.canonical(), values));
        }
        table
    }

    /// L2 misses per 1000 instructions over `core_counts` × `specs` — the
    /// paper's Figure 1 left panel.
    pub fn mpki_table(&self, core_counts: &[usize], specs: &[SchedulerSpec]) -> Table {
        self.metric_table(
            format!(
                "{}: L2 misses per 1000 instructions (Figure 1, left)",
                self.workload
            ),
            core_counts,
            specs,
            |_, run| run.metrics.l2_mpki(),
        )
    }

    /// Speedup over the one-core sequential baseline over `core_counts` ×
    /// `specs` — the paper's Figure 1 right panel.
    pub fn speedup_table(&self, core_counts: &[usize], specs: &[SchedulerSpec]) -> Table {
        self.metric_table(
            format!(
                "{}: speedup over sequential (Figure 1, right)",
                self.workload
            ),
            core_counts,
            specs,
            |report, run| report.speedup(run),
        )
    }

    /// Work migrations (steal events for the deque policies, cross-core
    /// placements for `static`) over `core_counts` × `specs`.
    pub fn migrations_table(&self, core_counts: &[usize], specs: &[SchedulerSpec]) -> Table {
        self.metric_table(
            format!(
                "{}: work migrations (steals) per scheduler spec",
                self.workload
            ),
            core_counts,
            specs,
            |_, run| run.metrics.migrations as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepGrid, SweepRunner};
    use pdfws_cmp_model::default_config;

    /// A grid over the bare `mergesort` spec (`MergeSort::small()`).
    fn mergesort() -> SweepGrid {
        SweepGrid::new().workload_str("mergesort").unwrap()
    }

    /// Run a one-workload grid and return its report.
    fn run(grid: SweepGrid) -> Result<ExperimentReport, ExperimentError> {
        let mut reports = SweepRunner::sequential().run(&grid)?.into_reports();
        Ok(reports.swap_remove(0))
    }

    #[test]
    fn defaults_run_the_paper_pair_on_eight_cores() {
        let report = run(mergesort()).unwrap();
        assert_eq!(report.runs().len(), 2);
        assert_eq!(report.workload, "mergesort");
        assert!(report.find(8, &SchedulerSpec::pdf()).is_some());
        assert!(report.find(8, &SchedulerSpec::ws()).is_some());
        assert!(report.find(4, &SchedulerSpec::pdf()).is_none());
    }

    #[test]
    fn sweep_produces_one_cell_per_cores_times_scheduler() {
        let grid = SweepGrid::new()
            .workload_str("scan")
            .unwrap()
            .cores(&[1, 2, 4])
            .specs(&[
                SchedulerSpec::pdf(),
                SchedulerSpec::ws(),
                SchedulerSpec::static_partition(),
            ]);
        let report = run(grid).unwrap();
        assert_eq!(report.runs().len(), 9);
        // Every cell executed the full DAG.
        for run in report.runs() {
            assert_eq!(run.metrics.tasks, run.metrics.tasks.max(1));
            assert!(run.metrics.cycles > 0);
        }
    }

    #[test]
    fn speedups_are_relative_to_the_one_core_baseline() {
        let report = run(mergesort().cores(&[1, 4])).unwrap();
        let one_core_pdf = report.find(1, &SchedulerSpec::pdf()).unwrap();
        let s = report.speedup(one_core_pdf);
        // One core under the baseline configuration: speedup is exactly 1.
        assert!((s - 1.0).abs() < 1e-9, "speedup = {s}");
        let four_core = report.find(4, &SchedulerSpec::pdf()).unwrap();
        assert!(report.speedup(four_core) >= 1.0);
    }

    #[test]
    fn pdf_ws_comparisons_are_available() {
        let report = run(mergesort().cores(&[4])).unwrap();
        assert!(report.pdf_over_ws_speedup(4).is_some());
        assert!(report.pdf_traffic_reduction_percent(4).is_some());
        assert!(report.pdf_over_ws_speedup(16).is_none());
    }

    #[test]
    fn metric_tables_render_requested_cells() {
        let specs = [SchedulerSpec::pdf(), SchedulerSpec::ws()];
        let report = run(mergesort().cores(&[1, 2]).specs(&specs)).unwrap();
        let mpki = report.mpki_table(&[1, 2], &specs);
        assert_eq!(mpki.rows(), 2);
        assert_eq!(mpki.series.len(), 2);
        assert!(mpki.title.starts_with("mergesort:"));
        let speedup = report.speedup_table(&[1], &specs);
        // One core under the baseline configuration: PDF speedup is exactly 1.
        assert!((speedup.series[0].values[0] - 1.0).abs() < 1e-9);
        let migrations = report.migrations_table(&[2], &specs);
        assert_eq!(migrations.series[0].values, vec![0.0]); // pdf never migrates
    }

    #[test]
    #[should_panic(expected = "no (16 cores, pdf) cell")]
    fn metric_tables_panic_on_missing_cells() {
        let report = run(mergesort().cores(&[2])).unwrap();
        report.mpki_table(&[16], &[SchedulerSpec::pdf()]);
    }

    #[test]
    fn empty_sweeps_are_rejected() {
        let e = run(mergesort().cores(&[])).unwrap_err();
        assert_eq!(e, ExperimentError::NoCores);
        let e = run(mergesort().specs(&[])).unwrap_err();
        assert_eq!(e, ExperimentError::NoSchedulers);
    }

    #[test]
    fn invalid_core_counts_surface_model_errors() {
        let e = run(mergesort().cores(&[999])).unwrap_err();
        assert!(matches!(e, ExperimentError::Model(_)));
        assert!(e.to_string().contains("configuration error"));
    }

    #[test]
    fn fixed_config_overrides_cache_parameters() {
        let mut cfg = default_config(4).unwrap();
        cfg.l2.capacity_bytes = 1024 * 1024;
        cfg.l2.latency_cycles = 10;
        let report = run(mergesort().cores(&[4]).with_config(cfg)).unwrap();
        let run = report.find(4, &SchedulerSpec::pdf()).unwrap();
        assert_eq!(run.config.l2.capacity_bytes, 1024 * 1024);
        assert_eq!(report.baseline_config.cores, 1);
    }
}
