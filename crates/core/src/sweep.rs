//! The shared-DAG sweep layer: describe a grid of simulation cells, execute it
//! on a worker pool.
//!
//! Every result in the paper — and every binary in `pdfws-bench` — is a grid of
//! *independent* simulations over some subset of the axes
//! (workload × cores × scheduler spec × machine config × engine options).
//! [`SweepGrid`] describes such a grid declaratively; [`SweepRunner`] executes
//! its cells on a `std::thread` worker pool and assembles one
//! [`ExperimentReport`] per workload.  This is the single sweep-execution path
//! in the workspace: the examples, the claims,
//! [`StreamExperiment`](crate::stream_experiment::StreamExperiment) and all the
//! bench binaries route through it.
//!
//! # Determinism
//!
//! Each cell's simulation is deterministic (seeded RNGs everywhere), cells
//! share no mutable state, and results are collected by cell index — so the
//! report is **bit-identical for every thread count**, including the
//! sequential path.  `tests/sweep_runner.rs` pins this with a property test
//! over random grids.  Internally cells execute longest-first (LPT, costed
//! by instructions ÷ cores) so the serial baselines don't straggle at the
//! tail of the pool; the order is invisible in the report.
//!
//! # DAG sharing and baseline dedup
//!
//! A workload's [`TaskDag`] is built once (when its [`WorkloadInstance`] is
//! resolved from its spec) and shared by `Arc` across every cell and worker
//! thread — a 6-cores × 5-specs sweep simulates 30 cells plus one baseline
//! from one DAG build, where the pre-sweep code rebuilt or cloned the DAG per
//! cell.
//! The sequential baseline is likewise deduplicated per (workload DAG,
//! baseline config): grids that list the same shared DAG several times run
//! its baseline once.
//!
//! ```
//! use pdfws_core::prelude::*;
//!
//! let grid = SweepGrid::new()
//!     .workload_str("mergesort:grain=2048,n=4096")
//!     .unwrap()
//!     .workload_str("scan:grain=8192,n=16384")
//!     .unwrap()
//!     .cores(&[1, 4])
//!     .specs(&SchedulerSpec::paper_pair());
//! let report = SweepRunner::new(2).run(&grid).unwrap();
//! assert_eq!(report.reports().len(), 2);
//! // Bit-identical to the sequential path:
//! assert_eq!(report, SweepRunner::sequential().run(&grid).unwrap());
//! ```

use crate::experiment::{ExperimentError, ExperimentReport, RunRecord};
use crate::spec::WorkloadInstance;
use pdfws_cmp_model::{default_config, CmpConfig};
use pdfws_memsys::MemSysSpec;
use pdfws_metrics::{Series, Table};
use pdfws_schedulers::{simulate_shared, SchedulerSpec, SimOptions, SimResult};
use pdfws_task_dag::TaskDag;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable read by [`SweepRunner::from_env`] (same knob the bench
/// binaries expose as `--threads N`).
pub const THREADS_ENV: &str = "PDFWS_THREADS";

/// Parse one thread-count value as every knob (`PDFWS_THREADS`, the bench
/// binaries' `--threads`) accepts it: a whitespace-trimmed `usize`, with 0
/// clamped to 1.  `None` means malformed — callers that face users (the CLI
/// harness rejects a bad `--threads` and warns on a bad `PDFWS_THREADS`)
/// report it; the library stays silent.
pub fn parse_threads(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Parse [`THREADS_ENV`] via [`parse_threads`], falling back to `default`
/// when the variable is unset or malformed.
pub fn threads_from_env(default: usize) -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| parse_threads(&v))
        .unwrap_or(default)
        .max(1)
}

/// A declarative grid of sweep cells:
/// (workload × cores × spec) under one machine config policy and one set of
/// engine options.
///
/// The grid is inert data; hand it to a [`SweepRunner`] to execute.  Axes can
/// be listed in any order and the report ordering is always workloads in
/// insertion order, then cores (outer) × specs (inner).
#[derive(Debug, Clone)]
pub struct SweepGrid {
    workloads: Vec<WorkloadInstance>,
    cores: Vec<usize>,
    specs: Vec<SchedulerSpec>,
    fixed_config: Option<CmpConfig>,
    memsys: Option<MemSysSpec>,
    options: SimOptions,
}

impl Default for SweepGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepGrid {
    /// An empty grid with the paper's defaults for the non-workload axes:
    /// 8 cores, the PDF/WS pair, default configurations, default options.
    pub fn new() -> Self {
        SweepGrid {
            workloads: Vec::new(),
            cores: vec![8],
            specs: SchedulerSpec::paper_pair().to_vec(),
            fixed_config: None,
            memsys: None,
            options: SimOptions::default(),
        }
    }

    /// Add one workload to the workload axis.
    pub fn workload(mut self, instance: WorkloadInstance) -> Self {
        self.workloads.push(instance);
        self
    }

    /// Add several workloads to the workload axis.
    pub fn workloads(mut self, instances: &[WorkloadInstance]) -> Self {
        self.workloads.extend_from_slice(instances);
        self
    }

    /// Add one workload by spec string (`"mergesort:n=4096"`), resolved
    /// through the global workload registry.
    pub fn workload_str(self, s: &str) -> Result<Self, ExperimentError> {
        Ok(self.workload(s.parse::<WorkloadInstance>()?))
    }

    /// Replace the core-count axis (the Figure 1 x-axis).
    pub fn cores(mut self, cores: &[usize]) -> Self {
        self.cores = cores.to_vec();
        self
    }

    /// Replace the scheduler axis (any mix of registered specs).
    pub fn specs(mut self, specs: &[SchedulerSpec]) -> Self {
        self.specs = specs.to_vec();
        self
    }

    /// Use an explicit machine configuration for every cell instead of the
    /// default configuration per core count (the core count still comes from
    /// the sweep; only cache/bandwidth parameters are taken from `config`).
    pub fn with_config(mut self, config: CmpConfig) -> Self {
        self.fixed_config = Some(config);
        self
    }

    /// Use a memory-system model (parsed from a `--memsys` string such as
    /// `"bus:dram:banks=32"` or `"legacy"`) for every cell.  Applied on top
    /// of the per-cell config — including an explicit [`SweepGrid::with_config`]
    /// one, whose own `memsys` block it replaces.
    pub fn memsys(mut self, spec: MemSysSpec) -> Self {
        self.memsys = Some(spec);
        self
    }

    /// Engine options applied to every cell (the disturbance co-runner).
    pub fn options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Number of (workload × cores × spec) cells, excluding baselines.
    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.cores.len() * self.specs.len()
    }

    fn config_for(&self, cores: usize) -> Result<CmpConfig, ExperimentError> {
        let mut cfg = match &self.fixed_config {
            Some(cfg) => {
                let mut cfg = *cfg;
                cfg.cores = cores;
                cfg
            }
            None => default_config(cores)?,
        };
        if let Some(spec) = &self.memsys {
            cfg.memsys = spec.memsys_params();
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// One simulation the planner scheduled: a shared DAG, a resolved config, and
/// the spec to run (baselines use [`SchedulerSpec::sequential_baseline`]).
struct PlannedCell {
    dag: Arc<TaskDag>,
    config: CmpConfig,
    spec: SchedulerSpec,
}

/// Everything needed to turn cell results back into per-workload reports.
struct Plan {
    cells: Vec<PlannedCell>,
    /// Per workload: index into `cells` of its (deduplicated) baseline.
    baseline_of: Vec<usize>,
    /// Per workload: first run-cell index; run cells for one workload are
    /// contiguous, cores outer × specs inner.
    run_start: Vec<usize>,
    /// Resolved config per entry of the cores axis (shared by every workload).
    configs: Vec<CmpConfig>,
}

impl Plan {
    /// Longest-processing-time-first execution order over the plan's cells.
    ///
    /// A cell's cost is estimated as its DAG's total instruction count
    /// divided by its core count, so the serial baselines and
    /// biggest-workload cells enter the pool first and short cells backfill
    /// the tail — the classic LPT bound on makespan.  Ties keep cell-index
    /// order (stable sort), and results are always written back by cell
    /// index, so the order is invisible in the report.
    fn lpt_order(&self) -> Vec<usize> {
        let costs: Vec<u64> = self
            .cells
            .iter()
            .map(|cell| {
                let work: u64 = cell
                    .dag
                    .task_ids()
                    .map(|t| cell.dag.node(t).total_instructions())
                    .sum();
                work / cell.config.cores.max(1) as u64
            })
            .collect();
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
        order
    }

    /// Resolve every config and schedule the cells: deduped baselines first,
    /// then each workload's (cores × specs) block.  All configuration errors
    /// surface here, before anything is simulated.
    fn build(grid: &SweepGrid) -> Result<Plan, ExperimentError> {
        if grid.workloads.is_empty() {
            return Err(ExperimentError::NoWorkloads);
        }
        if grid.cores.is_empty() {
            return Err(ExperimentError::NoCores);
        }
        if grid.specs.is_empty() {
            return Err(ExperimentError::NoSchedulers);
        }

        // Configs depend only on the grid's axes, never on the workload:
        // resolve them once up front (this is also where every configuration
        // error surfaces).
        let baseline_config = grid.config_for(1)?;
        let configs: Vec<CmpConfig> = grid
            .cores
            .iter()
            .map(|&c| grid.config_for(c))
            .collect::<Result<_, _>>()?;

        let mut cells: Vec<PlannedCell> = Vec::new();
        let mut baseline_of = Vec::with_capacity(grid.workloads.len());
        // Dedup baselines per workload DAG (the baseline config is
        // grid-constant): (workload idx, cell idx) of the first occurrence.
        let mut seen: Vec<(usize, usize)> = Vec::new();
        for (w_idx, w) in grid.workloads.iter().enumerate() {
            let dup = seen
                .iter()
                .find(|&&(earlier, _)| Arc::ptr_eq(&grid.workloads[earlier].dag, &w.dag));
            match dup {
                Some(&(_, cell)) => baseline_of.push(cell),
                None => {
                    let cell = cells.len();
                    cells.push(PlannedCell {
                        dag: w.dag.clone(),
                        config: baseline_config,
                        spec: SchedulerSpec::sequential_baseline(),
                    });
                    seen.push((w_idx, cell));
                    baseline_of.push(cell);
                }
            }
        }

        let mut run_start = Vec::with_capacity(grid.workloads.len());
        for w in &grid.workloads {
            run_start.push(cells.len());
            for config in &configs {
                for spec in &grid.specs {
                    cells.push(PlannedCell {
                        dag: w.dag.clone(),
                        config: *config,
                        spec: spec.clone(),
                    });
                }
            }
        }
        Ok(Plan {
            cells,
            baseline_of,
            run_start,
            configs,
        })
    }
}

/// Executes [`SweepGrid`]s (and any other list of independent cells) on a
/// fixed-size `std::thread` worker pool.
///
/// Workers pull cell indices from a shared counter and write results back by
/// index, so the output order never depends on thread scheduling; combined
/// with each cell's own determinism this makes `run` return **bit-identical**
/// reports for every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner with `threads` workers (0 is clamped to 1).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// The single-threaded reference path (identical results, no worker pool).
    pub fn sequential() -> Self {
        SweepRunner::new(1)
    }

    /// A runner sized from the `PDFWS_THREADS` environment variable, or
    /// sequential when it is unset or unparsable.
    /// [`StreamExperiment`](crate::stream_experiment::StreamExperiment)
    /// defaults to this, so exported streams stay single-threaded unless the
    /// user opts in; the bench binaries also take `--threads N`.
    pub fn from_env() -> Self {
        SweepRunner::new(threads_from_env(1))
    }

    /// Number of worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute every cell of `grid` and assemble one [`ExperimentReport`] per
    /// workload (in the grid's insertion order).
    ///
    /// All configuration errors are raised before any simulation starts.
    /// This is [`SweepRunner::run_profiled`] with the profile dropped.
    pub fn run(&self, grid: &SweepGrid) -> Result<SweepReport, ExperimentError> {
        Ok(self.run_profiled(grid)?.0)
    }

    /// [`SweepRunner::run`] plus a wall-clock [`SweepProfile`] of the
    /// execution: per-cell wall time, which worker ran each cell, and overall
    /// worker utilization.
    ///
    /// Wall clocks are observed, never fed back into any simulated quantity,
    /// so the report half is deterministic.  The profile half is host- and
    /// scheduling-dependent by nature; keep it out of golden files.
    pub fn run_profiled(
        &self,
        grid: &SweepGrid,
    ) -> Result<(SweepReport, SweepProfile), ExperimentError> {
        let plan = Plan::build(grid)?;
        let order = plan.lpt_order();
        let options = &grid.options;
        let (permuted, mut profile) = self.run_cells_profiled(order.len(), |pos| {
            let cell = &plan.cells[order[pos]];
            simulate_shared(cell.dag.clone(), &cell.config, &cell.spec, options)
        });
        let results = unpermute(&order, permuted);
        // The profile is indexed like the results: per cell, not per
        // execution position.
        profile.cells = unpermute(&order, profile.cells);
        Ok((assemble_reports(grid, &plan, &results), profile))
    }

    /// The generic parallel substrate under [`SweepRunner::run`]: evaluate
    /// `run_cell` for every index in `0..count` and return the results in
    /// index order.  This is [`SweepRunner::run_cells_profiled`] with the
    /// profile dropped.
    pub fn run_cells<T, F>(&self, count: usize, run_cell: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_cells_profiled(count, run_cell).0
    }

    /// [`SweepRunner::run_cells`] plus a wall-clock [`SweepProfile`]: each
    /// cell is timed and attributed to the worker that ran it.
    ///
    /// Results are returned in index order; the timing is purely
    /// observational.  With one thread (or one cell) this degenerates to a
    /// plain sequential map on the calling thread — no pool, no locks.  A
    /// panicking cell propagates the panic to the caller.
    pub fn run_cells_profiled<T, F>(&self, count: usize, run_cell: F) -> (Vec<T>, SweepProfile)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let started = Instant::now();
        if self.threads == 1 || count <= 1 {
            let mut cells = Vec::with_capacity(count);
            let results = (0..count)
                .map(|i| {
                    let cell_start = Instant::now();
                    let result = run_cell(i);
                    cells.push((cell_start.elapsed(), 0));
                    result
                })
                .collect();
            return (
                results,
                SweepProfile {
                    threads: 1,
                    cells,
                    wall: started.elapsed(),
                },
            );
        }
        let workers_used = self.threads.min(count);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(T, Duration, usize)>>> =
            (0..count).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            let next = &next;
            let slots = &slots;
            let run_cell = &run_cell;
            let workers: Vec<_> = (0..workers_used)
                .map(|worker| {
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let cell_start = Instant::now();
                        let result = run_cell(i);
                        *slots[i].lock().expect("no other holder of this slot") =
                            Some((result, cell_start.elapsed(), worker));
                    })
                })
                .collect();
            for worker in workers {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        let mut results = Vec::with_capacity(count);
        let mut cells = Vec::with_capacity(count);
        for slot in slots {
            let (result, wall, worker) = slot
                .into_inner()
                .expect("workers released every slot")
                .expect("every cell index was claimed and run");
            results.push(result);
            cells.push((wall, worker));
        }
        (
            results,
            SweepProfile {
                threads: workers_used,
                cells,
                wall: started.elapsed(),
            },
        )
    }
}

/// Invert an execution permutation: `permuted[pos]` was produced for cell
/// `order[pos]`; the return value is indexed by cell.
fn unpermute<T>(order: &[usize], permuted: Vec<T>) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..permuted.len()).map(|_| None).collect();
    for (pos, value) in permuted.into_iter().enumerate() {
        slots[order[pos]] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("order is a permutation of the cell indices"))
        .collect()
}

/// Turn cell results back into per-workload reports (the shared tail of
/// [`SweepRunner::run`] and [`SweepRunner::run_profiled`]).
fn assemble_reports(grid: &SweepGrid, plan: &Plan, results: &[SimResult]) -> SweepReport {
    let reports = grid
        .workloads
        .iter()
        .zip(plan.baseline_of.iter().zip(&plan.run_start))
        .map(|(w, (&baseline_cell, &first))| {
            let mut runs = Vec::with_capacity(plan.configs.len() * grid.specs.len());
            let mut cell = first;
            for (config, &cores) in plan.configs.iter().zip(&grid.cores) {
                for spec in &grid.specs {
                    runs.push(RunRecord {
                        cores,
                        scheduler: spec.clone(),
                        config: *config,
                        metrics: results[cell].clone(),
                    });
                    cell += 1;
                }
            }
            ExperimentReport::from_parts(
                w.spec.canonical(),
                results[baseline_cell].clone(),
                plan.cells[baseline_cell].config,
                runs,
            )
        })
        .collect();
    SweepReport { reports }
}

/// Wall-clock profile of one profiled sweep execution
/// ([`SweepRunner::run_profiled`] / [`SweepRunner::run_cells_profiled`]).
///
/// Everything here is measured in host wall-clock time and therefore varies
/// run to run — it exists for `--trace-summary` style diagnostics and must
/// never be mixed into simulated results or golden artifacts.
#[derive(Debug, Clone)]
pub struct SweepProfile {
    /// Worker threads actually used (≤ the runner's configured threads).
    threads: usize,
    /// Per cell, in cell-index order: wall time and the worker that ran it.
    cells: Vec<(Duration, usize)>,
    /// Wall time of the whole `run_cells` call.
    wall: Duration,
}

impl SweepProfile {
    /// Worker threads that participated.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of cells executed.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Wall time of cell `i`.
    pub fn cell_wall(&self, i: usize) -> Duration {
        self.cells[i].0
    }

    /// Worker that executed cell `i`.
    pub fn cell_worker(&self, i: usize) -> usize {
        self.cells[i].1
    }

    /// Wall time of the whole sweep (including pool setup and joins).
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Per-worker busy time (sum of the wall times of the cells it ran).
    pub fn worker_busy(&self) -> Vec<Duration> {
        let mut busy = vec![Duration::ZERO; self.threads];
        for &(wall, worker) in &self.cells {
            busy[worker] += wall;
        }
        busy
    }

    /// Pool utilization in [0, 1]: total busy time / (threads × wall).
    pub fn utilization(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 || self.threads == 0 {
            return 0.0;
        }
        let busy: f64 = self.worker_busy().iter().map(Duration::as_secs_f64).sum();
        busy / (wall * self.threads as f64)
    }

    /// Render the profile as a per-worker [`Table`]: cells run and busy
    /// milliseconds, with the overall wall time and utilization in the title.
    pub fn to_table(&self) -> Table {
        let busy = self.worker_busy();
        let mut cells_run = vec![0f64; self.threads];
        for &(_, worker) in &self.cells {
            cells_run[worker] += 1.0;
        }
        let mut table = Table::new(
            format!(
                "sweep execution profile: {} cells on {} workers, {:.1} ms wall, {:.0}% utilization",
                self.cells.len(),
                self.threads,
                self.wall.as_secs_f64() * 1e3,
                self.utilization() * 100.0
            ),
            "worker",
            (0..self.threads).map(|w| w.to_string()).collect(),
        );
        table.push_series(Series::new("cells", cells_run));
        table.push_series(Series::new(
            "busy_ms",
            busy.iter().map(|d| d.as_secs_f64() * 1e3).collect(),
        ));
        table
    }
}

/// Results of a grid: one [`ExperimentReport`] per workload, in the grid's
/// insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    reports: Vec<ExperimentReport>,
}

impl SweepReport {
    /// All per-workload reports, in the grid's workload insertion order.
    pub fn reports(&self) -> &[ExperimentReport] {
        &self.reports
    }

    /// Consume the sweep into its per-workload reports.
    pub fn into_reports(self) -> Vec<ExperimentReport> {
        self.reports
    }

    /// The first report for a workload with the given canonical spec string,
    /// or — when `name` has no parameters and no exact match exists — the
    /// first report whose workload name matches (`for_workload("mergesort")`
    /// finds `"mergesort:n=1048576"`).  Exact matches win over base-name
    /// matches regardless of grid order.
    pub fn for_workload(&self, name: &str) -> Option<&ExperimentReport> {
        self.reports
            .iter()
            .find(|r| r.workload == name)
            .or_else(|| {
                self.reports.iter().find(|r| {
                    r.workload
                        .split_once(':')
                        .is_some_and(|(base, _)| base == name)
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(spec: &str) -> WorkloadInstance {
        spec.parse().unwrap()
    }

    fn small_grid() -> SweepGrid {
        SweepGrid::new()
            .workload(instance("mergesort"))
            .workload(instance("scan"))
            .cores(&[1, 2])
            .specs(&SchedulerSpec::paper_pair())
    }

    #[test]
    fn grid_reports_one_report_per_workload_in_order() {
        let sweep = SweepRunner::sequential().run(&small_grid()).unwrap();
        let names: Vec<&str> = sweep
            .reports()
            .iter()
            .map(|r| r.workload.as_str())
            .collect();
        assert_eq!(names, ["mergesort", "scan"]);
        for report in sweep.reports() {
            assert_eq!(report.runs().len(), 4);
            assert_eq!(report.baseline_config.cores, 1);
        }
        assert!(sweep.for_workload("mergesort").is_some());
        assert!(sweep.for_workload("nope").is_none());
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let grid = small_grid();
        let seq = SweepRunner::sequential().run(&grid).unwrap();
        for threads in [2, 3, 8] {
            assert_eq!(
                SweepRunner::new(threads).run(&grid).unwrap(),
                seq,
                "{threads} threads changed the results"
            );
        }
    }

    #[test]
    fn baselines_are_deduplicated_per_shared_dag() {
        let shared = instance("mergesort");
        let grid = SweepGrid::new()
            .workload(shared.clone())
            .workload(shared.clone()) // same Arc: baseline must not rerun
            .cores(&[2])
            .specs(&[SchedulerSpec::pdf()]);
        let plan = Plan::build(&grid).unwrap();
        // 1 shared baseline + 2 × (1 core × 1 spec) runs.
        assert_eq!(plan.cells.len(), 3);
        assert_eq!(plan.baseline_of, vec![0, 0]);

        // A distinct DAG build of the same workload gets its own baseline.
        let grid = SweepGrid::new()
            .workload(instance("mergesort"))
            .workload(instance("mergesort"))
            .cores(&[2])
            .specs(&[SchedulerSpec::pdf()]);
        let plan = Plan::build(&grid).unwrap();
        assert_eq!(plan.cells.len(), 4);
        assert_eq!(plan.baseline_of, vec![0, 1]);
    }

    #[test]
    fn memsys_spec_overrides_both_config_paths() {
        use pdfws_cmp_model::MemSysMode;
        let legacy: pdfws_memsys::MemSysSpec = "legacy".parse().unwrap();
        // Default-config path.
        let grid = small_grid().memsys(legacy.clone());
        assert_eq!(grid.config_for(2).unwrap().memsys.mode, MemSysMode::Legacy);
        // Fixed-config path: the spec replaces the config's own memsys block.
        let cfg = default_config(2).unwrap();
        assert_eq!(cfg.memsys.mode, MemSysMode::BusDram);
        let grid = small_grid().with_config(cfg).memsys(legacy);
        assert_eq!(grid.config_for(2).unwrap().memsys.mode, MemSysMode::Legacy);
        // And a bus spec with explicit parameters lands in the config.
        let banks: pdfws_memsys::MemSysSpec = "bus:dram:banks=4".parse().unwrap();
        let grid = small_grid().memsys(banks);
        let cfg = grid.config_for(2).unwrap();
        assert_eq!(cfg.memsys.mode, MemSysMode::BusDram);
        assert_eq!(cfg.memsys.dram_banks, Some(4));
    }

    #[test]
    fn lpt_order_is_a_permutation_with_serial_baselines_first() {
        let grid = small_grid();
        let plan = Plan::build(&grid).unwrap();
        let order = plan.lpt_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..plan.cells.len()).collect::<Vec<_>>());
        // The costliest cell of each workload is its one-core baseline;
        // mergesort's (the bigger DAG's) baseline goes first overall.
        assert_eq!(order[0], plan.baseline_of[0]);
        assert!(
            order
                .iter()
                .position(|&c| c == plan.baseline_of[1])
                .unwrap()
                < plan.run_start[1],
            "scan's baseline beats scan's parallel cells into the pool"
        );
    }

    #[test]
    fn empty_axes_are_rejected_before_simulation() {
        let e = SweepRunner::sequential()
            .run(&SweepGrid::new())
            .unwrap_err();
        assert_eq!(e, ExperimentError::NoWorkloads);
        let e = SweepRunner::sequential()
            .run(&small_grid().cores(&[]))
            .unwrap_err();
        assert_eq!(e, ExperimentError::NoCores);
        let e = SweepRunner::sequential()
            .run(&small_grid().specs(&[]))
            .unwrap_err();
        assert_eq!(e, ExperimentError::NoSchedulers);
        let e = SweepRunner::sequential()
            .run(&small_grid().cores(&[999]))
            .unwrap_err();
        assert!(matches!(e, ExperimentError::Model(_)));
    }

    #[test]
    fn run_cells_preserves_index_order_under_parallelism() {
        let runner = SweepRunner::new(4);
        let out = runner.run_cells(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(runner.run_cells(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn run_cells_panics_preserve_the_cell_message() {
        let result = std::panic::catch_unwind(|| {
            SweepRunner::new(3).run_cells(8, |i| {
                if i == 5 {
                    panic!("cell five exploded");
                }
                i
            })
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(
            msg.contains("cell five exploded"),
            "worker panic message lost: {msg:?}"
        );
    }

    #[test]
    fn zero_threads_clamps_to_sequential() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
        assert_eq!(SweepRunner::sequential().threads(), 1);
    }

    #[test]
    fn run_cells_profiled_attributes_every_cell_to_a_worker() {
        let runner = SweepRunner::new(4);
        let (out, profile) = runner.run_cells_profiled(32, |i| i * 2);
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(profile.cell_count(), 32);
        for i in 0..32 {
            assert!(profile.cell_worker(i) < profile.threads());
        }
        assert!(profile.wall() > Duration::ZERO);
        let u = profile.utilization();
        assert!(
            (0.0..=1.0 + 1e-9).contains(&u),
            "utilization {u} out of range"
        );
        let table = profile.to_table();
        assert!(table.title.contains("32 cells"));
    }
}
