//! The [`ReplicationSuite`]: paper claims as executable, regression-checked
//! expectations.
//!
//! Each [`Claim`] names one claim of the paper (id + `PAPER.md` anchor),
//! carries a directional [`Expectation`] (e.g. *PDF's L2 MPKI is at most WS's
//! at the top core count*), and an evaluation that runs the experiment grid
//! which tests it — through the same [`SweepGrid`]/[`SweepRunner`]/
//! [`StreamExperiment`] paths every bench binary uses — and reports the
//! observed numbers.  [`ReplicationSuite::run`] evaluates every claim to
//! [`ClaimStatus::Confirmed`] or [`ClaimStatus::Deviation`] and assembles a
//! [`ReplicationReport`] that renders the claim ↔ result matrix
//! (`REPLICATION.md`), a machine-readable status CSV and JSONL, and per-claim
//! figure artifacts.
//!
//! The suite is open: build an empty suite (or start from
//! [`ReplicationSuite::paper`]) and [`push`](ReplicationSuite::push) your own
//! claims; the `replicate` binary in `pdfws-bench` runs the paper suite end
//! to end.

use crate::artifact::ArtifactSet;
use crate::experiments::Setup;
use crate::figure::{json_string, slug, Figure};
use pdfws_cmp_model::default_config;
use pdfws_core::prelude::*;
use pdfws_core::sweep::{SweepGrid, SweepRunner};
use pdfws_schedulers::{simulate_traced, SimOptions};
use pdfws_trace::timeline_table;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// How a suite run is scaled and executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteConfig {
    /// Quick mode: CI-sized problem instances (validates claim *shape*, not
    /// paper-scale magnitudes — quick datasets can fit in the shared L2).
    pub quick: bool,
    /// Worker threads for the sweep runner (results are bit-identical for
    /// every value).
    pub threads: usize,
    /// Memory-system model every claim simulates under (`None`: the default
    /// configuration's component bus+DRAM model).  `replicate --memsys
    /// legacy` re-runs the whole suite on the pre-memsys formula.
    pub memsys: Option<MemSysSpec>,
}

impl SuiteConfig {
    /// A configuration with the given mode and one worker thread.
    pub fn new(quick: bool) -> Self {
        SuiteConfig {
            quick,
            threads: 1,
            memsys: None,
        }
    }

    /// Set the sweep worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Run every claim under a memory-system model spec.
    pub fn memsys(mut self, spec: MemSysSpec) -> Self {
        self.memsys = Some(spec);
        self
    }

    /// Pick the quick or paper-scale variant of a value.
    pub fn pick<T>(&self, paper: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            paper
        }
    }
}

/// Direction of an expectation's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `lhs <= rhs * (1 + rel_tolerance)`.
    AtMost,
    /// `lhs >= rhs * (1 - rel_tolerance)`.
    AtLeast,
}

/// A directional expectation over two observed quantities.
///
/// The tolerance is *relative to the right-hand side*, so `AtMost` with
/// tolerance `0.05` reads "lhs may exceed rhs by at most 5 %" — ties (the
/// quick-mode regime where datasets fit in the L2 and both schedulers
/// coincide) confirm.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Human name of the left-hand quantity (e.g. `"l2_mpki(pdf @ 32 cores)"`).
    pub lhs: String,
    /// Comparison direction.
    pub direction: Direction,
    /// Human name of the right-hand quantity.
    pub rhs: String,
    /// Relative slack on the right-hand side.
    pub rel_tolerance: f64,
}

impl Expectation {
    /// `lhs <= rhs * (1 + rel_tolerance)`.
    pub fn at_most(lhs: impl Into<String>, rhs: impl Into<String>, rel_tolerance: f64) -> Self {
        Expectation {
            lhs: lhs.into(),
            direction: Direction::AtMost,
            rhs: rhs.into(),
            rel_tolerance,
        }
    }

    /// `lhs >= rhs * (1 - rel_tolerance)`.
    pub fn at_least(lhs: impl Into<String>, rhs: impl Into<String>, rel_tolerance: f64) -> Self {
        Expectation {
            lhs: lhs.into(),
            direction: Direction::AtLeast,
            rhs: rhs.into(),
            rel_tolerance,
        }
    }

    /// Evaluate the expectation against observed values.
    pub fn check(&self, observation: Observation) -> ClaimStatus {
        let holds = match self.direction {
            Direction::AtMost => observation.lhs <= observation.rhs * (1.0 + self.rel_tolerance),
            Direction::AtLeast => observation.lhs >= observation.rhs * (1.0 - self.rel_tolerance),
        };
        if holds {
            ClaimStatus::Confirmed
        } else {
            ClaimStatus::Deviation
        }
    }
}

impl fmt::Display for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (op, sign) = match self.direction {
            Direction::AtMost => ("<=", '+'),
            Direction::AtLeast => (">=", '-'),
        };
        if self.rel_tolerance == 0.0 {
            write!(f, "{} {op} {}", self.lhs, self.rhs)
        } else {
            write!(
                f,
                "{} {op} {} x (1 {sign} {})",
                self.lhs, self.rhs, self.rel_tolerance
            )
        }
    }
}

/// The two observed quantities an expectation compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Observed left-hand value.
    pub lhs: f64,
    /// Observed right-hand value.
    pub rhs: f64,
}

/// Outcome of evaluating one claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimStatus {
    /// The observed numbers satisfy the expectation.
    Confirmed,
    /// They do not.
    Deviation,
}

impl fmt::Display for ClaimStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClaimStatus::Confirmed => write!(f, "Confirmed"),
            ClaimStatus::Deviation => write!(f, "Deviation"),
        }
    }
}

/// What one claim's evaluation produced: the observed comparison plus the
/// figures (and any extra raw artifacts) that document it.
pub struct Evaluation {
    /// The observed left/right values the expectation is checked against.
    pub observation: Observation,
    /// The exact workload spec strings that were simulated.
    pub workloads: Vec<String>,
    /// The exact scheduler spec strings that were simulated.
    pub schedulers: Vec<String>,
    /// The core counts that were simulated.
    pub cores: Vec<usize>,
    /// Figures rendered into the claim's artifact directory.
    pub figures: Vec<Figure>,
    /// Extra raw artifacts, as (file name, contents) — e.g. per-job JSONL
    /// records from a stream claim.
    pub raw: Vec<(String, String)>,
}

/// The evaluation context handed to each claim: the suite configuration plus
/// a per-run sweep cache, so claims that read different metrics off the same
/// grid (Figure 1's two panels, say) simulate it once.
pub struct EvalCtx {
    /// The run's configuration.
    pub cfg: SuiteConfig,
    cache: RefCell<HashMap<String, Rc<Vec<ExperimentReport>>>>,
}

impl EvalCtx {
    fn new(cfg: SuiteConfig) -> Self {
        EvalCtx {
            cfg,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// Run (or fetch from this run's cache) the (workloads × cores ×
    /// schedulers) grid of `cells`, given by exact spec strings, returning
    /// one report per workload (its L2 fractions are not an axis of a sweep).
    /// Cells execute on `cfg.threads` workers; equal grids hit the cache, so
    /// several claims can share one simulation.
    pub fn sweep(&self, cells: &Setup) -> Result<Rc<Vec<ExperimentReport>>, ExperimentError> {
        let key = format!("{cells:?};m={:?}", self.cfg.memsys);
        if let Some(hit) = self.cache.borrow().get(&key) {
            return Ok(hit.clone());
        }
        let mut grid = SweepGrid::new().cores(cells.cores).specs(&cells.specs());
        if let Some(spec) = &self.cfg.memsys {
            grid = grid.memsys(spec.clone());
        }
        for w in cells.workloads {
            grid = grid.workload_str(w)?;
        }
        let reports = Rc::new(
            SweepRunner::new(self.cfg.threads)
                .run(&grid)?
                .into_reports(),
        );
        self.cache.borrow_mut().insert(key, reports.clone());
        Ok(reports)
    }
}

type EvalFn = Box<dyn Fn(&EvalCtx) -> Result<Evaluation, ExperimentError>>;

/// One executable paper claim.
pub struct Claim {
    /// Stable claim id (slug; used in file paths, status CSV, and `--claim`).
    pub id: String,
    /// One-line human statement of the claim.
    pub title: String,
    /// Anchor into `PAPER.md` (e.g. `"PAPER.md#c1-..."`).
    pub anchor: String,
    /// The directional expectation checked against the observed numbers.
    pub expectation: Expectation,
    eval: EvalFn,
}

impl Claim {
    /// Define a claim.
    pub fn new(
        id: &str,
        title: impl Into<String>,
        anchor: impl Into<String>,
        expectation: Expectation,
        eval: impl Fn(&EvalCtx) -> Result<Evaluation, ExperimentError> + 'static,
    ) -> Self {
        Claim {
            id: slug(id),
            title: title.into(),
            anchor: anchor.into(),
            expectation,
            eval: Box::new(eval),
        }
    }
}

impl fmt::Debug for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Claim")
            .field("id", &self.id)
            .field("title", &self.title)
            .field("anchor", &self.anchor)
            .field("expectation", &self.expectation)
            .finish_non_exhaustive()
    }
}

/// Everything recorded about one evaluated claim.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// The claim's id.
    pub id: String,
    /// The claim's one-line statement.
    pub title: String,
    /// The claim's `PAPER.md` anchor.
    pub anchor: String,
    /// The expectation that was checked.
    pub expectation: Expectation,
    /// The observed left/right values.
    pub observation: Observation,
    /// Confirmed or Deviation.
    pub status: ClaimStatus,
    /// Exact workload spec strings simulated.
    pub workloads: Vec<String>,
    /// Exact scheduler spec strings simulated.
    pub schedulers: Vec<String>,
    /// Core counts simulated.
    pub cores: Vec<usize>,
    /// The claim's rendered figures.
    pub figures: Vec<Figure>,
    /// Extra raw artifacts (file name, contents).
    pub raw: Vec<(String, String)>,
    /// A summarized execution timeline of one representative cell, attached
    /// by [`ReplicationReport::attach_traces`] (rendered under `traces/<id>/`
    /// in the artifact tree).  `None` until attached.
    pub timeline: Option<Figure>,
}

/// An ordered, open set of claims.
#[derive(Debug, Default)]
pub struct ReplicationSuite {
    claims: Vec<Claim>,
}

impl ReplicationSuite {
    /// An empty suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a claim.
    pub fn push(&mut self, claim: Claim) {
        assert!(
            !self.claims.iter().any(|c| c.id == claim.id),
            "duplicate claim id '{}'",
            claim.id
        );
        self.claims.push(claim);
    }

    /// The claims, in evaluation order.
    pub fn claims(&self) -> &[Claim] {
        &self.claims
    }

    /// Keep only the claims whose id is in `ids` (exact match).  Returns the
    /// ids that matched nothing, so callers can reject typos.
    pub fn retain_ids(&mut self, ids: &[String]) -> Vec<String> {
        let unknown: Vec<String> = ids
            .iter()
            .filter(|id| !self.claims.iter().any(|c| &&c.id == id))
            .cloned()
            .collect();
        self.claims.retain(|c| ids.iter().any(|id| id == &c.id));
        unknown
    }

    /// Evaluate every claim in order and assemble the report.  `progress` is
    /// called with each claim before it runs (the `replicate` binary logs it).
    pub fn run(
        &self,
        cfg: SuiteConfig,
        mut progress: impl FnMut(&Claim),
    ) -> Result<ReplicationReport, ExperimentError> {
        let (quick, memsys) = (cfg.quick, cfg.memsys.clone());
        let ctx = EvalCtx::new(cfg);
        let mut results = Vec::with_capacity(self.claims.len());
        for claim in &self.claims {
            progress(claim);
            let evaluation = (claim.eval)(&ctx)?;
            let status = claim.expectation.check(evaluation.observation);
            results.push(ClaimResult {
                id: claim.id.clone(),
                title: claim.title.clone(),
                anchor: claim.anchor.clone(),
                expectation: claim.expectation.clone(),
                observation: evaluation.observation,
                status,
                workloads: evaluation.workloads,
                schedulers: evaluation.schedulers,
                cores: evaluation.cores,
                figures: evaluation.figures,
                raw: evaluation.raw,
                timeline: None,
            });
        }
        Ok(ReplicationReport {
            quick,
            memsys,
            results,
        })
    }
}

/// The evaluated suite: per-claim results plus every rendering.
#[derive(Debug, Clone)]
pub struct ReplicationReport {
    /// Whether this was a quick (CI-sized) run.
    pub quick: bool,
    /// The memory-system model the claims ran under
    /// ([`SuiteConfig::memsys`]); their traced cells run under it too.
    pub memsys: Option<MemSysSpec>,
    /// Per-claim results, in suite order.
    pub results: Vec<ClaimResult>,
}

impl ReplicationReport {
    /// True when any claim evaluated to [`ClaimStatus::Deviation`] — the
    /// `replicate` binary's non-zero-exit condition.
    pub fn any_deviation(&self) -> bool {
        self.results
            .iter()
            .any(|r| r.status == ClaimStatus::Deviation)
    }

    /// The claim-status matrix as CSV (`claim,status` header) — the column CI
    /// diffs against its checked-in expectation.
    pub fn status_csv(&self) -> String {
        let mut out = String::from("claim,status\n");
        for r in &self.results {
            out.push_str(&format!("{},{}\n", r.id, r.status));
        }
        out
    }

    /// One self-describing JSON object per claim (id, anchor, expectation,
    /// observed values, status, and the exact spec strings).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            let specs = |v: &[String]| {
                v.iter()
                    .map(|s| json_string(s))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(
                "{{\"claim\":{},\"status\":{},\"anchor\":{},\"expectation\":{},\
                 \"lhs\":{},\"rhs\":{},\"workloads\":[{}],\"schedulers\":[{}],\"cores\":{:?}}}\n",
                json_string(&r.id),
                json_string(&r.status.to_string()),
                json_string(&r.anchor),
                json_string(&r.expectation.to_string()),
                r.observation.lhs,
                r.observation.rhs,
                specs(&r.workloads),
                specs(&r.schedulers),
                r.cores,
            ));
        }
        out
    }

    /// Attach a summarized execution timeline to every claim: re-simulate one
    /// representative cell per claim — its first workload spec at its largest
    /// core count under its first scheduler spec — with event tracing on, on
    /// the machine the claim's sweep ran (the default configuration at that
    /// core count under the suite's memory-system model; the power claim's
    /// first L2 fraction is the fully powered default), and bin the stream
    /// into a [`timeline_table`] figure.  The figures land under
    /// `traces/<id>/` in [`ReplicationReport::artifacts_in`] and are linked
    /// from the claim's `REPLICATION.md` section.
    ///
    /// Claims whose recorded axes cannot be re-instantiated (no workloads, an
    /// unparseable spec, or a core count without a default configuration) are
    /// skipped, not failed.  Only the `replicate` binary calls this; plain
    /// suite runs stay trace-free.
    pub fn attach_traces(&mut self) {
        for r in &mut self.results {
            r.timeline = timeline_figure_for(r, self.memsys.as_ref());
        }
    }

    /// The command that reproduces this run (or one claim of it).
    fn reproduce_command(&self, claim: Option<&str>) -> String {
        let mut cmd = String::from("cargo run --release -p pdfws-bench --bin replicate --");
        if self.quick {
            cmd.push_str(" --quick");
        }
        if let Some(id) = claim {
            cmd.push_str(&format!(" --claim {id}"));
        }
        cmd
    }

    /// Render `REPLICATION.md` with PAPER.md links relative to the repository
    /// root — correct when the file sits next to `PAPER.md`.  When writing
    /// into an artifact directory, use [`ReplicationReport::to_markdown_in`]
    /// with the path from that directory back to `PAPER.md` so the links
    /// resolve from where the file actually lives.
    pub fn to_markdown(&self) -> String {
        self.to_markdown_in("PAPER.md")
    }

    /// Render `REPLICATION.md`: the generated paper-claim ↔ result matrix
    /// plus one section per claim with the exact reproduction specs and the
    /// claim's figures.  `paper_path` is the path (relative to wherever the
    /// rendered file will live) under which `PAPER.md` can be reached — every
    /// anchor link uses it as its base.
    pub fn to_markdown_in(&self, paper_path: &str) -> String {
        let mut out = String::new();
        out.push_str("# Replication report\n\n");
        out.push_str(&format!(
            "Generated by `{}`.  Mode: **{}**.\n\n",
            self.reproduce_command(None),
            if self.quick {
                "quick (CI problem sizes — validates claim shape, not paper-scale magnitudes)"
            } else {
                "paper-scale"
            },
        ));
        out.push_str(&format!(
            "Each claim is checked against the paper statement it replicates \
             (anchor into [PAPER.md]({paper_path})); `Deviation` means the observed \
             numbers violate the expectation and makes the `replicate` binary \
             exit non-zero.\n\n",
        ));
        out.push_str("| claim | paper anchor | expectation | observed | status |\n");
        out.push_str("|---|---|---|---|---|\n");
        for r in &self.results {
            out.push_str(&format!(
                "| [`{id}`](#{id}) | [PAPER.md#{anchor}]({paper_path}#{anchor}) | {expect} | {lhs:.6} vs {rhs:.6} | **{status}** |\n",
                id = r.id,
                anchor = r.anchor,
                expect = md_cell(&r.expectation.to_string()),
                lhs = r.observation.lhs,
                rhs = r.observation.rhs,
                status = r.status,
            ));
        }
        for r in &self.results {
            out.push_str(&format!("\n## {}\n\n", r.id));
            out.push_str(&format!(
                "**{}** — [PAPER.md#{anchor}]({paper_path}#{anchor})\n\n",
                r.title,
                anchor = r.anchor,
            ));
            out.push_str(&format!(
                "*Expectation:* {}.  *Observed:* {} = {:.6}, {} = {:.6} → **{}**.\n\n",
                r.expectation,
                r.expectation.lhs,
                r.observation.lhs,
                r.expectation.rhs,
                r.observation.rhs,
                r.status,
            ));
            out.push_str("Reproduce with:\n\n```sh\n");
            out.push_str(&self.reproduce_command(Some(&r.id)));
            out.push_str("\n```\n\n");
            out.push_str(&format!(
                "Workload specs: {} · scheduler specs: {} · cores: {}\n",
                codes(&r.workloads),
                codes(&r.schedulers),
                r.cores
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
            ));
            if !r.figures.is_empty() || !r.raw.is_empty() {
                let files: Vec<String> = r
                    .figures
                    .iter()
                    .flat_map(|f| {
                        ["csv", "jsonl", "md"]
                            .iter()
                            .map(move |ext| format!("claims/{}/{}.{ext}", r.id, f.id))
                    })
                    .chain(
                        r.raw
                            .iter()
                            .map(|(name, _)| format!("claims/{}/{name}", r.id)),
                    )
                    .map(|p| format!("[{p}]({p})"))
                    .collect();
                out.push_str(&format!("\nArtifacts: {}\n", files.join(" · ")));
            }
            if let Some(timeline) = &r.timeline {
                let files: Vec<String> = ["csv", "jsonl", "md"]
                    .iter()
                    .map(|ext| format!("traces/{}/{}.{ext}", r.id, timeline.id))
                    .map(|p| format!("[{p}]({p})"))
                    .collect();
                out.push_str(&format!("\nTimeline: {}\n", files.join(" · ")));
            }
            for figure in &r.figures {
                out.push('\n');
                out.push_str(&figure.to_markdown());
            }
        }
        out
    }

    /// Every artifact of the run, with `REPLICATION.md`'s PAPER.md links
    /// rendered repo-root-relative (see [`ReplicationReport::artifacts_in`]
    /// for artifact directories elsewhere).
    pub fn artifacts(&self) -> ArtifactSet {
        self.artifacts_in("PAPER.md")
    }

    /// Every artifact of the run: `REPLICATION.md` (with PAPER.md anchor
    /// links based at `paper_path` — the path from the artifact directory
    /// back to `PAPER.md`), `claim_status.csv`, `claims.jsonl`, and each
    /// claim's figures under `claims/<id>/`.
    pub fn artifacts_in(&self, paper_path: &str) -> ArtifactSet {
        let mut set = ArtifactSet::new();
        set.push("REPLICATION.md", self.to_markdown_in(paper_path));
        set.push("claim_status.csv", self.status_csv());
        set.push("claims.jsonl", self.to_jsonl());
        for r in &self.results {
            let dir = format!("claims/{}", r.id);
            for figure in &r.figures {
                set.push_figure(&dir, figure);
            }
            for (name, contents) in &r.raw {
                set.push(format!("{dir}/{name}"), contents.clone());
            }
            if let Some(timeline) = &r.timeline {
                set.push_figure(&format!("traces/{}", r.id), timeline);
            }
        }
        set
    }
}

/// Bins of the per-claim timeline figures.
const TRACE_FIGURE_BINS: usize = 24;

/// The representative-cell timeline of one claim under the `memsys` model
/// (see [`ReplicationReport::attach_traces`]), or `None` when the claim's
/// recorded axes cannot be re-instantiated.
fn timeline_figure_for(r: &ClaimResult, memsys: Option<&MemSysSpec>) -> Option<Figure> {
    let workload = r.workloads.first()?;
    let scheduler = r.schedulers.first()?;
    let cores = r.cores.iter().copied().max()?;
    let wspec = workload.parse::<pdfws_workloads::WorkloadSpec>().ok()?;
    let sspec = scheduler.parse::<SchedulerSpec>().ok()?;
    let mut config = default_config(cores).ok()?;
    if let Some(spec) = memsys {
        config.memsys = spec.memsys_params();
    }
    let instance = WorkloadInstance::from_spec(&wspec);
    let (_, events) = simulate_traced(&instance.dag, &config, &sspec, &SimOptions::default());
    let table = timeline_table(
        &format!("{workload} under {scheduler} @ {cores} cores"),
        &events,
        cores,
        TRACE_FIGURE_BINS,
    );
    Some(Figure::new(
        &format!("{}-timeline", r.id),
        format!("Execution timeline: `{workload}` under `{scheduler}` @ {cores} cores"),
        table,
    ))
}

/// Escape `|` for use inside a markdown table cell.
fn md_cell(s: &str) -> String {
    s.replace('|', "\\|")
}

/// Backtick-quote spec strings for markdown prose.
fn codes(specs: &[String]) -> String {
    specs
        .iter()
        .map(|s| format!("`{s}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdfws_metrics::{Series, Table};

    fn fixed_claim(id: &str, lhs: f64, rhs: f64) -> Claim {
        Claim::new(
            id,
            format!("synthetic claim {id}"),
            format!("{id}-anchor"),
            Expectation::at_most("observed|lhs", "observed rhs", 0.0),
            move |_ctx| {
                let mut t = Table::new("synthetic", "x", vec!["a".into()]);
                t.push_series(Series::new("v", vec![lhs]));
                Ok(Evaluation {
                    observation: Observation { lhs, rhs },
                    workloads: vec!["mergesort:n=1024".into()],
                    schedulers: vec!["pdf".into(), "ws".into()],
                    cores: vec![8],
                    figures: vec![Figure::new("syn-fig", "synthetic figure", t)],
                    raw: vec![("notes.txt".into(), "hello\n".into())],
                })
            },
        )
    }

    fn two_claim_suite() -> ReplicationSuite {
        let mut suite = ReplicationSuite::new();
        suite.push(fixed_claim("ok-claim", 1.0, 2.0));
        suite.push(fixed_claim("bad-claim", 3.0, 2.0));
        suite
    }

    #[test]
    fn expectations_check_direction_and_tolerance() {
        let at_most = Expectation::at_most("a", "b", 0.05);
        assert_eq!(
            at_most.check(Observation { lhs: 1.0, rhs: 1.0 }),
            ClaimStatus::Confirmed
        );
        assert_eq!(
            at_most.check(Observation {
                lhs: 1.04,
                rhs: 1.0
            }),
            ClaimStatus::Confirmed
        );
        assert_eq!(
            at_most.check(Observation {
                lhs: 1.06,
                rhs: 1.0
            }),
            ClaimStatus::Deviation
        );
        let at_least = Expectation::at_least("a", "b", 0.05);
        assert_eq!(
            at_least.check(Observation {
                lhs: 0.96,
                rhs: 1.0
            }),
            ClaimStatus::Confirmed
        );
        assert_eq!(
            at_least.check(Observation {
                lhs: 0.94,
                rhs: 1.0
            }),
            ClaimStatus::Deviation
        );
        assert_eq!(at_most.to_string(), "a <= b x (1 + 0.05)");
        assert_eq!(Expectation::at_least("a", "b", 0.0).to_string(), "a >= b");
    }

    #[test]
    fn suite_runs_claims_in_order_and_flags_deviations() {
        let mut seen = Vec::new();
        let report = two_claim_suite()
            .run(SuiteConfig::new(true), |c| seen.push(c.id.clone()))
            .unwrap();
        assert_eq!(seen, ["ok-claim", "bad-claim"]);
        assert_eq!(report.results[0].status, ClaimStatus::Confirmed);
        assert_eq!(report.results[1].status, ClaimStatus::Deviation);
        assert!(report.any_deviation());
        assert_eq!(
            report.status_csv(),
            "claim,status\nok-claim,Confirmed\nbad-claim,Deviation\n"
        );
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"claim\":\"ok-claim\""), "{jsonl}");
        assert!(jsonl.contains("\"status\":\"Deviation\""), "{jsonl}");
        assert!(
            jsonl.contains("\"workloads\":[\"mergesort:n=1024\"]"),
            "{jsonl}"
        );
    }

    #[test]
    fn markdown_report_links_anchors_and_escapes_pipes() {
        let report = two_claim_suite()
            .run(SuiteConfig::new(true), |_| {})
            .unwrap();
        let md = report.to_markdown();
        assert!(md.contains("| claim | paper anchor | expectation | observed | status |"));
        assert!(md.contains("(PAPER.md#ok-claim-anchor)"));
        // The '|' inside the expectation text must not break the matrix table.
        assert!(md.contains("observed\\|lhs <= observed rhs |"), "{md}");
        assert!(md.contains("--claim ok-claim"));
        assert!(md.contains("`mergesort:n=1024`"));
        assert!(md.contains("### synthetic figure"));
        // Quick runs are labelled as such.
        assert!(md.contains("Mode: **quick"));
    }

    #[test]
    fn artifacts_cover_every_rendering() {
        let report = two_claim_suite()
            .run(SuiteConfig::new(false), |_| {})
            .unwrap();
        let set = report.artifacts();
        assert!(set
            .get("REPLICATION.md")
            .unwrap()
            .contains("Mode: **paper-scale**"));
        assert!(set
            .get("claim_status.csv")
            .unwrap()
            .starts_with("claim,status\n"));
        assert_eq!(set.get("claims.jsonl").unwrap().lines().count(), 2);
        assert!(set.get("claims/ok-claim/syn-fig.csv").is_some());
        assert!(set.get("claims/ok-claim/syn-fig.md").is_some());
        assert!(set.get("claims/ok-claim/syn-fig.jsonl").is_some());
        assert_eq!(set.get("claims/bad-claim/notes.txt"), Some("hello\n"));
    }

    #[test]
    fn attach_traces_adds_timeline_figures_and_artifacts() {
        let mut report = two_claim_suite()
            .run(SuiteConfig::new(true), |_| {})
            .unwrap();
        assert!(report.results.iter().all(|r| r.timeline.is_none()));
        report.attach_traces();
        // The synthetic claims record a real, re-instantiable cell
        // (mergesort:n=1024 under pdf @ 8 cores), so every claim gets a
        // timeline figure with populated bins.
        for r in &report.results {
            let timeline = r.timeline.as_ref().expect("timeline attached");
            assert_eq!(timeline.id, format!("{}-timeline", r.id));
            assert!(!timeline.table.x_values.is_empty());
        }
        let set = report.artifacts();
        assert!(set.get("traces/ok-claim/ok-claim-timeline.csv").is_some());
        assert!(set.get("traces/bad-claim/bad-claim-timeline.md").is_some());
        let md = set.get("REPLICATION.md").unwrap();
        assert!(
            md.contains("(traces/ok-claim/ok-claim-timeline.csv)"),
            "{md}"
        );
    }

    #[test]
    fn retain_ids_filters_and_reports_unknowns() {
        let mut suite = two_claim_suite();
        let unknown = suite.retain_ids(&["bad-claim".to_string(), "nope".to_string()]);
        assert_eq!(unknown, ["nope"]);
        assert_eq!(suite.claims().len(), 1);
        assert_eq!(suite.claims()[0].id, "bad-claim");
    }

    #[test]
    #[should_panic(expected = "duplicate claim id")]
    fn duplicate_claim_ids_panic() {
        let mut suite = ReplicationSuite::new();
        suite.push(fixed_claim("twin", 1.0, 2.0));
        suite.push(fixed_claim("twin", 1.0, 2.0));
    }

    #[test]
    fn paper_suite_declares_eight_anchored_claims() {
        let suite = ReplicationSuite::paper();
        assert_eq!(suite.claims().len(), 8);
        for claim in suite.claims() {
            assert!(!claim.anchor.is_empty());
            assert_eq!(claim.id, crate::figure::slug(&claim.id), "{}", claim.id);
        }
    }
}
