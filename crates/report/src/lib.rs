//! `pdfws-report` — durable, machine-readable experiment artifacts and the
//! paper-claim replication suite.
//!
//! Every other layer of the workspace *computes* results; this crate makes
//! them **durable**: a [`Figure`] wraps one [`Table`](pdfws_metrics::Table)
//! with a stable id and renders deterministically to CSV, JSONL, markdown,
//! and an ASCII bar chart; an [`ArtifactSet`] collects named renderings in
//! memory (the `replicate` binary's `--out` is the only filesystem
//! touchpoint); and a [`ReplicationSuite`] declares the paper's claims as
//! executable [`Claim`]s — each with a `PAPER.md` anchor, a directional
//! [`Expectation`], and the exact spec strings that reproduce it — and
//! evaluates them to [`ClaimStatus::Confirmed`] or
//! [`ClaimStatus::Deviation`] with the observed numbers
//! ([`ReplicationReport::to_markdown`] is the generated `REPLICATION.md`).
//!
//! Rendering is pure and deterministic: equal inputs produce byte-identical
//! artifacts, for every sweep thread count (golden-tested in
//! `tests/report_artifacts.rs`), so CI can diff the claim-status column of a
//! quick run against a checked-in expectation and catch a paper-shaped
//! result silently flipping.
//!
//! ```
//! use pdfws_metrics::{Series, Table};
//! use pdfws_report::{Expectation, Figure, Observation, ClaimStatus};
//!
//! // A Figure renders one table to every artifact format.
//! let mut table = Table::new("L2 MPKI", "cores", vec!["1".into(), "8".into()]);
//! table.push_series(Series::new("pdf", vec![0.5, 0.4]));
//! table.push_series(Series::new("ws", vec![0.5, 1.2]));
//! let figure = Figure::new("fig1-mpki", "Figure 1 (left)", table);
//! assert!(figure.to_csv().starts_with("cores,pdf,ws\n"));
//! assert!(figure.to_markdown().contains("| cores | pdf | ws |"));
//! assert_eq!(figure.to_jsonl().lines().count(), 2);
//! // CSV emission re-parses to the same series.
//! let back = Figure::from_csv(&figure.id, &figure.caption, &figure.to_csv()).unwrap();
//! assert_eq!(back.table.series, figure.table.series);
//!
//! // Expectations evaluate observed numbers to a claim status.
//! let expect = Expectation::at_most("l2_mpki(pdf)", "l2_mpki(ws)", 0.05);
//! assert_eq!(expect.check(Observation { lhs: 0.4, rhs: 1.2 }), ClaimStatus::Confirmed);
//! assert_eq!(expect.check(Observation { lhs: 1.3, rhs: 1.2 }), ClaimStatus::Deviation);
//! ```

pub mod artifact;
pub mod experiments;
pub mod figure;
mod paper;
pub mod replication;

pub use artifact::{Artifact, ArtifactSet};
pub use figure::{slug, Figure};
pub use replication::{
    Claim, ClaimResult, ClaimStatus, Direction, EvalCtx, Evaluation, Expectation, Observation,
    ReplicationReport, ReplicationSuite, SuiteConfig,
};
