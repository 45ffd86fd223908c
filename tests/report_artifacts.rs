//! Artifact round-trip tests for `pdfws-report`: golden-file stability of the
//! CSV/markdown renderers, byte-identical artifacts for every sweep thread
//! count (reusing the sweep determinism harness), a property test that
//! `Figure` CSV emission re-parses to the same series, and an end-to-end
//! replication-suite smoke over a real (small) simulation.

use pdfws::prelude::*;
use pdfws::report::experiments::Setup;
use pdfws::report::{
    ArtifactSet, Claim, Evaluation, Expectation, Figure, Observation, ReplicationSuite, SuiteConfig,
};
use proptest::prelude::*;

/// One small, fully deterministic sweep (the unit-test merge sort on 1 and 2
/// cores under the paper pair), run on `threads` workers.
fn small_report(threads: usize) -> ExperimentReport {
    let grid = SweepGrid::new()
        .workload_str("mergesort:n=4096")
        .expect("registered workload")
        .cores(&[1, 2])
        .specs(&SchedulerSpec::paper_pair());
    SweepRunner::new(threads)
        .run(&grid)
        .expect("valid grid")
        .into_reports()
        .swap_remove(0)
}

fn small_figures(threads: usize) -> (Figure, Figure) {
    let report = small_report(threads);
    let pair = SchedulerSpec::paper_pair();
    (
        Figure::new(
            "small-mpki",
            "small mpki",
            report.mpki_table(&[1, 2], &pair),
        ),
        Figure::new(
            "small-speedup",
            "small speedup",
            report.speedup_table(&[1, 2], &pair),
        ),
    )
}

// --- Golden files ---------------------------------------------------------
//
// The rendered bytes of a fixed simulation are pinned verbatim: any change to
// the simulator's numbers *or* to the renderers' formatting shows up as a
// golden diff, the same way CI pins `replicate --quick`'s claim-status column.

#[test]
fn csv_rendering_matches_the_golden_file() {
    let (mpki, _) = small_figures(1);
    assert_eq!(
        mpki.to_csv(),
        include_str!("golden/small_mpki.csv"),
        "CSV rendering of the golden sweep changed"
    );
}

#[test]
fn markdown_rendering_matches_the_golden_file() {
    let (mpki, _) = small_figures(1);
    assert_eq!(
        mpki.to_markdown(),
        include_str!("golden/small_mpki.md"),
        "markdown rendering of the golden sweep changed"
    );
}

// --- Determinism across thread counts -------------------------------------

#[test]
fn artifacts_are_byte_stable_across_thread_counts() {
    let (mpki_1, speedup_1) = small_figures(1);
    for threads in [2, 4] {
        let (mpki_n, speedup_n) = small_figures(threads);
        assert_eq!(
            mpki_n.to_csv(),
            mpki_1.to_csv(),
            "{threads} threads changed the CSV"
        );
        assert_eq!(mpki_n.to_markdown(), mpki_1.to_markdown());
        assert_eq!(mpki_n.to_jsonl(), mpki_1.to_jsonl());
        assert_eq!(speedup_n.to_csv(), speedup_1.to_csv());
        assert_eq!(speedup_n.ascii_chart(), speedup_1.ascii_chart());
    }
}

// --- Figure CSV round-trip property ----------------------------------------

/// Series/axis labels of the shapes real tables carry — including the
/// comma-bearing workload spec strings that force RFC 4180 quoting, and
/// embedded quotes.
fn label_strategy() -> impl Strategy<Value = String> {
    (0u64..26, 0u64..6, 0u64..10_000).prop_map(|(letter, punct, n)| {
        let c = (b'a' + letter as u8) as char;
        let p = [":", "=", "-", "_", ",", "\""][punct as usize];
        format!("{c}{p}{n}")
    })
}

/// Finite values of several shapes; `f64` Display is shortest-round-trip, so
/// emission must re-parse to bit-identical series.
fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        // Large integers (cycle counts, byte totals).
        (0u64..u64::MAX).prop_map(|n| n as f64),
        // Signed fractions with a long decimal tail (ratios, MPKI).
        (0u64..2_000_000_000).prop_map(|n| n as f64 / 999_983.0 - 1_000.0),
        // Exact zeros and small integers.
        (0u64..5).prop_map(|n| n as f64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn figure_csv_emission_reparses_to_the_same_series(
        x_name in label_strategy(),
        rows in 1usize..6,
        names in prop::collection::vec(label_strategy(), 1..4),
        seed_values in prop::collection::vec(value_strategy(), 24..25),
    ) {
        let x_values: Vec<String> = (0..rows).map(|i| format!("x{i}")).collect();
        let mut table = pdfws::metrics::Table::new("prop figure", x_name, x_values);
        for (i, name) in names.iter().enumerate() {
            // Distinct column names (duplicates are legal CSV but ambiguous).
            let values: Vec<f64> = (0..rows).map(|r| seed_values[(i * rows + r) % seed_values.len()]).collect();
            table.push_series(pdfws::metrics::Series::new(format!("{name}{i}"), values));
        }
        let figure = Figure::new("prop-fig", "prop figure", table);
        let back = Figure::from_csv(&figure.id, &figure.caption, &figure.to_csv()).unwrap();
        prop_assert_eq!(&back.table.x_values, &figure.table.x_values);
        prop_assert_eq!(&back.table.series, &figure.table.series);
        prop_assert_eq!(&back.table.x_name, &figure.table.x_name);
    }
}

// --- End-to-end replication smoke ------------------------------------------

#[test]
fn replication_suite_runs_a_real_claim_end_to_end() {
    let mut suite = ReplicationSuite::new();
    suite.push(Claim::new(
        "smoke-mpki",
        "unit-scale merge sort: PDF MPKI is no worse than WS at 2 cores",
        "c1-constructive-cache-sharing-cuts-l2-misses",
        Expectation::at_most("l2_mpki(pdf)", "l2_mpki(ws)", 0.05),
        |ctx| {
            let reports = ctx.sweep(&Setup {
                workloads: &["mergesort:n=4096"],
                cores: &[1, 2],
                schedulers: &["pdf", "ws"],
                l2_fractions: &[],
            })?;
            let report = &reports[0];
            let mpki = |spec: &SchedulerSpec| {
                report
                    .find(2, spec)
                    .expect("cell simulated")
                    .metrics
                    .l2_mpki()
            };
            Ok(Evaluation {
                observation: Observation {
                    lhs: mpki(&SchedulerSpec::pdf()),
                    rhs: mpki(&SchedulerSpec::ws()),
                },
                workloads: vec!["mergesort:n=4096".into()],
                schedulers: vec!["pdf".into(), "ws".into()],
                cores: vec![1, 2],
                figures: vec![Figure::new(
                    "smoke-mpki",
                    "smoke mpki",
                    report.mpki_table(&[1, 2], &SchedulerSpec::paper_pair()),
                )],
                raw: Vec::new(),
            })
        },
    ));
    let report = suite
        .run(SuiteConfig::new(true).threads(2), |_| {})
        .unwrap();
    assert_eq!(report.results.len(), 1);

    // The generated REPLICATION.md maps the claim to its PAPER.md anchor and
    // carries the exact reproduction specs.
    let md = report.to_markdown();
    assert!(
        md.contains("PAPER.md#c1-constructive-cache-sharing-cuts-l2-misses"),
        "{md}"
    );
    assert!(md.contains("`mergesort:n=4096`"), "{md}");
    assert!(md.contains("--claim smoke-mpki"), "{md}");

    // The artifact tree materialises and reads back.
    let artifacts: ArtifactSet = report.artifacts();
    let root = std::env::temp_dir().join(format!("pdfws-replication-smoke-{}", std::process::id()));
    let written = artifacts.write_to(&root).unwrap();
    assert_eq!(written.len(), artifacts.len());
    let on_disk = std::fs::read_to_string(root.join("REPLICATION.md")).unwrap();
    assert_eq!(on_disk, md);
    assert!(root.join("claims/smoke-mpki/smoke-mpki.csv").is_file());
    std::fs::remove_dir_all(&root).unwrap();

    // Suite threading is bit-identical too: sequential run, same artifacts.
    let seq = suite.run(SuiteConfig::new(true), |_| {}).unwrap();
    assert_eq!(seq.artifacts(), artifacts);
}

/// The paper suite's anchors must all resolve to headings that exist in
/// PAPER.md — a broken anchor would make REPLICATION.md link nowhere.
#[test]
fn paper_suite_anchors_exist_in_paper_md() {
    let paper = include_str!("../PAPER.md");
    let anchors: Vec<String> = paper
        .lines()
        .filter_map(|l| l.strip_prefix("### "))
        .map(|heading| {
            // GitHub-style slug: lowercase, alphanumerics kept, spaces to
            // dashes, punctuation dropped.
            let mut slug = String::new();
            for c in heading.chars() {
                if c.is_ascii_alphanumeric() {
                    slug.push(c.to_ascii_lowercase());
                } else if c == ' ' || c == '-' {
                    slug.push('-');
                }
            }
            slug
        })
        .collect();
    let suite = ReplicationSuite::paper();
    assert_eq!(suite.claims().len(), 8);
    for claim in suite.claims() {
        assert!(
            anchors.iter().any(|a| a == &claim.anchor),
            "claim '{}' anchors to missing PAPER.md heading '{}' (have: {anchors:?})",
            claim.id,
            claim.anchor
        );
    }
}
