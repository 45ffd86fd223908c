//! Property tests for the constant-memory streaming estimators behind the
//! serving tier's sinks: the P² quantile markers must track the exact
//! buffered quantiles within tolerance across seeds,
//! stream lengths, and distributions — including the heavy-tailed regimes
//! the serving tier is built for.

use pdfws::metrics::{Quantiles, StreamingQuantiles};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draw `n` observations from the named distribution via inverse-CDF
/// transforms of one seeded uniform stream (reproducible per case).
fn sample_stream(dist: &str, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
            match dist {
                "uniform" => u * 1_000.0,
                "exponential" => -(1.0 - u).ln() * 250.0,
                // Pareto with alpha = 1.5: infinite variance, the serving
                // tier's heavy-tailed arrival/sojourn regime.
                "pareto" => 50.0 * (1.0 - u).powf(-1.0 / 1.5),
                // A latency floor plus a far-away slow mode.
                "bimodal" => {
                    if u < 0.9 {
                        u * 100.0
                    } else {
                        5_000.0 + u * 1_000.0
                    }
                }
                other => unreachable!("unknown distribution {other}"),
            }
        })
        .collect()
}

/// The fraction of observations at or below `x` — rank error is the right
/// yardstick for a quantile estimate on a heavy tail, where a tiny rank slip
/// can be a large relative *value* error without being wrong.
fn rank_of(sorted: &[f64], x: f64) -> f64 {
    let below = sorted.partition_point(|&v| v <= x);
    below as f64 / sorted.len() as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn p2_quantiles_track_buffered_ranks(
        dist in prop::sample::select(vec!["uniform", "exponential", "pareto", "bimodal"]),
        n in 2_000usize..20_000,
        seed in 0u64..1_000_000,
    ) {
        let values = sample_stream(dist, n, seed);
        let mut s = StreamingQuantiles::new();
        for &v in &values {
            s.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);

        // Exact aggregates must be exact regardless of distribution.
        let exact = Quantiles::from_values(&values);
        prop_assert_eq!(s.quantiles().count, exact.count);
        prop_assert_eq!(s.max(), exact.max);
        prop_assert!((s.mean() - exact.mean).abs() <= 1e-6 * exact.mean.abs().max(1.0));

        // Each P² estimate must land within a few rank points of its target.
        for (target, est, slack) in [
            (0.50, s.p50(), 0.06),
            (0.95, s.p95(), 0.04),
            (0.99, s.p99(), 0.02),
        ] {
            let rank = rank_of(&sorted, est);
            prop_assert!(
                (rank - target).abs() <= slack,
                "{dist} n={n} seed={seed}: p{} estimate {est} sits at rank {rank:.4}",
                target * 100.0,
            );
        }
    }

    #[test]
    fn streaming_state_is_deterministic_and_order_dependent_only(
        n in 1_000usize..5_000,
        seed in 0u64..1_000_000,
    ) {
        // Same stream twice -> bit-identical streaming state; the estimators
        // never consult ambient randomness.
        let values = sample_stream("pareto", n, seed);
        let fold = || {
            let mut s = StreamingQuantiles::new();
            for &v in &values {
                s.observe(v);
            }
            s.quantiles()
        };
        prop_assert_eq!(fold(), fold());
    }
}
