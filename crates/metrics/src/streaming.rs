//! Constant-memory streaming statistics: P² quantile estimation.
//!
//! [`Quantiles::from_values`](crate::Quantiles::from_values) needs every
//! observation buffered, which caps sustained job-stream runs at whatever fits
//! in memory.  The serving tier instead folds each observation into O(1)
//! state:
//!
//! * [`P2Quantile`] — the P² algorithm (Jain & Chlamtac, CACM 1985): five
//!   markers tracking one target quantile, adjusted per observation with a
//!   piecewise-parabolic height update.  Exact below five observations,
//!   approximate (and tolerance-tested) beyond.
//! * [`StreamingQuantiles`] — the bundle the sinks use: count, running mean,
//!   min/max, and P² markers for p50/p95/p99, exported as an ordinary
//!   [`Quantiles`] summary.
//!
//! Both are deterministic: the same observation sequence produces
//! bit-identical state.

use crate::summary::Quantiles;

/// Streaming estimator for a single quantile via the P² algorithm.
///
/// Holds exactly five marker heights/positions regardless of how many
/// observations it absorbs.  Until five observations have been seen the
/// estimate is exact (computed from the sorted buffer of what's there).
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    /// Target quantile in (0, 1), e.g. 0.99.
    p: f64,
    /// Observations absorbed so far.
    count: u64,
    /// Marker heights (the first `count` entries are the init buffer while
    /// `count < 5`).
    heights: [f64; 5],
    /// Marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Per-observation increments of the desired positions.
    rates: [f64; 5],
}

impl P2Quantile {
    /// Estimator for the quantile `p` (`0 < p < 1`).
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1), got {p}");
        P2Quantile {
            p,
            count: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            rates: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
        }
    }

    /// The target quantile this estimator tracks.
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Observations absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold one observation into the marker state.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            // Initialisation phase: collect and keep sorted.
            let n = self.count as usize;
            self.heights[n - 1] = x;
            self.heights[..n].sort_by(f64::total_cmp);
            return;
        }

        // Find the cell k such that heights[k] <= x < heights[k+1], clamping
        // x into the observed range (markers 0 and 4 track min and max).
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // One of the three interior cells.  The heights stay sorted, so
            // the cell is the number of interior markers at or below `x`.
            let h = &self.heights;
            (x >= h[1]) as usize + (x >= h[2]) as usize + (x >= h[3]) as usize
        };

        // Markers above the cell move up a rank (adding 0.0 leaves the
        // others' bits alone).
        for i in 0..5 {
            self.positions[i] += if i > k { 1.0 } else { 0.0 };
        }
        for i in 0..5 {
            self.desired[i] += self.rates[i];
        }

        // Adjust the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let step_up = self.positions[i + 1] - self.positions[i] > 1.0;
            let step_down = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && step_up) || (d <= -1.0 && step_down) {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    /// Piecewise-parabolic (P²) height prediction for marker `i` moved by `d`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.heights, &self.positions);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabolic prediction leaves the bracket.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate of the tracked quantile (0.0 before any observation).
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count <= 5 {
            // Exact nearest-rank on the init buffer, matching
            // `Quantiles::from_values` semantics for tiny samples.
            let n = self.count as usize;
            let rank = ((self.p * n as f64).ceil() as usize).max(1);
            return self.heights[(rank - 1).min(n - 1)];
        }
        self.heights[2]
    }
}

/// The constant-memory counterpart of [`Quantiles::from_values`]: count, mean,
/// min/max exactly; p50/p95/p99 via one [`P2Quantile`] each.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingQuantiles {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl Default for StreamingQuantiles {
    fn default() -> Self {
        StreamingQuantiles::new()
    }
}

impl StreamingQuantiles {
    /// An empty summary.
    pub fn new() -> Self {
        StreamingQuantiles {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }

    /// Fold one observation into every tracked statistic.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.p50.observe(x);
        self.p95.observe(x);
        self.p99.observe(x);
    }

    /// Observations absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0.0 before any observation).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (0.0 before any observation).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 before any observation).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Current p50 estimate.
    pub fn p50(&self) -> f64 {
        self.p50.estimate()
    }

    /// Current p95 estimate.
    pub fn p95(&self) -> f64 {
        self.p95.estimate()
    }

    /// Current p99 estimate.
    pub fn p99(&self) -> f64 {
        self.p99.estimate()
    }

    /// Export as the summary type the buffered paths produce.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            count: self.count as usize,
            mean: self.mean(),
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
            max: self.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::percentile;

    #[test]
    fn p2_is_exact_below_five_observations() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), 0.0);
        for x in [5.0, 1.0, 3.0] {
            q.observe(x);
        }
        // Nearest-rank median of {1, 3, 5} is 3.
        assert_eq!(q.estimate(), 3.0);
    }

    #[test]
    fn p2_tracks_the_median_of_a_uniform_ramp() {
        let mut q = P2Quantile::new(0.5);
        for i in 0..10_000 {
            q.observe(i as f64);
        }
        let rel = (q.estimate() - 5_000.0).abs() / 5_000.0;
        assert!(rel < 0.02, "median estimate {} off by {rel}", q.estimate());
    }

    #[test]
    fn p2_tail_estimate_close_to_exact_on_shuffled_input() {
        // Deterministic shuffle of 0..n via a multiplicative permutation.
        let n: u64 = 9_973; // prime, so the map below is a bijection
        let mut q = P2Quantile::new(0.95);
        let mut values = Vec::new();
        for i in 0..n {
            let x = ((i * 4_801) % n) as f64;
            q.observe(x);
            values.push(x);
        }
        let exact = percentile(&values, 95.0);
        let rel = (q.estimate() - exact).abs() / exact;
        assert!(rel < 0.05, "p95 {} vs exact {exact}", q.estimate());
    }

    /// `observe` as first written: the cell by a first-match scan and the
    /// rank update by a branch per marker.
    fn observe_by_scan(q: &mut P2Quantile, x: f64) {
        q.count += 1;
        if q.count <= 5 {
            let n = q.count as usize;
            q.heights[n - 1] = x;
            q.heights[..n].sort_by(f64::total_cmp);
            return;
        }
        let k = if x < q.heights[0] {
            q.heights[0] = x;
            0
        } else if x >= q.heights[4] {
            q.heights[4] = x;
            3
        } else {
            (0..4)
                .find(|&i| x >= q.heights[i] && x < q.heights[i + 1])
                .unwrap_or(0)
        };
        for i in (k + 1)..5 {
            q.positions[i] += 1.0;
        }
        for i in 0..5 {
            q.desired[i] += q.rates[i];
        }
        for i in 1..4 {
            let d = q.desired[i] - q.positions[i];
            let step_up = q.positions[i + 1] - q.positions[i] > 1.0;
            let step_down = q.positions[i - 1] - q.positions[i] < -1.0;
            if (d >= 1.0 && step_up) || (d <= -1.0 && step_down) {
                let d = d.signum();
                let parabolic = q.parabolic(i, d);
                q.heights[i] = if q.heights[i - 1] < parabolic && parabolic < q.heights[i + 1] {
                    parabolic
                } else {
                    q.linear(i, d)
                };
                q.positions[i] += d;
            }
        }
    }

    #[test]
    fn p2_marker_state_matches_a_first_match_scan_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let streams: Vec<Vec<f64>> = vec![
            (0..20_000)
                .map(|_| -(1.0 - rng.gen::<f64>()).ln() * 1e5)
                .collect(),
            (0..20_000).map(|_| rng.gen_range(0..4u64) as f64).collect(),
            (0..5_000).map(|i| i as f64).collect(),
            (0..5_000).map(|i| -(i as f64)).collect(),
            vec![7.0; 1_000],
        ];
        let bits = |q: &P2Quantile| {
            let mut v: Vec<u64> = q.heights.iter().map(|h| h.to_bits()).collect();
            v.extend(q.positions.iter().chain(&q.desired).map(|h| h.to_bits()));
            v
        };
        for stream in &streams {
            for p in [0.5, 0.95, 0.99] {
                let (mut fast, mut reference) = (P2Quantile::new(p), P2Quantile::new(p));
                for &x in stream {
                    fast.observe(x);
                    observe_by_scan(&mut reference, x);
                    assert_eq!(bits(&fast), bits(&reference), "p={p} after {x}");
                }
            }
        }
    }

    #[test]
    fn streaming_quantiles_match_buffered_on_a_ramp() {
        let values: Vec<f64> = (0..50_000).map(|i| i as f64).collect();
        let exact = Quantiles::from_values(&values);
        let mut s = StreamingQuantiles::new();
        for &v in &values {
            s.observe(v);
        }
        let est = s.quantiles();
        assert_eq!(est.count, exact.count);
        assert_eq!(est.max, exact.max);
        assert!((est.mean - exact.mean).abs() / exact.mean < 1e-9);
        for (name, a, b) in [
            ("p50", est.p50, exact.p50),
            ("p95", est.p95, exact.p95),
            ("p99", est.p99, exact.p99),
        ] {
            assert!((a - b).abs() / b < 0.02, "{name}: {a} vs {b}");
        }
    }

    #[test]
    fn empty_streaming_quantiles_are_all_zero() {
        let s = StreamingQuantiles::new();
        let q = s.quantiles();
        assert_eq!(q.count, 0);
        assert_eq!(q.mean, 0.0);
        assert_eq!(q.p99, 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn p2_rejects_out_of_range_quantiles() {
        let _ = P2Quantile::new(1.0);
    }
}
