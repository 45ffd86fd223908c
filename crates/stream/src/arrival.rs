//! Arrival generators: when jobs enter the system.
//!
//! Every process is **open loop**: arrivals are an exogenous process that
//! does not react to the system; if service is slower than the offered load,
//! the queue grows without bound.  This is the regime where PDF's cache
//! advantage compounds: faster drains mean shorter queues mean lower sojourn
//! times at the same arrival rate.  Each process is an [`ArrivalGen`]: a
//! constant-memory stream of absolute arrival cycles.
//!
//! Which process runs is an [`ArrivalSpec`](crate::ArrivalSpec) string
//! (`poisson:rate=80`, `pareto:alpha=1.5,rate=80`, …).  All randomness is
//! seeded: the same spec and seed produce the same arrival schedule, cycle
//! for cycle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A streaming source of absolute arrival cycles: each call returns the next
/// arrival, non-decreasing, forever.  Constant memory — the serving loop pulls
/// one arrival at a time even for 10⁷-job runs.
pub trait ArrivalGen: Send {
    /// The next absolute arrival cycle.
    fn next_arrival(&mut self) -> u64;
}

/// Seed-mixing constant of the Poisson sampler.
const POISSON_SEED_MIX: u64 = 0xA881_7A15;

/// Memoryless arrivals: exponential gaps drawn by inverse CDF.
pub(crate) struct PoissonGen {
    mean_gap: f64,
    t: f64,
    rng: StdRng,
}

impl PoissonGen {
    /// Poisson arrivals at `jobs_per_mcycle` jobs per million cycles.
    pub(crate) fn new(jobs_per_mcycle: f64, seed: u64) -> Self {
        PoissonGen {
            mean_gap: 1.0e6 / jobs_per_mcycle,
            t: 0.0,
            rng: StdRng::seed_from_u64(seed ^ POISSON_SEED_MIX),
        }
    }
}

impl ArrivalGen for PoissonGen {
    fn next_arrival(&mut self) -> u64 {
        // Inverse-CDF exponential sample; clamp u away from 0 so ln is finite.
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        self.t += -u.ln() * self.mean_gap;
        self.t as u64
    }
}

/// Deterministic arrivals: cycle 0, then one every `gap` cycles.
pub(crate) struct UniformGen {
    gap: u64,
    next: u64,
}

impl UniformGen {
    /// One arrival every `gap` cycles, the first at cycle 0.
    pub(crate) fn new(gap: u64) -> Self {
        UniformGen { gap, next: 0 }
    }
}

impl ArrivalGen for UniformGen {
    fn next_arrival(&mut self) -> u64 {
        let t = self.next;
        // Saturate: a gap near u64::MAX must pin the clock, not wrap it back
        // below the previous arrival.
        self.next = self.next.saturating_add(self.gap);
        t
    }
}

/// Heavy-tailed arrivals: Pareto gaps drawn by inverse CDF.
pub(crate) struct ParetoGen {
    /// Pareto scale `x_m`, chosen so the mean gap hits the requested rate.
    xm: f64,
    inv_alpha: f64,
    t: f64,
    rng: StdRng,
}

impl ParetoGen {
    /// Tail index `alpha` (> 1) at a mean of `jobs_per_mcycle`.
    pub(crate) fn new(alpha: f64, jobs_per_mcycle: f64, seed: u64) -> Self {
        let mean_gap = 1.0e6 / jobs_per_mcycle;
        // Pareto mean is x_m * alpha / (alpha - 1); invert for x_m.
        ParetoGen {
            xm: mean_gap * (alpha - 1.0) / alpha,
            inv_alpha: 1.0 / alpha,
            t: 0.0,
            rng: StdRng::seed_from_u64(seed ^ 0x9A7E_70AA),
        }
    }
}

impl ArrivalGen for ParetoGen {
    fn next_arrival(&mut self) -> u64 {
        // Inverse-CDF Pareto sample: X = x_m * U^(-1/alpha), U ∈ (0, 1].
        let u: f64 = (1.0 - self.rng.gen::<f64>()).max(1e-12);
        self.t += self.xm * u.powf(-self.inv_alpha);
        self.t as u64
    }
}

/// Thinning (Lewis–Shedler) sampler for rate-modulated Poisson processes:
/// candidate gaps are drawn at the peak rate and accepted with probability
/// `rate(t) / peak`, which realises the exact inhomogeneous process.
pub(crate) struct ModulatedGen<F: Fn(f64) -> f64 + Send> {
    peak_rate_per_cycle: f64,
    rate_per_cycle_at: F,
    t: f64,
    rng: StdRng,
}

impl<F: Fn(f64) -> f64 + Send> ModulatedGen<F> {
    /// Arrivals at `rate_per_cycle_at(t)`, never above `peak_rate_per_cycle`.
    pub(crate) fn new(peak_rate_per_cycle: f64, rate_per_cycle_at: F, seed: u64) -> Self {
        ModulatedGen {
            peak_rate_per_cycle,
            rate_per_cycle_at,
            t: 0.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<F: Fn(f64) -> f64 + Send> ArrivalGen for ModulatedGen<F> {
    fn next_arrival(&mut self) -> u64 {
        loop {
            let u: f64 = self.rng.gen::<f64>().max(1e-12);
            self.t += -u.ln() / self.peak_rate_per_cycle;
            if self.t.is_infinite() {
                // A near-zero rate ran the clock past f64 range, where the
                // rate function is undefined: pin arrivals at the horizon.
                return u64::MAX;
            }
            let accept: f64 = self.rng.gen();
            if accept * self.peak_rate_per_cycle <= (self.rate_per_cycle_at)(self.t) {
                return self.t as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ArrivalSpec;

    fn schedule(spec: &ArrivalSpec, n: usize, seed: u64) -> Vec<u64> {
        let mut gen = spec.generator(seed);
        (0..n).map(|_| gen.next_arrival()).collect()
    }

    #[test]
    fn poisson_schedules_are_deterministic_and_increasing() {
        let p = ArrivalSpec::poisson(100.0);
        let a = schedule(&p, 50, 9);
        let b = schedule(&p, 50, 9);
        assert_eq!(a, b);
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must be ordered"
        );
    }

    #[test]
    fn poisson_rate_matches_the_mean_gap() {
        // Mean gap 10_000 cycles.
        let times = schedule(&ArrivalSpec::poisson(100.0), 2_000, 4);
        let span = *times.last().unwrap() as f64;
        let mean_gap = span / times.len() as f64;
        assert!(
            (mean_gap - 10_000.0).abs() < 1_500.0,
            "mean interarrival {mean_gap} far from 10_000"
        );
    }

    #[test]
    fn uniform_schedule_is_an_arithmetic_sequence() {
        let times = schedule(&ArrivalSpec::uniform(500), 4, 0);
        assert_eq!(times, vec![0, 500, 1000, 1500]);
    }

    #[test]
    fn uniform_gaps_near_u64_max_saturate_instead_of_wrapping() {
        let spec: ArrivalSpec = "uniform:gap=18446744073709551615".parse().unwrap();
        let times = schedule(&spec, 3, 0);
        assert_eq!(times, vec![0, u64::MAX, u64::MAX]);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn vanishing_modulated_rates_pin_the_clock_instead_of_spinning() {
        let spec: ArrivalSpec = "diurnal:mean=1e-300".parse().unwrap();
        let times = schedule(&spec, 2_000, 1);
        assert_eq!(*times.last().unwrap(), u64::MAX);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn labels_identify_the_process() {
        // Tables label a stream by its arrival spec's canonical string.
        assert_eq!(ArrivalSpec::uniform(5).to_string(), "uniform:gap=5");
        assert_eq!(ArrivalSpec::poisson(80.0).to_string(), "poisson:rate=80");
    }
}
