//! Core autoscaling: hysteresis over a ladder of core levels.
//!
//! The serving tier reuses the engine's core model — a "level" is simply a
//! core count the machine is re-calibrated for — and steps along the ladder
//! on load: scale **up** when the jobs-in-system per core exceed the high
//! water mark, **down** when they fall below the low water mark.  Hysteresis
//! comes from the gap between the two marks plus a cooldown after every
//! change, so a load hovering at one threshold cannot make the tier thrash.

/// The autoscaling policy: the core-count ladder and its thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalePolicy {
    /// Ascending core counts the tier may run at; the machine is calibrated
    /// once per level.
    pub levels: Vec<usize>,
    /// Scale up when jobs in system per core exceed this.
    pub up_jobs_per_core: f64,
    /// Scale down when jobs in system per core fall below this (must be below
    /// `up_jobs_per_core` for hysteresis to exist).
    pub down_jobs_per_core: f64,
    /// Cycles between load evaluations.
    pub interval_cycles: u64,
    /// Minimum cycles between two scaling decisions.
    pub cooldown_cycles: u64,
}

impl AutoscalePolicy {
    /// The default ladder for a machine with `max_cores`: quarter, half, and
    /// full capacity (deduplicated for small machines), evaluated every 50k
    /// cycles with a 200k-cycle cooldown.
    pub fn for_cores(max_cores: usize) -> Self {
        let mut levels: Vec<usize> = [max_cores.div_ceil(4), max_cores.div_ceil(2), max_cores]
            .into_iter()
            .collect();
        levels.dedup();
        AutoscalePolicy {
            levels,
            up_jobs_per_core: 1.5,
            down_jobs_per_core: 0.5,
            interval_cycles: 50_000,
            cooldown_cycles: 200_000,
        }
    }

    /// Check the invariants the scaler relies on.
    ///
    /// Rejects an empty or non-ascending ladder, a zero level, thresholds
    /// that are not strictly ordered (NaN included), or a zero evaluation
    /// interval.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels.is_empty() {
            return Err("autoscale ladder must be non-empty".into());
        }
        if self.levels.contains(&0) {
            return Err("autoscale levels must be positive core counts".into());
        }
        if !self.levels.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "autoscale ladder must be strictly ascending: {:?}",
                self.levels
            ));
        }
        let ordered = self.down_jobs_per_core < self.up_jobs_per_core;
        if !ordered {
            return Err(format!(
                "hysteresis requires down ({}) < up ({})",
                self.down_jobs_per_core, self.up_jobs_per_core
            ));
        }
        if self.interval_cycles == 0 {
            return Err("evaluation interval must be positive".into());
        }
        Ok(())
    }
}

/// Runtime state of the scaler: current rung, last change, next evaluation.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    policy: AutoscalePolicy,
    level_idx: usize,
    last_change: Option<u64>,
    next_eval: u64,
}

impl Autoscaler {
    /// Start at the top rung (the serving tier scales *down* from full
    /// capacity when load allows, so cold starts never violate SLOs).
    ///
    /// # Panics
    ///
    /// Panics if [`AutoscalePolicy::validate`] rejects the policy.
    pub fn new(policy: AutoscalePolicy) -> Self {
        if let Err(e) = policy.validate() {
            panic!("{e}");
        }
        let level_idx = policy.levels.len() - 1;
        Autoscaler {
            policy,
            level_idx,
            last_change: None,
            next_eval: 0,
        }
    }

    /// Cores currently online.
    pub fn cores(&self) -> usize {
        self.policy.levels[self.level_idx]
    }

    /// The cycle of the next scheduled evaluation.
    pub fn next_eval(&self) -> u64 {
        self.next_eval
    }

    /// Evaluate the load at `now`; returns the new core count if this tick
    /// changed the level.  `jobs_in_system` counts active plus queued jobs.
    pub fn observe(&mut self, now: u64, jobs_in_system: usize) -> Option<usize> {
        if now < self.next_eval {
            return None;
        }
        self.next_eval = now.saturating_add(self.policy.interval_cycles);
        if now < self.cooldown_end() {
            return None;
        }
        self.level_idx = self.step(jobs_in_system)?;
        self.last_change = Some(now);
        Some(self.cores())
    }

    /// The first evaluation time at which [`observe`](Self::observe) could
    /// change the level while the load stays at `jobs_in_system`: `None`
    /// (never) when the load sits inside the hysteresis band or the ladder
    /// ends in the direction it pulls, otherwise the end of the cooldown.
    /// Every evaluation before it returns `None` and only moves the schedule
    /// on, which is what [`pass`](Self::pass) does.
    pub fn quiet_until(&self, jobs_in_system: usize) -> Option<u64> {
        self.step(jobs_in_system).map(|_| self.cooldown_end())
    }

    /// Take the on-schedule evaluation at [`next_eval`](Self::next_eval) as
    /// one that changes nothing: the same as `observe(next_eval, jobs)` for a
    /// load whose [`quiet_until`](Self::quiet_until) lies past `next_eval`.
    pub fn pass(&mut self) {
        self.next_eval = self.next_eval.saturating_add(self.policy.interval_cycles);
    }

    /// The first cycle a level change is allowed at (0 before the first
    /// change; saturating, so a huge cooldown means "not before `u64::MAX`").
    fn cooldown_end(&self) -> u64 {
        self.last_change
            .map_or(0, |last| last.saturating_add(self.policy.cooldown_cycles))
    }

    /// The rung this load pulls the scaler to: one up above the high mark,
    /// one down below the low mark, `None` inside the band or past an end of
    /// the ladder.
    fn step(&self, jobs_in_system: usize) -> Option<usize> {
        let per_core = jobs_in_system as f64 / self.cores() as f64;
        if per_core > self.policy.up_jobs_per_core && self.level_idx + 1 < self.policy.levels.len()
        {
            Some(self.level_idx + 1)
        } else if per_core < self.policy.down_jobs_per_core && self.level_idx > 0 {
            Some(self.level_idx - 1)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy {
            levels: vec![2, 4, 8],
            up_jobs_per_core: 1.5,
            down_jobs_per_core: 0.5,
            interval_cycles: 100,
            cooldown_cycles: 1_000,
        }
    }

    #[test]
    fn default_ladder_ends_at_full_capacity() {
        let p = AutoscalePolicy::for_cores(8);
        assert_eq!(p.levels, vec![2, 4, 8]);
        assert_eq!(p.validate(), Ok(()));
        let p = AutoscalePolicy::for_cores(1);
        assert_eq!(p.levels, vec![1]);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn starts_at_the_top_rung() {
        assert_eq!(Autoscaler::new(policy()).cores(), 8);
    }

    #[test]
    fn scales_down_under_light_load_and_up_under_heavy() {
        let mut s = Autoscaler::new(policy());
        // Light load: 1 job on 8 cores → step down one rung per cooldown.
        assert_eq!(s.observe(0, 1), Some(4));
        assert_eq!(s.observe(100, 1), None, "cooldown holds");
        assert_eq!(s.observe(1_000, 1), Some(2));
        assert_eq!(s.observe(2_000, 1), None, "already at the bottom rung");
        // Heavy load: 40 jobs on 2 cores → climb back up.
        assert_eq!(s.observe(3_000, 40), Some(4));
        assert_eq!(s.observe(4_000, 40), Some(8));
        assert_eq!(s.observe(5_000, 40), None, "already at the top rung");
    }

    #[test]
    fn hysteresis_band_makes_no_change() {
        let mut s = Autoscaler::new(policy());
        // 8 cores x ~1.0 jobs/core sits between the marks: stable forever.
        for tick in 0..20 {
            assert_eq!(s.observe(tick * 100, 8), None);
        }
        assert_eq!(s.cores(), 8);
    }

    #[test]
    fn evaluations_respect_the_interval() {
        let mut s = Autoscaler::new(policy());
        assert_eq!(s.observe(0, 1), Some(4));
        // Off-schedule samples are ignored entirely.
        assert_eq!(s.observe(50, 1_000), None);
        assert_eq!(s.next_eval(), 100);
    }

    #[test]
    fn huge_cooldowns_saturate_instead_of_wrapping() {
        let mut s = Autoscaler::new(AutoscalePolicy {
            cooldown_cycles: u64::MAX,
            ..policy()
        });
        assert_eq!(s.observe(0, 8), None, "8 jobs on 8 cores sit in the band");
        assert_eq!(s.observe(100, 1), Some(4));
        // `100 + u64::MAX` saturates: the cooldown holds until the end of time.
        assert_eq!(s.observe(200, 100), None);
        assert_eq!(s.cores(), 4);
        assert_eq!(s.quiet_until(100), Some(u64::MAX));
        let mut s = Autoscaler::new(AutoscalePolicy {
            interval_cycles: u64::MAX,
            ..policy()
        });
        assert_eq!(s.observe(5, 8), None);
        assert_eq!(s.next_eval(), u64::MAX);
        s.pass();
        assert_eq!(s.next_eval(), u64::MAX);
    }

    #[test]
    fn quiet_until_is_never_in_the_band_or_past_the_ladder() {
        let mut s = Autoscaler::new(policy());
        assert_eq!(s.quiet_until(8), None, "in the band");
        assert_eq!(s.quiet_until(100), None, "already at the top rung");
        assert_eq!(s.quiet_until(1), Some(0), "no change yet, so no cooldown");
        assert_eq!(s.observe(0, 1), Some(4));
        assert_eq!(s.quiet_until(1), Some(1_000));
        assert_eq!(s.quiet_until(100), Some(1_000));
        assert_eq!(s.observe(1_000, 1), Some(2));
        assert_eq!(s.quiet_until(0), None, "already at the bottom rung");
    }

    fn cycles(small: std::ops::Range<u64>) -> BoxedStrategy<u64> {
        prop_oneof![
            small,
            (u64::MAX - 1_000)..u64::MAX,
            prop::sample::select(vec![0, 1 << 40, 1 << 53, 1 << 62, u64::MAX]),
        ]
    }

    proptest! {
        // Against `observe` itself: while the load holds, every on-schedule
        // evaluation before `quiet_until` changes nothing and moves the
        // schedule exactly as `pass` does, and the first one at or after it
        // steps one rung in the direction the load pulls.
        #[test]
        fn quiet_until_predicts_observe(
            rungs in prop::collection::vec(1usize..5, 1..6),
            marks in prop::sample::select(vec![(0.5, 1.5), (0.25, 0.5), (1.0, 4.0), (0.0, 0.1)]),
            timing in (cycles(1..200_000), cycles(0..5_000_000)),
            steps in prop::collection::vec((0usize..64, 0u64..4), 1..40),
        ) {
            let levels: Vec<usize> = rungs
                .iter()
                .scan(0, |top, gap| {
                    *top += gap;
                    Some(*top)
                })
                .collect();
            let (interval_cycles, cooldown_cycles) = (timing.0.max(1), timing.1);
            let mut s = Autoscaler::new(AutoscalePolicy {
                levels: levels.clone(),
                down_jobs_per_core: marks.0,
                up_jobs_per_core: marks.1,
                interval_cycles,
                cooldown_cycles,
            });
            for (load, action) in steps {
                let idx = levels.iter().position(|&c| c == s.cores()).unwrap();
                let per_core = load as f64 / s.cores() as f64;
                let expected = if per_core > marks.1 && idx + 1 < levels.len() {
                    Some(levels[idx + 1])
                } else if per_core < marks.0 && idx > 0 {
                    Some(levels[idx - 1])
                } else {
                    None
                };
                let quiet = s.quiet_until(load);
                prop_assert_eq!(quiet.is_some(), expected.is_some());
                for _ in 0..32 {
                    let now = s.next_eval();
                    if quiet.is_some_and(|q| now >= q) {
                        break;
                    }
                    let mut passed = s.clone();
                    passed.pass();
                    prop_assert_eq!(s.observe(now, load), None);
                    prop_assert_eq!(s.next_eval(), passed.next_eval());
                }
                let Some(quiet) = quiet else {
                    prop_assert_eq!(s.clone().observe(u64::MAX, load), None);
                    continue;
                };
                if action == 0 {
                    continue;
                }
                // The last on-schedule evaluation before the quiet time, then
                // the first one at or after it.
                let now = s.next_eval();
                if now < quiet {
                    let last = now + (quiet - 1 - now) / interval_cycles * interval_cycles;
                    prop_assert_eq!(s.observe(last, load), None);
                    prop_assert!(s.next_eval() >= quiet);
                }
                let now = s.next_eval();
                prop_assert_eq!(s.observe(now, load), expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_ladders_are_rejected() {
        let mut p = policy();
        p.levels = vec![4, 2];
        Autoscaler::new(p);
    }
}
