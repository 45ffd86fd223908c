//! The cache power-down axis: variants of one CMP configuration whose shared
//! L2 is scaled down, modelling powered-off cache segments.  The power-down
//! experiment and claim C6 run it.

use crate::config::CmpConfig;
use crate::error::ModelError;

/// Produce variants of `base` whose shared L2 is scaled by each factor in
/// `fractions` (e.g. `[1.0, 0.75, 0.5, 0.25]`), modelling powering down segments
/// of the cache.  The L2 latency is kept at the full-size value: a powered-down
/// segment saves leakage, it does not make the remaining banks closer.
pub fn sweep_l2_fraction(
    base: &CmpConfig,
    fractions: &[f64],
) -> Result<Vec<CmpConfig>, ModelError> {
    fractions
        .iter()
        .map(|&f| {
            if !(0.0..=1.0).contains(&f) || f == 0.0 {
                return Err(ModelError::InvalidSweepParameter {
                    reason: format!("L2 fraction {f} outside (0, 1]"),
                });
            }
            let mut cfg = *base;
            let set_bytes = cfg.l2.line_bytes * cfg.l2.associativity;
            let target = (cfg.l2.capacity_bytes as f64 * f) as usize;
            let sets = (target / set_bytes).max(1);
            let sets_p2 = if sets.is_power_of_two() {
                sets
            } else {
                sets.next_power_of_two() / 2
            }
            .max(1);
            cfg.l2.capacity_bytes = sets_p2 * set_bytes;
            cfg.validate()?;
            Ok(cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::default_config;

    #[test]
    fn l2_fraction_sweep_shrinks_capacity_monotonically() {
        let base = default_config(8).unwrap();
        let sweep = sweep_l2_fraction(&base, &[1.0, 0.5, 0.25]).unwrap();
        assert_eq!(sweep[0].l2.capacity_bytes, base.l2.capacity_bytes);
        assert!(
            sweep[1].l2.capacity_bytes <= base.l2.capacity_bytes / 2 + base.l2.capacity_bytes / 8
        );
        assert!(sweep[2].l2.capacity_bytes < sweep[1].l2.capacity_bytes);
        for cfg in &sweep {
            cfg.validate().unwrap();
            assert_eq!(
                cfg.l2.latency_cycles, base.l2.latency_cycles,
                "power-down keeps latency"
            );
        }
    }

    #[test]
    fn l2_fraction_rejects_zero_and_above_one() {
        let base = default_config(4).unwrap();
        assert!(sweep_l2_fraction(&base, &[0.0]).is_err());
        assert!(sweep_l2_fraction(&base, &[1.5]).is_err());
    }
}
