//! Replacement policies for the cache's sets.
//!
//! The study's caches use LRU; FIFO and a seeded pseudo-random policy are provided
//! for sensitivity experiments and to exercise the policy abstraction in tests.
//!
//! The policy state itself lives inside [`Cache`](crate::cache::Cache) as flat
//! per-line stamp and per-set RNG arrays (one contiguous allocation each, so the
//! access hot path touches no nested structures); this module holds the policy
//! enum and the pure decision helpers that operate on those arrays.

use serde::{Deserialize, Serialize};

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (the default for every configuration in
    /// the paper).
    #[default]
    Lru,
    /// Evict the way that was filled earliest.
    Fifo,
    /// Evict a pseudo-random way (deterministic: xorshift seeded per set).
    Random,
}

/// Initial xorshift64* state for set `set_index`, chosen so every set draws a
/// different deterministic victim sequence.
#[inline]
pub(crate) fn set_rng_seed(set_index: usize) -> u64 {
    0x9E37_79B9_7F4A_7C15 ^ (set_index as u64 + 1)
}

/// Advance a set's xorshift64* state and return the next pseudo-random draw.
#[inline]
pub(crate) fn next_random(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The way with the smallest stamp — the LRU way when stamps are recency
/// timestamps, the FIFO head when they are fill timestamps.  Callers only ask
/// for a victim once every way has been filled, and the stamp clock is a
/// monotone counter, so the stamps are distinct.
#[inline]
pub(crate) fn oldest_way(stamps: &[u32]) -> usize {
    debug_assert!(!stamps.is_empty(), "sets have at least one way");
    let mut way = 0;
    let mut best = stamps[0];
    for (w, &stamp) in stamps.iter().enumerate().skip(1) {
        if stamp < best {
            best = stamp;
            way = w;
        }
    }
    way
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oldest_way_picks_the_smallest_stamp() {
        assert_eq!(oldest_way(&[5, 3, 9, 4]), 1);
        assert_eq!(oldest_way(&[1]), 0);
        // First way wins a (theoretical) tie, matching the previous
        // `min_by_key` behavior.
        assert_eq!(oldest_way(&[2, 2, 2]), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_differs_across_sets() {
        let mut a = set_rng_seed(7);
        let mut b = set_rng_seed(7);
        let seq_a: Vec<u64> = (0..32).map(|_| next_random(&mut a) % 8).collect();
        let seq_b: Vec<u64> = (0..32).map(|_| next_random(&mut b) % 8).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().all(|&w| w < 8));
        let mut c = set_rng_seed(8);
        let seq_c: Vec<u64> = (0..32).map(|_| next_random(&mut c) % 8).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn default_policy_is_lru() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }
}
