//! Attacker candidate generators.
//!
//! The attack engine (`crates/attack`) crafts tiny, fully deterministic
//! block-address probes and observes only miss counts. The builders here
//! pick the blocks its eviction-set tiers try — stride candidate
//! ladders and seeded random pools — so every run of a campaign probes
//! the same blocks.

use crate::util::Lcg;

/// `count` stride candidates `victim + i·stride` (i = 1..=count), keeping
/// only distinct blocks inside the `in_bits` probing window.
#[must_use]
pub fn stride_candidates(victim: u64, stride: u64, count: u32, in_bits: u32) -> Vec<u64> {
    let limit = if in_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << in_bits) - 1
    };
    (1..=u64::from(count))
        .filter_map(|i| {
            let c = victim.checked_add(i.checked_mul(stride)?)?;
            (c <= limit && c != victim).then_some(c)
        })
        .collect()
}

/// The naive attacker's stride ladder for a cache with `n_set` physical
/// sets over an `in_bits` window: multiples of the set count
/// (traditional indexing falls here), the classic `n ± 1` XOR strides,
/// and every power of two from the index width up (page-like strides;
/// prime-displacement's tag-annihilation stride `2^(2k)` is one of
/// them). None of these is a multiple of a prime modulus — which is
/// exactly the Theorem-1 hardening the attack report quantifies.
#[must_use]
pub fn naive_strides(n_set: u64, in_bits: u32) -> Vec<u64> {
    let mut out = vec![n_set, n_set + 1, n_set.saturating_sub(1).max(1), 2 * n_set];
    let k = n_set.next_power_of_two().trailing_zeros();
    for j in k..in_bits.min(63) {
        out.push(1u64 << j);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// A seeded pool of `count` distinct random blocks inside the `in_bits`
/// window, excluding `victim` (the raw material of the random-pool
/// eviction tier).
#[must_use]
pub fn random_pool(seed: u64, count: usize, in_bits: u32, victim: u64) -> Vec<u64> {
    let mask = if in_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << in_bits) - 1
    };
    let mut rng = Lcg::new(seed ^ 0xA77A_C4E5_u64);
    let mut seen = std::collections::HashSet::with_capacity(count + 1);
    seen.insert(victim);
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        let b = rng.next_u64() & mask;
        if seen.insert(b) {
            pool.push(b);
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_candidates_stay_in_window_and_distinct() {
        let c = stride_candidates(0, 1 << 20, 8, 22);
        assert_eq!(c, vec![1 << 20, 2 << 20, 3 << 20]);
        let all = stride_candidates(3, 5, 4, 26);
        assert_eq!(all, vec![8, 13, 18, 23]);
    }

    #[test]
    fn naive_strides_cover_the_classic_attacks() {
        let s = naive_strides(2048, 26);
        assert!(s.contains(&2048)); // traditional
        assert!(s.contains(&2049)); // XOR
        assert!(s.contains(&(1 << 22))); // pDisp tag annihilation
        assert!(!s.contains(&2039)); // never the prime modulus
    }

    #[test]
    fn random_pool_is_deterministic_distinct_and_avoids_victim() {
        let a = random_pool(9, 500, 20, 42);
        let b = random_pool(9, 500, 20, 42);
        assert_eq!(a, b);
        assert_eq!(
            a.iter().collect::<std::collections::HashSet<_>>().len(),
            500
        );
        assert!(!a.contains(&42));
        assert!(a.iter().all(|&x| x < (1 << 20)));
    }
}
