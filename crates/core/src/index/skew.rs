//! Per-bank index functions for skewed-associative caches.
//!
//! A skewed-associative cache splits its capacity into direct-mapped banks
//! and indexes each bank with a *different* function, so blocks that
//! conflict in one bank usually do not conflict in the others. The paper
//! evaluates two families over Seznec's four-bank design (§3.3, §5.3):
//!
//! * `SKW` — Seznec's circular-shift + XOR functions ([`SkewXorBank`]), and
//! * `skw+pDisp` — prime displacement with a distinct factor per bank
//!   ([`SkewDispBank`], factors 9/19/31/37 in the paper's evaluation).

use super::{Geometry, PrimeDisplacement, SetIndexer};

/// Displacement factors the paper assigns to the four banks of the
/// `skw+pDisp` configuration (§4, "Prime Numbers").
pub const SKEW_DISP_FACTORS: [u64; 4] = [9, 19, 31, 37];

/// Seznec-style skewing function for one direct-mapped bank:
/// `H_k(a) = rotate(t1, k) ⊕ x`, where the first tag chunk is circularly
/// shifted by the bank number before XOR-ing with the index field.
///
/// The differing shift amounts per bank yield "a form of a perfect
/// shuffle" (§3.3): blocks mapping together in bank `k` are dispersed in
/// bank `k' ≠ k`.
///
/// # Examples
///
/// ```
/// use primecache_core::index::{Geometry, SetIndexer, SkewXorBank};
///
/// let g = Geometry::new(512); // one bank of a 4-bank 2048-line cache
/// let b0 = SkewXorBank::new(g, 0);
/// let b1 = SkewXorBank::new(g, 1);
/// // Same block, different banks, (usually) different sets.
/// assert_ne!(b0.index(0xABCDE), b1.index(0xABCDE));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewXorBank {
    geom: Geometry,
    bank: u32,
}

impl SkewXorBank {
    /// Creates the skewing function for bank number `bank`.
    ///
    /// The shift amount is `bank mod index_bits`, so any bank count works
    /// with any geometry.
    #[must_use]
    pub fn new(geom: Geometry, bank: u32) -> Self {
        Self { geom, bank }
    }

    /// Circularly rotates the low `index_bits` of `v` left by the bank's
    /// shift amount.
    fn rotate(&self, v: u64) -> u64 {
        let bits = self.geom.index_bits();
        let k = self.bank % bits;
        if k == 0 {
            return v;
        }
        let mask = self.geom.index_mask();
        ((v << k) | (v >> (bits - k))) & mask
    }
}

impl SetIndexer for SkewXorBank {
    fn index(&self, block_addr: u64) -> u64 {
        let x = self.geom.x(block_addr);
        let t1 = self.geom.tag_chunk(block_addr, 1);
        self.rotate(t1) ^ x
    }

    fn n_set(&self) -> u64 {
        self.geom.n_set_phys()
    }

    fn name(&self) -> &'static str {
        "SKW"
    }
}

/// Prime-displacement skewing function for one direct-mapped bank:
/// `H_k(a) = (p_k·T + x) mod n_set`, with a distinct odd factor `p_k`
/// per bank ([`SKEW_DISP_FACTORS`] in the paper's evaluation).
///
/// "To ensure inter-bank dispersion, a different prime number for each bank
/// is used" (§3.3).
///
/// # Examples
///
/// ```
/// use primecache_core::index::{Geometry, SetIndexer, SkewDispBank};
///
/// let g = Geometry::new(512);
/// let b = SkewDispBank::new(g, 19);
/// assert!(b.index(123_456_789) < 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewDispBank {
    inner: PrimeDisplacement,
}

impl SkewDispBank {
    /// Creates the displacement skewing function with factor `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is even (see [`PrimeDisplacement::new`]).
    #[must_use]
    pub fn new(geom: Geometry, factor: u64) -> Self {
        Self {
            inner: PrimeDisplacement::new(geom, factor),
        }
    }
}

impl SetIndexer for SkewDispBank {
    fn index(&self, block_addr: u64) -> u64 {
        self.inner.index(block_addr)
    }

    fn n_set(&self) -> u64 {
        self.inner.n_set()
    }

    fn name(&self) -> &'static str {
        "skw+pDisp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn banks_disperse_conflicting_blocks() {
        // Blocks that collide in bank 0 should mostly not collide in bank 1.
        let g = Geometry::new(512);
        let b0 = SkewXorBank::new(g, 0);
        let b1 = SkewXorBank::new(g, 1);
        // Gather blocks mapping to set 0 in bank 0, with varying tag chunks:
        // a = (t1 << 9) | x with x = t1 gives t1 ^ x = 0 in bank 0.
        let conflicting: Vec<u64> = (0..512u64).map(|t1| (t1 << 9) | t1).take(16).collect();
        assert!(conflicting.iter().all(|&a| b0.index(a) == 0));
        assert!(conflicting.len() >= 2);
        let bank1_sets: HashSet<u64> = conflicting.iter().map(|&a| b1.index(a)).collect();
        assert!(bank1_sets.len() > 1, "bank 1 must split bank 0's conflicts");
    }

    #[test]
    fn disp_banks_disperse_conflicting_blocks() {
        let g = Geometry::new(512);
        let b0 = SkewDispBank::new(g, SKEW_DISP_FACTORS[0]);
        let b1 = SkewDispBank::new(g, SKEW_DISP_FACTORS[1]);
        let conflicting: Vec<u64> = (0..60_000u64)
            .filter(|&a| b0.index(a) == 0)
            .take(16)
            .collect();
        assert!(conflicting.len() >= 2);
        let bank1_sets: HashSet<u64> = conflicting.iter().map(|&a| b1.index(a)).collect();
        assert!(bank1_sets.len() > 1);
    }

    #[test]
    fn rotation_is_a_permutation() {
        let g = Geometry::new(512);
        for bank in 0..4 {
            let f = SkewXorBank::new(g, bank);
            let out: HashSet<u64> = (0..512u64).map(|v| f.rotate(v)).collect();
            assert_eq!(out.len(), 512, "bank {bank}");
        }
    }

    #[test]
    fn bank_shift_wraps_by_index_bits() {
        let g = Geometry::new(16); // 4 index bits
        let f0 = SkewXorBank::new(g, 0);
        let f4 = SkewXorBank::new(g, 4); // shift 4 mod 4 == 0
        for a in 0..4096u64 {
            assert_eq!(f0.index(a), f4.index(a));
        }
    }

    #[test]
    fn paper_factors_are_four_distinct_odds() {
        let set: HashSet<u64> = SKEW_DISP_FACTORS.iter().copied().collect();
        assert_eq!(set.len(), 4);
        assert!(SKEW_DISP_FACTORS.iter().all(|f| f % 2 == 1));
    }
}
