//! Fully-folded XOR indexing.

use super::{Geometry, SetIndexer};

/// A stronger XOR family: the index is the XOR-fold of *every* tag chunk,
/// `H(a) = x ⊕ t1 ⊕ t2 ⊕ …` — the "XOR-scheme" family of the paper's
/// references \[7, 15\] generalized to the full address.
///
/// Folding all chunks disperses aliases that the plain `t1 ⊕ x` scheme
/// misses (regions separated by multiples of `n_set²` blocks), but the
/// §3.3 criticism stands: no XOR fold is sequence invariant, so its
/// concentration — and hence its pathological exposure — remains.
///
/// # Examples
///
/// ```
/// use primecache_core::index::{Geometry, SetIndexer, XorFolded};
///
/// let xf = XorFolded::new(Geometry::new(2048));
/// // Blocks 2048² apart collide under plain XOR but not under the fold.
/// let far = 2048u64 * 2048;
/// assert_ne!(xf.index(0), xf.index(far));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorFolded {
    geom: Geometry,
}

impl XorFolded {
    /// Creates the folded-XOR indexer for the given geometry.
    #[must_use]
    pub fn new(geom: Geometry) -> Self {
        Self { geom }
    }
}

impl SetIndexer for XorFolded {
    fn index(&self, block_addr: u64) -> u64 {
        let mut h = self.geom.x(block_addr);
        let mut rest = block_addr >> self.geom.index_bits();
        while rest != 0 {
            h ^= rest & self.geom.index_mask();
            rest >>= self.geom.index_bits();
        }
        h
    }

    fn n_set(&self) -> u64 {
        self.geom.n_set_phys()
    }

    fn name(&self) -> &'static str {
        "XOR-fold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Xor;
    use crate::metrics::{concentration, strided_addresses, violation_fraction};
    use std::collections::HashSet;

    #[test]
    fn stays_in_range_and_is_deterministic() {
        let xf = XorFolded::new(Geometry::new(2048));
        for a in [0u64, 1, u32::MAX as u64, u64::MAX, 0xDEAD_BEEF_CAFE] {
            let s = xf.index(a);
            assert!(s < 2048);
            assert_eq!(s, xf.index(a));
        }
    }

    #[test]
    fn folds_chunks_plain_xor_ignores() {
        // Addresses differing only above bit 22 (t2 for 2048 sets): plain
        // XOR maps them identically, the fold separates them.
        let g = Geometry::new(2048);
        let plain = Xor::new(g);
        let folded = XorFolded::new(g);
        let a = 0x2A5u64;
        let b = a + (3 << 22);
        assert_eq!(plain.index(a), plain.index(b));
        assert_ne!(folded.index(a), folded.index(b));
    }

    #[test]
    fn spreads_very_large_power_of_two_strides() {
        let xf = XorFolded::new(Geometry::new(2048));
        // Stride n_set^2 blocks: only t2 varies.
        let sets: HashSet<u64> = (0..2048u64).map(|i| xf.index(i * 2048 * 2048)).collect();
        assert_eq!(sets.len(), 2048);
    }

    #[test]
    fn still_not_sequence_invariant() {
        // The §3.3 criticism survives the stronger fold.
        let xf = XorFolded::new(Geometry::new(2048));
        let mut bad_strides = 0;
        for s in [1u64, 3, 5, 7, 9] {
            let addrs = strided_addresses(s, 8192);
            if violation_fraction(&xf, &addrs) > 0.0
                || concentration(&xf, addrs.iter().copied()) > 1.0
            {
                bad_strides += 1;
            }
        }
        assert!(bad_strides >= 4, "{bad_strides}");
    }
}
