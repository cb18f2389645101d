//! XOR-based indexing.

use super::{Geometry, SetIndexer};

/// The XOR index function: `H(a) = t1 ⊕ x`, where `x` is the index field
/// and `t1` the first tag chunk (Fig. 1).
///
/// The paper picks this as "one of the most prominent examples" of
/// pseudo-random hashing. It achieves the ideal balance for most strides
/// but is **never** sequence invariant, so its concentration is non-ideal —
/// the root of its pathological cases (§3.3): e.g. with
/// `s = n_set - 1` the sequence collapses onto a single set
/// (`0, 15, 15, 15, …` in the paper's 16-set example).
///
/// # Examples
///
/// ```
/// use primecache_core::index::{Geometry, SetIndexer, Xor};
///
/// let xor = Xor::new(Geometry::new(16));
/// // Stride 15 from address 0: 0 then 15, 15, 15, ... (paper §3.3).
/// let sets: Vec<u64> = (0..4u64).map(|i| xor.index(i * 15)).collect();
/// assert_eq!(sets, [0, 15, 15, 15]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xor {
    geom: Geometry,
}

impl Xor {
    /// Creates the XOR indexer for the given geometry.
    #[must_use]
    pub fn new(geom: Geometry) -> Self {
        Self { geom }
    }
}

impl SetIndexer for Xor {
    fn index(&self, block_addr: u64) -> u64 {
        self.geom.x(block_addr) ^ self.geom.tag_chunk(block_addr, 1)
    }

    fn n_set(&self) -> u64 {
        self.geom.n_set_phys()
    }

    fn name(&self) -> &'static str {
        "XOR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn stays_within_range() {
        let x = Xor::new(Geometry::new(2048));
        for a in (0..1_000_000u64).step_by(97) {
            assert!(x.index(a) < 2048);
        }
    }

    #[test]
    fn spreads_power_of_two_strides() {
        // The pathology XOR *fixes*: stride == n_set maps to distinct sets.
        let x = Xor::new(Geometry::new(2048));
        let sets: HashSet<u64> = (0..2048u64).map(|i| x.index(i * 2048)).collect();
        assert_eq!(sets.len(), 2048);
    }

    #[test]
    fn paper_example_stride_15_of_16_sets() {
        let x = Xor::new(Geometry::new(16));
        let sets: Vec<u64> = (0..8u64).map(|i| x.index(i * 15)).collect();
        assert_eq!(&sets[..4], &[0, 15, 15, 15]);
        // Balance is terrible: nearly everything lands on one set.
        let distinct: HashSet<u64> = sets.iter().copied().collect();
        assert!(distinct.len() <= 3);
    }

    #[test]
    fn preserves_unit_stride_within_one_tag_region() {
        // Within a fixed tag, XOR is a permutation of the sets.
        let x = Xor::new(Geometry::new(256));
        let base = 7u64 << 8; // tag chunk = 7
        let sets: HashSet<u64> = (0..256u64).map(|i| x.index(base + i)).collect();
        assert_eq!(sets.len(), 256);
    }
}
