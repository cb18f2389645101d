//! Traditional (modulo power-of-two) indexing.

use super::{Geometry, SetIndexer};

/// The traditional index function: `H(a) = a mod n_set_phys`, i.e. the low
/// index bits of the block address.
///
/// This is the paper's `Base` configuration. It is sequence invariant and
/// achieves the ideal balance exactly when the stride is odd
/// (`gcd(s, 2^k) = 1`), which is why even and power-of-two strides produce
/// its worst-case conflict behaviour.
///
/// # Examples
///
/// ```
/// use primecache_core::index::{Geometry, SetIndexer, Traditional};
///
/// let trad = Traditional::new(Geometry::new(1024));
/// assert_eq!(trad.index(1024), 0); // power-of-two stride: always set 0
/// assert_eq!(trad.index(2048), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traditional {
    geom: Geometry,
}

impl Traditional {
    /// Creates the traditional indexer for the given geometry.
    #[must_use]
    pub fn new(geom: Geometry) -> Self {
        Self { geom }
    }
}

impl SetIndexer for Traditional {
    fn index(&self, block_addr: u64) -> u64 {
        self.geom.x(block_addr)
    }

    fn n_set(&self) -> u64 {
        self.geom.n_set_phys()
    }

    fn name(&self) -> &'static str {
        "Base"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equals_modulo_power_of_two() {
        let t = Traditional::new(Geometry::new(2048));
        for a in (0..100_000u64).step_by(37) {
            assert_eq!(t.index(a), a % 2048);
        }
    }

    #[test]
    fn power_of_two_stride_hits_one_set() {
        // The classic conflict pathology the paper opens with.
        let t = Traditional::new(Geometry::new(2048));
        let hits: std::collections::HashSet<u64> = (0..64u64).map(|i| t.index(i * 2048)).collect();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn unit_stride_covers_all_sets() {
        let t = Traditional::new(Geometry::new(256));
        let hits: std::collections::HashSet<u64> = (0..256u64).map(|i| t.index(i)).collect();
        assert_eq!(hits.len(), 256);
    }
}
