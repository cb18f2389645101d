//! Prime modulo indexing (pMod).

use super::{FastMod, Geometry, SetIndexer};
use primecache_primes::prev_prime;

/// The prime modulo index function: `H(a) = a mod n_set`, where `n_set` is
/// the largest prime not exceeding the physical set count.
///
/// This is the paper's headline scheme. It satisfies both ideal properties
/// of §2.2 — ideal balance for every stride not a multiple of `n_set`
/// (since `gcd(s, n_set) = 1` for prime `n_set`), and sequence invariance —
/// so it achieves ideal concentration and is resistant to pathological
/// behaviour. The `Δ = n_set_phys - n_set` wasted sets are the (negligible)
/// fragmentation of Table 1.
///
/// The software model reduces by the precomputed reciprocal
/// ([`FastMod`]) instead of a hardware-division `%` — exact for every
/// address, division-free on the per-access path; the bit-level hardware
/// schemes that replace the division with narrow adds live in
/// [`crate::hw`] and are tested for equivalence against this reference.
///
/// # Examples
///
/// ```
/// use primecache_core::index::{Geometry, PrimeModulo, SetIndexer};
///
/// let pmod = PrimeModulo::new(Geometry::new(2048));
/// assert_eq!(pmod.n_set(), 2039);
/// assert_eq!(pmod.delta(), 9);
/// assert_eq!(pmod.index(2048), 9); // 2048 mod 2039
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimeModulo {
    geom: Geometry,
    modulo: FastMod,
}

impl PrimeModulo {
    /// Creates a prime-modulo indexer using the largest prime
    /// `<= geom.n_set_phys()`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has fewer than 2 physical sets (no prime
    /// below), which [`Geometry`] already prevents.
    #[must_use]
    pub fn new(geom: Geometry) -> Self {
        let n_set = prev_prime(geom.n_set_phys()).expect("geometry guarantees n_set_phys >= 2");
        Self {
            geom,
            modulo: FastMod::new(n_set),
        }
    }

    /// Creates a prime-modulo indexer with an explicit modulus.
    ///
    /// This exists for experiments with non-prime moduli such as
    /// `n_set_phys - 1` (the paper's §3.1 aside: often a product of two
    /// primes and "at least a good choice for most stride access patterns").
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero or exceeds the physical set count.
    #[must_use]
    pub fn with_modulus(geom: Geometry, modulus: u64) -> Self {
        assert!(modulus > 0, "modulus must be nonzero");
        assert!(
            modulus <= geom.n_set_phys(),
            "modulus {modulus} exceeds physical sets {}",
            geom.n_set_phys()
        );
        Self {
            geom,
            modulo: FastMod::new(modulus),
        }
    }

    /// Wasted sets `Δ = n_set_phys - n_set` (Table 1).
    #[must_use]
    pub fn delta(&self) -> u64 {
        self.geom.n_set_phys() - self.modulo.divisor()
    }

    /// Fraction of physical sets wasted (fragmentation, Table 1).
    #[must_use]
    pub fn fragmentation(&self) -> f64 {
        self.delta() as f64 / self.geom.n_set_phys() as f64
    }
}

impl SetIndexer for PrimeModulo {
    fn index(&self, block_addr: u64) -> u64 {
        let set = self.modulo.reduce(block_addr);
        debug_assert_eq!(set, block_addr % self.modulo.divisor());
        set
    }

    fn n_set(&self) -> u64 {
        self.modulo.divisor()
    }

    fn name(&self) -> &'static str {
        "pMod"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn uses_table1_primes() {
        for (phys, prime) in [(256u64, 251u64), (2048, 2039), (8192, 8191)] {
            let p = PrimeModulo::new(Geometry::new(phys));
            assert_eq!(p.n_set(), prime);
        }
    }

    #[test]
    fn power_of_two_strides_achieve_full_coverage() {
        // Under pMod a stride of n_set_phys covers every set (gcd = 1):
        // the conflict pathology of traditional indexing disappears.
        let p = PrimeModulo::new(Geometry::new(2048));
        let sets: HashSet<u64> = (0..2039u64).map(|i| p.index(i * 2048)).collect();
        assert_eq!(sets.len(), 2039);
    }

    #[test]
    fn stride_n_set_is_the_single_bad_case() {
        // Property 1: ideal balance for all strides except multiples of
        // n_set itself.
        let p = PrimeModulo::new(Geometry::new(2048));
        let sets: HashSet<u64> = (0..100u64).map(|i| p.index(i * 2039)).collect();
        assert_eq!(sets.len(), 1);
    }

    #[test]
    fn with_modulus_allows_non_prime() {
        let p = PrimeModulo::with_modulus(Geometry::new(2048), 2047);
        assert_eq!(p.n_set(), 2047);
        assert_eq!(p.index(2047), 0);
        assert_eq!(p.delta(), 1);
    }

    #[test]
    fn fragmentation_matches_table1() {
        let p = PrimeModulo::new(Geometry::new(2048));
        assert!((p.fragmentation() * 100.0 - 0.44).abs() < 0.005);
    }

    #[test]
    #[should_panic(expected = "modulus must be nonzero")]
    fn zero_modulus_rejected() {
        let _ = PrimeModulo::with_modulus(Geometry::new(64), 0);
    }
}
