//! Prime displacement indexing (pDisp).

use super::{Geometry, SetIndexer};

/// The prime displacement index function (Eq. 6):
/// `H(a) = (p·T + x) mod n_set`, where `T` is the full tag, `x` the index
/// field, `n_set` the (power-of-two) physical set count, and `p` an odd
/// displacement factor.
///
/// The paper uses `p = 9` for the single-function configuration (its
/// footnote 2 explains that `p` need not literally be prime — any member of
/// the odd multiplicative group mod `2^k` works). Because `n_set` remains a
/// power of two the modulo is a simple truncation, so the whole function is
/// one narrow multiply-accumulate, and — unlike prime modulo — the cost is
/// independent of the machine's address width (§3.2).
///
/// pDisp is only *partially* sequence invariant: within a strided
/// subsequence all but one set re-access at a constant distance
/// `x = n_set − p` (§3.3), which in practice gives near-ideal concentration.
///
/// # Examples
///
/// ```
/// use primecache_core::index::{Geometry, PrimeDisplacement, SetIndexer};
///
/// let pd = PrimeDisplacement::new(Geometry::new(2048), 9);
/// // tag 1, index 0 => (9*1 + 0) mod 2048 = 9.
/// assert_eq!(pd.index(2048), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimeDisplacement {
    geom: Geometry,
    factor: u64,
}

impl PrimeDisplacement {
    /// Creates a prime-displacement indexer with displacement factor
    /// `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is even: an even factor is non-invertible modulo
    /// a power of two and collapses tag information (footnote 2).
    #[must_use]
    pub fn new(geom: Geometry, factor: u64) -> Self {
        assert!(
            factor % 2 == 1,
            "displacement factor must be odd, got {factor}"
        );
        Self { geom, factor }
    }

    /// The paper's default single-function configuration: `p = 9`.
    #[must_use]
    pub fn paper_default(geom: Geometry) -> Self {
        Self::new(geom, 9)
    }
}

impl SetIndexer for PrimeDisplacement {
    fn index(&self, block_addr: u64) -> u64 {
        let t = self.geom.tag(block_addr);
        let x = self.geom.x(block_addr);
        self.factor.wrapping_mul(t).wrapping_add(x) & self.geom.index_mask()
    }

    fn n_set(&self) -> u64 {
        self.geom.n_set_phys()
    }

    fn name(&self) -> &'static str {
        "pDisp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn matches_equation_6() {
        let g = Geometry::new(2048);
        let pd = PrimeDisplacement::new(g, 9);
        for a in (0..1_000_000u64).step_by(41) {
            let expect = (9 * g.tag(a) + g.x(a)) % 2048;
            assert_eq!(pd.index(a), expect, "a = {a}");
        }
    }

    #[test]
    fn spreads_power_of_two_strides() {
        // Stride = n_set_phys: tags increment, so sets advance by p each
        // time; p odd => full coverage.
        let pd = PrimeDisplacement::new(Geometry::new(2048), 9);
        let sets: HashSet<u64> = (0..2048u64).map(|i| pd.index(i * 2048)).collect();
        assert_eq!(sets.len(), 2048);
    }

    #[test]
    fn even_strides_achieve_near_ideal_balance() {
        // §3.3: pDisp achieves ideal balance for even strides (below
        // n_set; 2·n_set with factor 9 gives sets 18i mod n_set, one of the
        // "various cases" of non-ideal balance in Fig. 5). Checked over a
        // long run: every set touched, counts within 2x of the mean.
        let pd = PrimeDisplacement::new(Geometry::new(256), 9);
        for s in [2u64, 4, 6, 8, 16, 32, 128, 256] {
            let m = 256 * 64;
            let mut counts = [0u32; 256];
            for i in 0..m {
                counts[usize::try_from(pd.index(i * s)).unwrap()] += 1;
            }
            let mean = m as f64 / 256.0;
            assert!(counts.iter().all(|&c| c > 0), "stride {s}: uncovered set");
            let max = *counts.iter().max().unwrap() as f64;
            assert!(max <= 2.0 * mean, "stride {s}: max {max} vs mean {mean}");
        }
    }

    #[test]
    fn different_factors_disagree() {
        let g = Geometry::new(512);
        let a = 9_999_999u64;
        let idx9 = PrimeDisplacement::new(g, 9).index(a);
        let idx19 = PrimeDisplacement::new(g, 19).index(a);
        assert_ne!(idx9, idx19);
    }

    #[test]
    fn paper_default_is_nine() {
        let g = Geometry::new(64);
        assert_eq!(
            PrimeDisplacement::paper_default(g),
            PrimeDisplacement::new(g, 9)
        );
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_factor_rejected() {
        let _ = PrimeDisplacement::new(Geometry::new(64), 8);
    }

    #[test]
    fn huge_tags_do_not_overflow() {
        let pd = PrimeDisplacement::new(Geometry::new(2048), 0xFFFF_FFFF_FFFF_FFFF);
        let s = pd.index(u64::MAX);
        assert!(s < 2048);
    }
}
