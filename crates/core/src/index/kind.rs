//! Named hash-function kinds for configuration plumbing.

use super::{Geometry, PrimeDisplacement, PrimeModulo, SetIndexer, Traditional, Xor};
use crate::expr::ExprId;

/// The single-function hash schemes of the paper's evaluation, as a
/// configuration value.
///
/// Skewed (multi-function) configurations are expressed at the cache level
/// by giving each bank its own [`SetIndexer`]; see
/// [`SkewXorBank`](super::SkewXorBank) and
/// [`SkewDispBank`](super::SkewDispBank).
///
/// # Examples
///
/// ```
/// use primecache_core::index::{Geometry, HashKind, SetIndexer};
///
/// let idx = HashKind::PrimeDisplacement.build(Geometry::new(2048));
/// assert_eq!(idx.name(), "pDisp");
/// assert_eq!(idx.n_set(), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashKind {
    /// Low index bits (`Base` in the figures).
    Traditional,
    /// First tag chunk XOR index bits.
    Xor,
    /// Modulo the largest prime below the physical set count (`pMod`).
    PrimeModulo,
    /// `(9·T + x) mod n_set` — the paper's default factor (`pDisp`).
    PrimeDisplacement,
    /// A user-defined index expression, registered through
    /// [`crate::expr::register`] and referenced by its interned id.
    Expr(ExprId),
}

impl HashKind {
    /// All built-in single-function kinds, in the order the paper's
    /// figures list them (user [`HashKind::Expr`] schemes are open-ended
    /// and not enumerable).
    pub const ALL: [HashKind; 4] = [
        HashKind::Traditional,
        HashKind::Xor,
        HashKind::PrimeModulo,
        HashKind::PrimeDisplacement,
    ];

    /// Builds the indexer for this kind over the given geometry.
    #[must_use]
    pub fn build(self, geom: Geometry) -> Box<dyn SetIndexer> {
        match self {
            HashKind::Traditional => Box::new(Traditional::new(geom)),
            HashKind::Xor => Box::new(Xor::new(geom)),
            HashKind::PrimeModulo => Box::new(PrimeModulo::new(geom)),
            HashKind::PrimeDisplacement => Box::new(PrimeDisplacement::paper_default(geom)),
            HashKind::Expr(id) => Box::new(id.indexer()),
        }
    }

    /// The display name used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HashKind::Traditional => "Base",
            HashKind::Xor => "XOR",
            HashKind::PrimeModulo => "pMod",
            HashKind::PrimeDisplacement => "pDisp",
            HashKind::Expr(id) => id.name(),
        }
    }
}

impl std::fmt::Display for HashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matches_label() {
        let geom = Geometry::new(1024);
        for kind in HashKind::ALL {
            let idx = kind.build(geom);
            assert_eq!(idx.name(), kind.label());
        }
    }

    #[test]
    fn set_counts_per_kind() {
        let geom = Geometry::new(1024);
        assert_eq!(HashKind::Traditional.build(geom).n_set(), 1024);
        assert_eq!(HashKind::Xor.build(geom).n_set(), 1024);
        assert_eq!(HashKind::PrimeModulo.build(geom).n_set(), 1021);
        assert_eq!(HashKind::PrimeDisplacement.build(geom).n_set(), 1024);
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(HashKind::PrimeModulo.to_string(), "pMod");
        assert_eq!(HashKind::Traditional.to_string(), "Base");
    }
}
