//! Cache configuration types.

use primecache_core::index::HashKind;

/// Replacement policies available to the set-associative [`Cache`].
///
/// The skewed cache uses its own inter-bank policies (ENRU / NRUNRW, §5.3)
/// configured via [`SkewedConfig`].
///
/// [`Cache`]: crate::Cache
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// True least-recently-used.
    Lru,
    /// Tree pseudo-LRU (requires power-of-two associativity).
    TreePlru,
    /// Not-recently-used reference bits.
    Nru,
    /// First-in first-out.
    Fifo,
    /// Deterministic pseudo-random victims.
    Random,
    /// Static re-reference interval prediction (SRRIP, 2-bit): inserts
    /// lines with a long predicted re-reference interval so scans cannot
    /// flush the working set — the thrash-resistant policy later caches
    /// adopted (an extension beyond the paper's LRU).
    Srrip,
}

impl ReplacementKind {
    /// All set-associative policies.
    pub const ALL: [ReplacementKind; 6] = [
        ReplacementKind::Lru,
        ReplacementKind::TreePlru,
        ReplacementKind::Nru,
        ReplacementKind::Fifo,
        ReplacementKind::Random,
        ReplacementKind::Srrip,
    ];
}

/// Configuration of a set-associative cache.
///
/// # Examples
///
/// ```
/// use primecache_cache::{CacheConfig, ReplacementKind};
/// use primecache_core::index::HashKind;
///
/// // The paper's L2: 512 KB, 4-way, 64-B lines, LRU, prime modulo.
/// let cfg = CacheConfig::new(512 * 1024, 4, 64)
///     .with_hash(HashKind::PrimeModulo)
///     .with_replacement(ReplacementKind::Lru);
/// assert_eq!(cfg.n_set_phys(), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    size_bytes: u64,
    assoc: u32,
    line_bytes: u64,
    hash: HashKind,
    replacement: ReplacementKind,
}

impl CacheConfig {
    /// Creates a configuration for a cache of `size_bytes` with
    /// associativity `assoc` and `line_bytes` blocks, defaulting to
    /// traditional indexing and LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes`, `line_bytes` and the resulting set count
    /// are powers of two and `assoc >= 1`.
    #[must_use]
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u64) -> Self {
        assert!(assoc >= 1, "associativity must be at least 1");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            size_bytes.is_multiple_of(line_bytes * u64::from(assoc)),
            "size must be divisible by line * assoc"
        );
        let n_set = size_bytes / (line_bytes * u64::from(assoc));
        assert!(
            n_set.is_power_of_two() && n_set >= 2,
            "physical set count must be a power of two >= 2, got {n_set}"
        );
        Self {
            size_bytes,
            assoc,
            line_bytes,
            hash: HashKind::Traditional,
            replacement: ReplacementKind::Lru,
        }
    }

    /// Selects the index function.
    #[must_use]
    pub fn with_hash(mut self, hash: HashKind) -> Self {
        self.hash = hash;
        self
    }

    /// Selects the replacement policy.
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementKind) -> Self {
        self.replacement = replacement;
        self
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity (ways per set).
    #[must_use]
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Block/line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Physical (power-of-two) number of sets.
    #[must_use]
    pub fn n_set_phys(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.assoc))
    }

    /// The configured index function kind.
    #[must_use]
    pub fn hash(&self) -> HashKind {
        self.hash
    }

    /// The configured replacement policy.
    #[must_use]
    pub fn replacement(&self) -> ReplacementKind {
        self.replacement
    }
}

/// Index-function family of a skewed-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkewHashKind {
    /// Seznec's circular-shift + XOR per-bank functions (`SKW`).
    Xor,
    /// Prime displacement with a distinct odd factor per bank
    /// (`skw+pDisp`, factors 9/19/31/37).
    PrimeDisplacement,
}

/// Inter-bank replacement policy of a skewed cache (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkewReplacement {
    /// Enhanced Not Recently Used (Seznec \[19\]) — the paper's default.
    Enru,
    /// Not Recently Used, Not Recently Written \[18\] — "gives similar
    /// results" per §5.3.
    Nrunrw,
}

/// Configuration of a skewed-associative cache.
///
/// # Examples
///
/// ```
/// use primecache_cache::{SkewedConfig, SkewHashKind};
///
/// // The paper's skewed L2: same capacity, four direct-mapped banks.
/// let cfg = SkewedConfig::new(512 * 1024, 4, 64, SkewHashKind::PrimeDisplacement);
/// assert_eq!(cfg.sets_per_bank(), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewedConfig {
    size_bytes: u64,
    banks: u32,
    line_bytes: u64,
    hash: SkewHashKind,
    replacement: SkewReplacement,
    ways_per_bank: u32,
}

impl SkewedConfig {
    /// Creates a skewed configuration of `banks` direct-mapped banks.
    ///
    /// # Panics
    ///
    /// Panics unless sizes are powers of two and at least 2 banks are
    /// requested (a 1-bank skewed cache is just direct-mapped).
    #[must_use]
    pub fn new(size_bytes: u64, banks: u32, line_bytes: u64, hash: SkewHashKind) -> Self {
        assert!(banks >= 2, "a skewed cache needs at least two banks");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            size_bytes.is_multiple_of(line_bytes * u64::from(banks)),
            "size must be divisible by line * banks"
        );
        let sets = size_bytes / (line_bytes * u64::from(banks));
        assert!(
            sets.is_power_of_two() && sets >= 2,
            "sets per bank must be a power of two >= 2, got {sets}"
        );
        Self {
            size_bytes,
            banks,
            line_bytes,
            hash,
            replacement: SkewReplacement::Enru,
            ways_per_bank: 1,
        }
    }

    /// Makes each bank set-associative with `ways` ways (Seznec's original
    /// two-way skewed design \[18\] uses 2 banks x 2 ways; the paper's L2
    /// uses 4 direct-mapped banks).
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0` or the capacity does not divide evenly.
    #[must_use]
    pub fn with_ways_per_bank(mut self, ways: u32) -> Self {
        assert!(ways >= 1, "need at least one way per bank");
        let denom = self.line_bytes * u64::from(self.banks) * u64::from(ways);
        assert!(
            self.size_bytes.is_multiple_of(denom),
            "size must be divisible by line * banks * ways"
        );
        let sets = self.size_bytes / denom;
        assert!(
            sets.is_power_of_two() && sets >= 2,
            "sets per bank must be a power of two >= 2, got {sets}"
        );
        self.ways_per_bank = ways;
        self
    }

    /// Ways in each bank (1 = direct-mapped, the paper's configuration).
    #[must_use]
    pub fn ways_per_bank(&self) -> u32 {
        self.ways_per_bank
    }

    /// Selects the inter-bank replacement policy.
    #[must_use]
    pub fn with_replacement(mut self, replacement: SkewReplacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Number of direct-mapped banks.
    #[must_use]
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Block/line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Sets in each bank.
    #[must_use]
    pub fn sets_per_bank(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.banks) * u64::from(self.ways_per_bank))
    }

    /// The per-bank index-function family.
    #[must_use]
    pub fn hash(&self) -> SkewHashKind {
        self.hash
    }

    /// The inter-bank replacement policy.
    #[must_use]
    pub fn replacement(&self) -> SkewReplacement {
        self.replacement
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l2_geometry() {
        let cfg = CacheConfig::new(512 * 1024, 4, 64);
        assert_eq!(cfg.n_set_phys(), 2048);
        assert_eq!(cfg.hash(), HashKind::Traditional);
        assert_eq!(cfg.replacement(), ReplacementKind::Lru);
    }

    #[test]
    fn paper_l1_geometry() {
        let cfg = CacheConfig::new(16 * 1024, 2, 32);
        assert_eq!(cfg.n_set_phys(), 256);
    }

    #[test]
    fn eight_way_halves_the_sets() {
        // Figs. 7/8's "8-way" bar: same size, double associativity.
        let four = CacheConfig::new(512 * 1024, 4, 64);
        let eight = CacheConfig::new(512 * 1024, 8, 64);
        assert_eq!(eight.n_set_phys() * 2, four.n_set_phys());
    }

    #[test]
    fn skewed_matches_paper() {
        let cfg = SkewedConfig::new(512 * 1024, 4, 64, SkewHashKind::Xor);
        assert_eq!(cfg.sets_per_bank(), 2048);
        assert_eq!(cfg.replacement(), SkewReplacement::Enru);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_assoc_rejected() {
        let _ = CacheConfig::new(1024, 0, 64);
    }

    #[test]
    #[should_panic(expected = "at least two banks")]
    fn one_bank_skew_rejected() {
        let _ = SkewedConfig::new(1024, 1, 64, SkewHashKind::Xor);
    }
}
