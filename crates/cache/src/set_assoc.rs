//! The set-associative cache.
//!
//! Storage is structure-of-arrays: tags in one flat `Vec<u64>`, packed
//! valid/dirty bits in a parallel `Vec<u8>`, replacement ages in a flat
//! bank ([`ReplBank`]). The probe loop touches two small contiguous
//! slices per access instead of an array of line structs, and the cache
//! is generic over its [`SetIndexer`] so the monomorphized drivers in
//! `primecache-sim` inline the index function into the probe.

use primecache_core::index::{Geometry, SetIndexer};

use crate::replacement::ReplBank;
use crate::{CacheConfig, CacheOutcome, CacheSim, CacheStats, Evicted};

/// Flag bit: the way holds a valid line.
const VALID: u8 = 1;
/// Flag bit: the line is dirty (write-back pending on eviction).
const DIRTY: u8 = 2;

/// A write-back set-associative cache with a pluggable index function.
///
/// Lines are identified by their full block address, so any
/// [`SetIndexer`] — including prime modulo, whose set count is not a power
/// of two — can be used without tag-width bookkeeping.
///
/// The type parameter is the index function. The default, `Box<dyn
/// SetIndexer>`, keeps the historical dynamically-dispatched shape
/// (`Cache::new` / [`Cache::with_indexer`]); performance-critical
/// drivers instantiate `Cache<Traditional>` etc. via
/// [`Cache::with_typed`] so the indexer inlines into the probe loop.
///
/// # Examples
///
/// ```
/// use primecache_cache::{Cache, CacheConfig, CacheSim};
/// use primecache_core::index::HashKind;
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64).with_hash(HashKind::Xor));
/// assert!(!c.access(0x1000, false)); // cold miss
/// assert!(c.access(0x1000, false)); // hit
/// ```
#[derive(Debug)]
pub struct Cache<I: SetIndexer = Box<dyn SetIndexer>> {
    config: CacheConfig,
    indexer: I,
    assoc: usize,
    line_shift: u32,
    /// `n_set * assoc` block-address tags, set-major.
    tags: Vec<u64>,
    /// Packed [`VALID`]/[`DIRTY`] bits, parallel to `tags`.
    flags: Vec<u8>,
    /// Replacement ages, flat across sets (see [`ReplBank`]).
    repl: ReplBank,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its configuration (boxed index function).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let indexer = config.hash().build(Geometry::new(config.n_set_phys()));
        Self::with_indexer(config, indexer)
    }

    /// Builds a cache with an explicit boxed index function (e.g. a
    /// [`PrimeDisplacement`](primecache_core::index::PrimeDisplacement)
    /// with a non-default factor).
    ///
    /// # Panics
    ///
    /// Panics if the indexer maps into more sets than the configuration
    /// provides.
    #[must_use]
    pub fn with_indexer(config: CacheConfig, indexer: Box<dyn SetIndexer>) -> Self {
        Self::with_typed(config, indexer)
    }
}

impl<I: SetIndexer> Cache<I> {
    /// Builds a cache over a concrete index function, monomorphizing the
    /// probe loop over it.
    ///
    /// # Panics
    ///
    /// Panics if the indexer maps into more sets than the configuration
    /// provides, or if the set count cannot be addressed in 32 bits
    /// (the set-index width the observability events record); a
    /// configuration with more than 4G sets must fail here, loudly,
    /// instead of aliasing sets through a silent narrowing.
    #[must_use]
    pub fn with_typed(config: CacheConfig, indexer: I) -> Self {
        assert!(
            indexer.n_set() <= config.n_set_phys(),
            "indexer needs {} sets but the cache has {}",
            indexer.n_set(),
            config.n_set_phys()
        );
        assert!(
            indexer.n_set() < u64::from(u32::MAX),
            "{} sets cannot be addressed in 32 bits (max {})",
            indexer.n_set(),
            u32::MAX - 1
        );
        // The 32-bit guard above makes this conversion infallible on
        // every supported target; `try_from` keeps it checked anyway.
        let n_set = usize::try_from(indexer.n_set()).expect("set count fits usize");
        let assoc = config.assoc() as usize;
        let total_lines = n_set
            .checked_mul(assoc)
            .expect("n_set * assoc overflows usize");
        Self {
            indexer,
            assoc,
            line_shift: config.line_bytes().trailing_zeros(),
            tags: vec![0; total_lines],
            flags: vec![0; total_lines],
            repl: ReplBank::new(config.replacement(), n_set, config.assoc()),
            stats: CacheStats::new(n_set),
            config,
        }
    }

    /// Point-in-time occupancy snapshot: valid lines per set. Not on the
    /// access path — intended for end-of-run occupancy histograms.
    #[must_use]
    pub fn occupancy(&self) -> Vec<u64> {
        self.flags
            .chunks(self.assoc)
            .map(|set| set.iter().filter(|&&f| f & VALID != 0).count() as u64)
            .collect()
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The number of sets actually indexed (2039 for a prime-modulo 2048).
    #[must_use]
    pub fn n_set(&self) -> u64 {
        self.indexer.n_set()
    }

    /// Always empty: an access returns its victim by value
    /// ([`Cache::access_block`]), so no writeback waits to be taken.
    /// Kept only for the benchmark's traced L1 pass, which drops it.
    pub fn take_writebacks(&mut self) -> std::iter::Empty<u64> {
        std::iter::empty()
    }

    /// Converts a byte address to a block address.
    #[inline]
    fn block_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Narrows an indexer-produced set index to `usize`.
    ///
    /// [`Cache::with_typed`] guarantees `n_set < 2^32`, so the cast is
    /// lossless on every supported target; the debug assert keeps that
    /// guarantee honest against a misbehaving indexer.
    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    fn narrow_set(&self, set: u64) -> usize {
        debug_assert!(set < self.indexer.n_set(), "indexer set {set} out of range");
        set as usize
    }

    /// Probes for `block`; returns its way on a hit.
    fn probe(&self, set: usize, block: u64) -> Option<usize> {
        let base = set * self.assoc;
        (0..self.assoc).find(|&i| self.flags[base + i] & VALID != 0 && self.tags[base + i] == block)
    }

    /// Simulates an access to a byte address, returning `(set, hit)`.
    /// Kept only for the benchmark's traced L1 pass; everything else
    /// takes the whole outcome from [`Cache::access_block`].
    pub fn access_indexed(&mut self, addr: u64, write: bool) -> (usize, bool) {
        let out = self.access_block(self.block_of(addr), write);
        (out.set, out.hit)
    }

    /// Simulates an access to a *block address* (no offset bits): the
    /// cache's one access path. Returns the set it indexed, whether it
    /// hit, and the line its fill evicted.
    ///
    /// One fused scan over the ways finds both the hit way and the
    /// fill-victim candidate (first invalid way), so a miss does not
    /// rescan the set.
    #[inline]
    pub fn access_block(&mut self, block: u64, write: bool) -> CacheOutcome {
        let set = self.narrow_set(self.indexer.index(block));
        let base = set * self.assoc;
        let mut hit_way = None;
        let mut invalid_way = None;
        for i in 0..self.assoc {
            if self.flags[base + i] & VALID != 0 {
                if self.tags[base + i] == block {
                    hit_way = Some(i);
                    break;
                }
            } else if invalid_way.is_none() {
                invalid_way = Some(i);
            }
        }
        if let Some(way) = hit_way {
            self.stats.record(set, false, write);
            if write {
                self.flags[base + way] |= DIRTY;
                self.repl.write_touch(set, way);
            } else {
                self.repl.touch(set, way);
            }
            #[cfg(any(debug_assertions, feature = "check"))]
            self.debug_check(set);
            return CacheOutcome {
                set,
                hit: true,
                evicted: None,
            };
        }
        self.stats.record(set, true, write);
        // Choose a victim: first invalid way, else the policy's pick.
        let way = invalid_way.unwrap_or_else(|| self.repl.victim(set));
        let slot = base + way;
        let evicted = (self.flags[slot] & VALID != 0).then(|| Evicted {
            block: self.tags[slot],
            dirty: self.flags[slot] & DIRTY != 0,
        });
        if let Some(victim) = evicted {
            self.stats.record_eviction(set, victim.dirty);
        }
        self.tags[slot] = block;
        self.flags[slot] = if write { VALID | DIRTY } else { VALID };
        self.repl.fill(set, way);
        #[cfg(any(debug_assertions, feature = "check"))]
        self.debug_check(set);
        CacheOutcome {
            set,
            hit: false,
            evicted,
        }
    }

    /// Checks one set's structural invariants: occupancy within the
    /// associativity, no block resident in two ways, and every valid
    /// line indexed to the set it sits in.
    fn check_set(&self, set: usize) -> Result<(), String> {
        let base = set * self.assoc;
        let occupancy = (0..self.assoc)
            .filter(|&i| self.flags[base + i] & VALID != 0)
            .count();
        if occupancy > self.assoc {
            return Err(format!(
                "set {set}: occupancy {occupancy} exceeds {} ways",
                self.assoc
            ));
        }
        for i in 0..self.assoc {
            if self.flags[base + i] & VALID == 0 {
                continue;
            }
            let block = self.tags[base + i];
            let home = self.narrow_set(self.indexer.index(block));
            if home != set {
                return Err(format!(
                    "set {set} way {i}: block {block:#x} belongs in set {home}"
                ));
            }
            if (i + 1..self.assoc)
                .any(|j| self.flags[base + j] & VALID != 0 && self.tags[base + j] == block)
            {
                return Err(format!("set {set}: block {block:#x} resident in two ways"));
            }
        }
        Ok(())
    }

    /// Checks every runtime invariant of the cache: stat integrity
    /// ([`CacheStats::validate`]) and the per-set structure of every
    /// set.
    ///
    /// Debug builds (and release builds with the `check` feature) run the
    /// accessed set's checks after every access.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.stats.validate()?;
        for set in 0..self.tags.len() / self.assoc {
            self.check_set(set)?;
        }
        Ok(())
    }

    /// Per-access invariant hook: the O(1) counter checks
    /// ([`CacheStats::check_counters`]) plus the accessed set's
    /// structural checks.
    #[cfg(any(debug_assertions, feature = "check"))]
    fn debug_check(&self, set: usize) {
        if let Err(e) = self.stats.check_counters() {
            panic!("stat integrity violated: {e}");
        }
        if let Err(e) = self.check_set(set) {
            panic!("set invariant violated: {e}");
        }
    }

    /// The set index `addr` maps to (for stats attribution by callers).
    #[must_use]
    pub fn set_of(&self, addr: u64) -> usize {
        self.narrow_set(self.indexer.index(self.block_of(addr)))
    }

    /// Returns `true` if `addr`'s block is currently resident.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let block = self.block_of(addr);
        let set = self.narrow_set(self.indexer.index(block));
        self.probe(set, block).is_some()
    }
}

impl<I: SetIndexer> CacheSim for Cache<I> {
    fn access(&mut self, addr: u64, write: bool) -> bool {
        self.access_block(self.block_of(addr), write).hit
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primecache_core::index::HashKind;

    fn tiny(hash: HashKind) -> Cache {
        // 4 sets x 2 ways x 64-B lines = 512 B.
        Cache::new(CacheConfig::new(512, 2, 64).with_hash(hash))
    }

    /// Plants a (possibly corrupt) line directly in the SoA arrays.
    fn seed_line(c: &mut Cache, slot: usize, block: u64, dirty: bool) {
        c.tags[slot] = block;
        c.flags[slot] = if dirty { VALID | DIRTY } else { VALID };
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(HashKind::Traditional);
        assert!(!c.access(0, false));
        assert!(c.access(0, false));
        assert!(c.access(63, false)); // same line
        assert!(!c.access(64, false)); // next line
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny(HashKind::Traditional);
        // Set 0 holds blocks 0 and 4 (4 sets); a third conflicting block
        // evicts the least recent.
        c.access(0, false); // block 0, set 0
        c.access(256, false); // block 4, set 0
        c.access(0, false); // touch block 0
        c.access(512, false); // evicts block 4
        assert!(c.contains(0));
        assert!(!c.contains(256));
        assert!(c.contains(512));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = tiny(HashKind::Traditional);
        c.access(0, true); // dirty
        c.access(256, false);
        let out = c.access_block(8, false); // evicts block 0 (dirty)
        let victim = Evicted {
            block: 0,
            dirty: true,
        };
        assert_eq!((out.set, out.hit, out.evicted), (0, false, Some(victim)));
        assert_eq!((c.stats().writebacks, c.stats().evictions), (1, 1));
        assert_eq!(c.stats().set_evictions, [1, 0, 0, 0]);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny(HashKind::Traditional);
        c.access(0, false);
        c.access(256, false);
        let out = c.access_block(8, false); // evicts block 0 (clean)
        let victim = Evicted {
            block: 0,
            dirty: false,
        };
        assert_eq!(out.evicted, Some(victim));
        assert_eq!((c.stats().writebacks, c.stats().evictions), (0, 1));
    }

    #[test]
    fn prime_modulo_cache_uses_2039_like_sets() {
        let c = Cache::new(CacheConfig::new(512 * 1024, 4, 64).with_hash(HashKind::PrimeModulo));
        assert_eq!(c.n_set(), 2039);
    }

    #[test]
    fn conflict_pathology_fixed_by_pmod() {
        // 128 KB stride on the paper's L2: under Base all blocks share a
        // set (misses forever); under pMod they spread and hit.
        let run = |hash| {
            let mut c = Cache::new(CacheConfig::new(512 * 1024, 4, 64).with_hash(hash));
            for _ in 0..10 {
                for i in 0..16u64 {
                    c.access(i * 128 * 1024, false);
                }
            }
            c.stats().miss_rate()
        };
        let base = run(HashKind::Traditional);
        let pmod = run(HashKind::PrimeModulo);
        assert!(base > 0.9, "base miss rate {base}");
        assert!(pmod < 0.2, "pmod miss rate {pmod}");
    }

    #[test]
    fn stats_see_every_access() {
        let mut c = tiny(HashKind::Xor);
        for a in 0..100u64 {
            c.access(a * 64, a % 2 == 0);
        }
        assert_eq!(c.stats().accesses, 100);
        assert_eq!(c.stats().writes, 50);
    }

    #[test]
    fn validate_accepts_a_long_run() {
        let mut c = tiny(HashKind::PrimeDisplacement);
        for i in 0..2_000u64 {
            c.access((i * 7919) % (1 << 16), i % 3 == 0);
        }
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_fires_on_seeded_duplicate_block() {
        let mut c = tiny(HashKind::Traditional);
        c.access(0, false);
        // Corrupt: the same block resident in both ways of set 0.
        seed_line(&mut c, 1, 0, false);
        let err = c.validate().unwrap_err();
        assert!(err.contains("two ways"), "{err}");
    }

    #[test]
    fn validate_fires_on_seeded_misplaced_block() {
        let mut c = tiny(HashKind::Traditional);
        c.access(0, false);
        // Corrupt: block 1 (home set 1) parked in set 0's second way.
        seed_line(&mut c, 1, 1, false);
        let err = c.validate().unwrap_err();
        assert!(err.contains("belongs in set 1"), "{err}");
    }

    #[test]
    fn validate_fires_on_seeded_eviction_excess() {
        let mut c = tiny(HashKind::Traditional);
        c.access(0, true);
        // Corrupt: two evictions for the one fill.
        c.stats.record_eviction(0, true);
        c.stats.record_eviction(0, true);
        let err = c.validate().unwrap_err();
        assert!(err.contains("more evictions than fills"), "{err}");
    }

    #[cfg(any(debug_assertions, feature = "check"))]
    #[test]
    #[should_panic(expected = "set invariant violated")]
    fn per_access_check_fires_on_seeded_corruption() {
        let mut c = tiny(HashKind::Traditional);
        c.access(0, false);
        seed_line(&mut c, 1, 0, false);
        // A hit on the corrupted set trips the per-access checker (a miss
        // might evict the duplicate before the check runs).
        c.access(0, false);
    }

    #[test]
    #[should_panic(expected = "indexer needs")]
    fn oversized_indexer_rejected() {
        use primecache_core::index::{Geometry, Traditional};
        let cfg = CacheConfig::new(512, 2, 64); // 4 sets
        let too_big = Box::new(Traditional::new(Geometry::new(8)));
        let _ = Cache::with_indexer(cfg, too_big);
    }

    #[test]
    fn typed_cache_matches_boxed_cache_bit_for_bit() {
        use primecache_core::index::{Geometry, PrimeModulo};
        let cfg = CacheConfig::new(64 * 1024, 4, 64).with_hash(HashKind::PrimeModulo);
        let mut boxed = Cache::new(cfg);
        let mut typed = Cache::with_typed(cfg, PrimeModulo::new(Geometry::new(cfg.n_set_phys())));
        for i in 0..20_000u64 {
            let addr = (i * 7919) % (1 << 24);
            let write = i % 3 == 0;
            let block = addr >> 6;
            assert_eq!(
                boxed.access_block(block, write),
                typed.access_block(block, write),
                "{i}"
            );
        }
        assert_eq!(boxed.stats(), typed.stats());
    }
}
