//! The skewed-associative cache (Seznec's design, §3.3 / §5.3).
//!
//! Storage is structure-of-arrays (flat tag and packed usage-bit
//! arrays) and the candidate-slot list is a reused scratch buffer, so
//! the access path allocates nothing. The cache is generic over its
//! per-bank index function type; the monomorphized drivers in
//! `primecache-sim` instantiate it with concrete bank indexers so each
//! bank's hash inlines into the probe loop.

use primecache_core::index::{Geometry, SetIndexer, SkewDispBank, SkewXorBank, SKEW_DISP_FACTORS};

use crate::{
    CacheOutcome, CacheSim, CacheStats, Evicted, SkewHashKind, SkewReplacement, SkewedConfig,
};

/// Flag bit: the slot holds a valid line.
const VALID: u8 = 1;
/// Flag bit: the line is dirty.
const DIRTY: u8 = 2;
/// Flag bit: recently used (ENRU / NRUNRW).
const RBIT: u8 = 4;
/// Flag bit: recently written (NRUNRW only).
const WBIT: u8 = 8;

/// A skewed-associative cache: `banks` direct-mapped banks, each indexed by
/// its own hash function, with ENRU or NRUNRW inter-bank replacement.
///
/// "Cache blocks that are mapped to the same set in one bank are most
/// likely not to map to the same set in the other banks" (§3.3). The cost
/// is that true LRU is impractical across banks, forcing the pseudo-LRU
/// policies whose imprecision contributes to the pathological slowdowns of
/// Fig. 10.
///
/// # Examples
///
/// ```
/// use primecache_cache::{CacheSim, SkewedCache, SkewedConfig, SkewHashKind};
///
/// let mut skw = SkewedCache::new(SkewedConfig::new(
///     512 * 1024, 4, 64, SkewHashKind::PrimeDisplacement,
/// ));
/// assert!(!skw.access(0xBEEF00, false));
/// assert!(skw.access(0xBEEF00, false));
/// ```
#[derive(Debug)]
pub struct SkewedCache<B: SetIndexer = Box<dyn SetIndexer>> {
    config: SkewedConfig,
    indexers: Vec<B>,
    sets_per_bank: usize,
    ways: usize,
    line_shift: u32,
    /// Bank-major block-address tags:
    /// `tags[(bank * sets_per_bank + set) * ways + way]`.
    tags: Vec<u64>,
    /// Packed [`VALID`]/[`DIRTY`]/[`RBIT`]/[`WBIT`] bits, parallel to
    /// `tags`.
    flags: Vec<u8>,
    /// Reused candidate-slot scratch (keeps the access path
    /// allocation-free).
    scratch: Vec<usize>,
    /// Round-robin tie-break counter for victim selection.
    rr: u32,
    stats: CacheStats,
}

/// The displacement factor bank `bank` uses in a prime-displacement
/// skewed cache: the four paper factors ([`SKEW_DISP_FACTORS`]), with
/// repeats beyond four banks nudged by an even offset so every factor
/// stays odd and distinct.
#[must_use]
pub fn bank_disp_factor(bank: u32) -> u64 {
    SKEW_DISP_FACTORS[bank as usize % SKEW_DISP_FACTORS.len()]
        + 2 * (u64::from(bank) / SKEW_DISP_FACTORS.len() as u64) * 41
}

impl SkewedCache {
    /// Builds a skewed cache from its configuration (boxed per-bank
    /// index functions).
    #[must_use]
    pub fn new(config: SkewedConfig) -> Self {
        match config.hash() {
            SkewHashKind::Xor => Self::with_banks(config, |b, g| {
                Box::new(SkewXorBank::new(g, b)) as Box<dyn SetIndexer>
            }),
            SkewHashKind::PrimeDisplacement => Self::with_banks(config, |b, g| {
                Box::new(SkewDispBank::new(g, bank_disp_factor(b))) as Box<dyn SetIndexer>
            }),
        }
    }
}

impl<B: SetIndexer> SkewedCache<B> {
    /// Builds a skewed cache with a concrete per-bank index function,
    /// monomorphizing every bank's hash into the probe loop. `make` is
    /// called once per bank with `(bank, geometry)`.
    ///
    /// # Panics
    ///
    /// Panics if any bank indexer does not map into exactly
    /// `sets_per_bank` sets, or if the set count cannot be addressed in
    /// 32 bits (a >4G-set configuration fails loudly here instead of
    /// aliasing sets).
    #[must_use]
    pub fn with_banks(config: SkewedConfig, make: impl Fn(u32, Geometry) -> B) -> Self {
        let geom = Geometry::new(config.sets_per_bank());
        let indexers: Vec<B> = (0..config.banks()).map(|b| make(b, geom)).collect();
        for (b, ix) in indexers.iter().enumerate() {
            assert!(
                ix.n_set() == config.sets_per_bank(),
                "bank {b} indexer maps {} sets, config has {}",
                ix.n_set(),
                config.sets_per_bank()
            );
        }
        assert!(
            config.sets_per_bank() < u64::from(u32::MAX),
            "{} sets per bank cannot be addressed in 32 bits",
            config.sets_per_bank()
        );
        let sets_per_bank = usize::try_from(config.sets_per_bank()).expect("sets fit usize");
        let ways = config.ways_per_bank() as usize;
        let total_lines = sets_per_bank
            .checked_mul(config.banks() as usize)
            .and_then(|n| n.checked_mul(ways))
            .expect("bank * set * way count overflows usize");
        Self {
            indexers,
            sets_per_bank,
            ways,
            line_shift: config.line_bytes().trailing_zeros(),
            tags: vec![0; total_lines],
            flags: vec![0; total_lines],
            scratch: Vec::with_capacity(config.banks() as usize * ways),
            rr: 0,
            stats: CacheStats::new(sets_per_bank),
            config,
        }
    }

    /// Point-in-time occupancy snapshot: valid lines per (bank, set),
    /// bank-major. Not on the access path.
    #[must_use]
    pub fn occupancy(&self) -> Vec<u64> {
        self.flags
            .chunks(self.ways)
            .map(|set| set.iter().filter(|&&f| f & VALID != 0).count() as u64)
            .collect()
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &SkewedConfig {
        &self.config
    }

    /// Narrows an indexer-produced set index to `usize` (lossless:
    /// [`SkewedCache::with_banks`] guarantees `sets_per_bank < 2^32`).
    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    fn narrow_set(&self, set: u64) -> usize {
        debug_assert!(set < self.config.sets_per_bank(), "bank set out of range");
        set as usize
    }

    /// First storage slot of (bank, set); the set's ways follow
    /// contiguously.
    #[inline]
    fn slot(&self, bank: usize, set: usize) -> usize {
        (bank * self.sets_per_bank + set) * self.ways
    }

    /// Fills `slots` with every candidate line slot of `block` (all ways
    /// of every bank's indexed set) and returns the bank-0 set (the
    /// stats-attribution axis).
    fn collect_candidates(&self, block: u64, slots: &mut Vec<usize>) -> usize {
        slots.clear();
        let mut stat_set = 0usize;
        for (b, ix) in self.indexers.iter().enumerate() {
            let set = self.narrow_set(ix.index(block));
            if b == 0 {
                stat_set = set;
            }
            let base = self.slot(b, set);
            slots.extend(base..base + self.ways);
        }
        stat_set
    }

    /// Picks the victim among the candidate lines (indexes into the
    /// candidate slice).
    fn pick_victim(&mut self, slots: &[usize]) -> usize {
        let n = slots.len();
        // Invalid lines first.
        if let Some(i) = (0..n).find(|&i| self.flags[slots[i]] & VALID == 0) {
            return i;
        }
        let repl = self.config.replacement();
        let class_of = |f: u8| -> u32 {
            match repl {
                SkewReplacement::Enru => u32::from(f & RBIT != 0),
                // NRUNRW priority: (!r,!w) < (!r,w) < (r,!w) < (r,w).
                SkewReplacement::Nrunrw => {
                    (u32::from(f & RBIT != 0) << 1) | u32::from(f & WBIT != 0)
                }
            }
        };
        let best_class = slots
            .iter()
            .map(|&s| class_of(self.flags[s]))
            .min()
            .expect("at least one candidate");
        // Round-robin among the best class.
        self.rr = self.rr.wrapping_add(1);
        let start = self.rr as usize % n;
        for off in 0..n {
            let i = (start + off) % n;
            if class_of(self.flags[slots[i]]) == best_class {
                return i;
            }
        }
        unreachable!("best class is always present")
    }

    /// Clears usage bits of the candidate lines when they saturate, so NRU
    /// information keeps decaying (the "aging" of Seznec's ENRU).
    fn age(&mut self, slots: &[usize], keep: usize) {
        if slots
            .iter()
            .all(|&s| self.flags[s] & VALID == 0 || self.flags[s] & RBIT != 0)
        {
            for (b, &s) in slots.iter().enumerate() {
                if b != keep {
                    self.flags[s] &= !(RBIT | WBIT);
                }
            }
        }
    }

    /// Simulates an access to a block address: the cache's one access
    /// path. Returns the bank-0 set (the statistics set, computed once
    /// alongside the probe), whether it hit, and the line its fill
    /// evicted.
    pub fn access_block(&mut self, block: u64, write: bool) -> CacheOutcome {
        // The scratch buffer is detached while borrowed so the probe can
        // take `&mut self`; every return path restores it.
        let mut slots = std::mem::take(&mut self.scratch);
        let stat_set = self.collect_candidates(block, &mut slots);
        let out = self.access_at_candidates(block, write, stat_set, &slots);
        self.scratch = slots;
        out
    }

    /// The probe/fill path over an already-collected candidate list.
    fn access_at_candidates(
        &mut self,
        block: u64,
        write: bool,
        stat_set: usize,
        slots: &[usize],
    ) -> CacheOutcome {
        for (i, &slot) in slots.iter().enumerate() {
            if self.flags[slot] & VALID != 0 && self.tags[slot] == block {
                self.stats.record(stat_set, false, write);
                // Known defect: a write hit marks only the NRUNRW `w` bit
                // and leaves the line clean, so the write is lost. ROADMAP.md's
                // open item "Fix the skewed L2's lost write hits" holds the
                // one-line fix, which changes the golden cells.
                self.flags[slot] |= RBIT | if write { WBIT } else { 0 };
                self.age(slots, i);
                #[cfg(any(debug_assertions, feature = "check"))]
                self.debug_check(block, slots);
                return CacheOutcome {
                    set: stat_set,
                    hit: true,
                    evicted: None,
                };
            }
        }
        self.stats.record(stat_set, true, write);
        let victim_i = self.pick_victim(slots);
        let slot = slots[victim_i];
        // The eviction counts in the evicting access's bank-0 set, the
        // axis the per-set miss histogram uses.
        let evicted = (self.flags[slot] & VALID != 0).then(|| Evicted {
            block: self.tags[slot],
            dirty: self.flags[slot] & DIRTY != 0,
        });
        if let Some(victim) = evicted {
            self.stats.record_eviction(stat_set, victim.dirty);
        }
        self.tags[slot] = block;
        self.flags[slot] = VALID | RBIT | if write { DIRTY | WBIT } else { 0 };
        self.age(slots, victim_i);
        #[cfg(any(debug_assertions, feature = "check"))]
        self.debug_check(block, slots);
        CacheOutcome {
            set: stat_set,
            hit: false,
            evicted,
        }
    }

    /// Checks every runtime invariant of the skewed cache: stat
    /// integrity ([`CacheStats::validate`]), every valid line sitting in
    /// the set its bank's hash assigns it, and no block resident twice.
    ///
    /// Debug builds (and release builds with the `check` feature) run the
    /// accessed candidate set's checks after every access.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.stats.validate()?;
        let mut seen = std::collections::HashMap::new();
        for i in 0..self.tags.len() {
            if self.flags[i] & VALID == 0 {
                continue;
            }
            let block = self.tags[i];
            let bank = i / (self.sets_per_bank * self.ways);
            let set = (i / self.ways) % self.sets_per_bank;
            let home = self.narrow_set(self.indexers[bank].index(block));
            if home != set {
                return Err(format!(
                    "bank {bank} set {set}: block {block:#x} belongs in set {home}"
                ));
            }
            if let Some(prev) = seen.insert(block, (bank, set)) {
                return Err(format!(
                    "block {block:#x} resident twice: bank {} set {} and bank {bank} set {set}",
                    prev.0, prev.1
                ));
            }
        }
        Ok(())
    }

    /// Per-access invariant hook: the O(1) counter checks
    /// ([`CacheStats::check_counters`]) plus "the accessed block is
    /// resident exactly once among its candidates".
    #[cfg(any(debug_assertions, feature = "check"))]
    fn debug_check(&self, block: u64, slots: &[usize]) {
        if let Err(e) = self.stats.check_counters() {
            panic!("stat integrity violated: {e}");
        }
        let copies = slots
            .iter()
            .filter(|&&s| self.flags[s] & VALID != 0 && self.tags[s] == block)
            .count();
        assert!(
            copies == 1,
            "skewed invariant violated: block {block:#x} resident {copies} times \
             among its candidates"
        );
    }

    /// Returns `true` if `addr`'s block is resident in any bank.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        self.indexers.iter().enumerate().any(|(b, ix)| {
            let set = self.narrow_set(ix.index(block));
            let base = self.slot(b, set);
            (base..base + self.ways).any(|s| self.flags[s] & VALID != 0 && self.tags[s] == block)
        })
    }
}

impl<B: SetIndexer> CacheSim for SkewedCache<B> {
    fn access(&mut self, addr: u64, write: bool) -> bool {
        self.access_block(addr >> self.line_shift, write).hit
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_skew(hash: SkewHashKind) -> SkewedCache {
        SkewedCache::new(SkewedConfig::new(512 * 1024, 4, 64, hash))
    }

    /// Plants a (possibly corrupt) line directly in the SoA arrays.
    fn seed_line(c: &mut SkewedCache, slot: usize, block: u64, flags: u8) {
        c.tags[slot] = block;
        c.flags[slot] = flags;
    }

    #[test]
    fn hit_after_fill_in_any_bank() {
        let mut c = paper_skew(SkewHashKind::Xor);
        assert!(!c.access(0x12345, false));
        assert!(c.access(0x12345, false));
        assert!(c.contains(0x12345));
    }

    #[test]
    fn skewing_absorbs_same_set_conflicts() {
        // 16 blocks that all conflict in a traditional 2048-set cache
        // (stride 2048 blocks) fit easily across four skewed banks.
        for hash in [SkewHashKind::Xor, SkewHashKind::PrimeDisplacement] {
            let mut c = paper_skew(hash);
            for _ in 0..10 {
                for i in 0..16u64 {
                    c.access(i * 2048 * 64, false);
                }
            }
            let mr = c.stats().miss_rate();
            assert!(mr < 0.25, "{hash:?}: miss rate {mr}");
        }
    }

    #[test]
    fn capacity_is_respected() {
        // Way more distinct blocks than lines: almost everything misses.
        let mut c = paper_skew(SkewHashKind::PrimeDisplacement);
        let lines = (512 * 1024 / 64) as u64;
        for i in 0..4 * lines {
            c.access(i * 64, false);
        }
        assert!(c.stats().miss_rate() > 0.9);
    }

    #[test]
    fn writebacks_flow() {
        let mut c = SkewedCache::new(SkewedConfig::new(
            4 * 2 * 64, // 2 banks x 2 sets
            2,
            64,
            SkewHashKind::Xor,
        ));
        // Fill far more dirty blocks than capacity: every eviction is a
        // dirty one, and the outcomes report each.
        let mut dirty_victims = 0;
        for i in 0..64u64 {
            let out = c.access_block(i, true);
            dirty_victims += u64::from(out.evicted.is_some_and(|v| v.dirty));
        }
        assert!(c.stats().writebacks > 0);
        assert_eq!(c.stats().writebacks, dirty_victims);
        assert_eq!(c.stats().evictions, dirty_victims);
    }

    #[test]
    fn nrunrw_prefers_clean_unreferenced() {
        let mut c = SkewedCache::new(
            SkewedConfig::new(4 * 2 * 64, 2, 64, SkewHashKind::Xor)
                .with_replacement(SkewReplacement::Nrunrw),
        );
        for i in 0..64u64 {
            c.access(i * 64, i % 2 == 0);
        }
        // Smoke: policy runs without violating capacity or determinism.
        let m1 = c.stats().misses;
        assert!(m1 > 0);
    }

    #[test]
    fn two_way_banks_match_seznec_original() {
        // Seznec's [18] design: 2 banks x 2 ways. Capacity must be
        // preserved and conflicts absorbed at least as well as with
        // direct-mapped banks of the same total size.
        let cfg = SkewedConfig::new(512 * 1024, 2, 64, SkewHashKind::Xor).with_ways_per_bank(2);
        assert_eq!(cfg.sets_per_bank(), 2048);
        let mut c = SkewedCache::new(cfg);
        for _ in 0..10 {
            for i in 0..16u64 {
                c.access(i * 2048 * 64, false);
            }
        }
        assert!(c.stats().miss_rate() < 0.25, "{}", c.stats().miss_rate());
    }

    #[test]
    fn way_associative_banks_respect_capacity() {
        let cfg = SkewedConfig::new(8 * 1024, 2, 64, SkewHashKind::PrimeDisplacement)
            .with_ways_per_bank(2); // 2 banks x 32 sets x 2 ways = 128 lines
        let mut c = SkewedCache::new(cfg);
        for i in 0..4096u64 {
            c.access(i * 64, false);
        }
        assert!(c.stats().miss_rate() > 0.9);
        // And a just-filled block is resident.
        c.access(77 * 64, false);
        assert!(c.contains(77 * 64));
    }

    #[test]
    fn validate_accepts_a_long_run() {
        let mut c = paper_skew(SkewHashKind::Xor);
        for i in 0..5_000u64 {
            c.access((i * 7919) % (1 << 22), i % 3 == 0);
        }
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_fires_on_seeded_double_residency() {
        let mut c = paper_skew(SkewHashKind::Xor);
        c.access(0x12345 * 64, false);
        // Corrupt: plant a second copy of the resident block in its
        // bank-1 home set (a correct fill would never duplicate it).
        let block = 0x12345u64;
        let set = c.indexers[1].index(block) as usize;
        let slot = c.slot(1, set);
        seed_line(&mut c, slot, block, VALID | RBIT);
        let err = c.validate().unwrap_err();
        assert!(err.contains("resident twice"), "{err}");
    }

    #[test]
    fn validate_fires_on_seeded_misplaced_block() {
        let mut c = paper_skew(SkewHashKind::PrimeDisplacement);
        c.access(0, false);
        // Corrupt: a block parked in a set its hash never produces.
        let block = 0xDEADu64;
        let wrong_set = (c.indexers[2].index(block) as usize + 1) % c.sets_per_bank;
        let slot = c.slot(2, wrong_set);
        seed_line(&mut c, slot, block, VALID);
        let err = c.validate().unwrap_err();
        assert!(err.contains("belongs in set"), "{err}");
    }

    #[cfg(any(debug_assertions, feature = "check"))]
    #[test]
    #[should_panic(expected = "skewed invariant violated")]
    fn per_access_check_fires_on_seeded_duplicate() {
        let mut c = paper_skew(SkewHashKind::Xor);
        let block = 0x777u64;
        c.access_block(block, false);
        let set = c.indexers[1].index(block) as usize;
        let slot = c.slot(1, set);
        seed_line(&mut c, slot, block, VALID | RBIT);
        // A re-reference sees the block twice among its candidates.
        c.access_block(block, false);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut c = paper_skew(SkewHashKind::PrimeDisplacement);
            for i in 0..10_000u64 {
                c.access((i * 7919) % (1 << 22), i % 3 == 0);
            }
            (c.stats().hits, c.stats().misses, c.stats().writebacks)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn typed_banks_match_boxed_banks_bit_for_bit() {
        let cfg = SkewedConfig::new(64 * 1024, 4, 64, SkewHashKind::PrimeDisplacement);
        let mut boxed = SkewedCache::new(cfg);
        let mut typed =
            SkewedCache::with_banks(cfg, |b, g| SkewDispBank::new(g, bank_disp_factor(b)));
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
