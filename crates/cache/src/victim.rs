//! A victim-cache front end (Jouppi's classic conflict-miss remedy).

use crate::{Cache, CacheConfig, CacheSim, CacheStats, Evicted};

/// A set-associative cache backed by a small fully-associative victim
/// buffer: evicted lines park in the buffer and swap back on a near-term
/// re-reference.
///
/// Victim caches are the classic *hardware* alternative to rehashing for
/// conflict misses; comparing one against prime indexing
/// (`ablation_victim`) shows why the paper's approach scales better — a
/// victim buffer of `v` entries absorbs at most `v` conflicting lines
/// total, while rehashing redistributes every set.
///
/// # Examples
///
/// ```
/// use primecache_cache::{CacheConfig, CacheSim, VictimCache};
///
/// let mut c = VictimCache::new(CacheConfig::new(512 * 1024, 4, 64), 8);
/// assert!(!c.access(0x1000, false));
/// assert!(c.access(0x1000, false));
/// ```
#[derive(Debug)]
pub struct VictimCache {
    main: Cache,
    /// Victim buffer entries: (block, dirty), LRU order (front = oldest).
    buffer: Vec<(u64, bool)>,
    capacity: usize,
    line_shift: u32,
    stats: CacheStats,
    /// Hits served by the victim buffer.
    victim_hits: u64,
}

impl VictimCache {
    /// Creates a victim-buffered cache with `victim_entries` buffer slots.
    ///
    /// # Panics
    ///
    /// Panics if `victim_entries == 0`.
    #[must_use]
    pub fn new(config: CacheConfig, victim_entries: usize) -> Self {
        assert!(victim_entries > 0, "victim buffer needs at least one entry");
        let line_shift = config.line_bytes().trailing_zeros();
        let n_set = {
            let c = Cache::new(config);
            c.n_set() as usize
        };
        Self {
            main: Cache::new(config),
            buffer: Vec::with_capacity(victim_entries),
            capacity: victim_entries,
            line_shift,
            stats: CacheStats::new(n_set),
            victim_hits: 0,
        }
    }

    /// Hits served from the victim buffer so far.
    #[must_use]
    pub fn victim_hits(&self) -> u64 {
        self.victim_hits
    }

    /// Checks every runtime invariant of the victim hierarchy: stat
    /// integrity of both levels, buffer occupancy within capacity, no
    /// duplicate buffer entries, exclusion between buffer and main
    /// cache, and buffer hits bounded by total hits.
    ///
    /// Debug builds (and release builds with the `check` feature) run
    /// these checks after every access.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.stats.validate()?;
        self.main.validate()?;
        if self.buffer.len() > self.capacity {
            return Err(format!(
                "victim buffer holds {} entries, capacity is {}",
                self.buffer.len(),
                self.capacity
            ));
        }
        if self.victim_hits > self.stats.hits {
            return Err(format!(
                "buffer hits ({}) exceed total hits ({})",
                self.victim_hits, self.stats.hits
            ));
        }
        for (i, &(block, _)) in self.buffer.iter().enumerate() {
            if self.buffer[i + 1..].iter().any(|&(b, _)| b == block) {
                return Err(format!("block {block:#x} parked twice in the buffer"));
            }
            if self.main.contains(block << self.line_shift) {
                return Err(format!(
                    "block {block:#x} resident in both the buffer and the main cache"
                ));
            }
        }
        Ok(())
    }

    /// Per-access invariant hook: the O(1) counter checks
    /// ([`CacheStats::check_counters`]) plus the buffer's bounds.
    #[cfg(any(debug_assertions, feature = "check"))]
    fn debug_check(&self) {
        if let Err(e) = self.stats.check_counters() {
            panic!("victim invariant violated: {e}");
        }
        assert!(
            self.buffer.len() <= self.capacity && self.victim_hits <= self.stats.hits,
            "victim invariant violated: {:?}",
            (self.stats.hits, self.buffer.len(), self.victim_hits)
        );
    }
}

impl CacheSim for VictimCache {
    fn access(&mut self, addr: u64, write: bool) -> bool {
        let block = addr >> self.line_shift;
        let main = self.main.access_block(block, write);
        let set = main.set;
        if main.hit {
            // A main hit evicts nothing, so there is nothing to park.
            self.stats.record(set, false, write);
            #[cfg(any(debug_assertions, feature = "check"))]
            self.debug_check();
            return true;
        }
        // Main miss: the fill already happened. Only a dirty victim
        // parks, an accepted simplification (the buffer still sees the
        // dirty, i.e. most conflict-prone, traffic of write-back
        // workloads); a clean one leaves the cache.
        match main.evicted {
            Some(Evicted { block, dirty: true }) => self.park(block, set),
            Some(Evicted { dirty: false, .. }) => self.stats.record_eviction(set, false),
            None => {}
        }
        // Probe the buffer for the requested block.
        if let Some(pos) = self.buffer.iter().position(|&(b, _)| b == block) {
            self.buffer.remove(pos);
            self.victim_hits += 1;
            self.stats.record(set, false, write);
            #[cfg(any(debug_assertions, feature = "check"))]
            self.debug_check();
            return true;
        }
        self.stats.record(set, true, write);
        #[cfg(any(debug_assertions, feature = "check"))]
        self.debug_check();
        false
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

impl VictimCache {
    /// Parks a dirty main-cache victim; a full buffer first evicts its
    /// oldest entry, counted in `set`, the set of the access that parks.
    fn park(&mut self, block: u64, set: usize) {
        if self.buffer.len() == self.capacity {
            let (_, was_dirty) = self.buffer.remove(0);
            self.stats.record_eviction(set, was_dirty);
        }
        self.buffer.push((block, true));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primecache_core::index::HashKind;

    #[test]
    fn victim_buffer_rescues_small_conflict_sets() {
        // 6 blocks aliasing in one 4-way set: 2 spill into the buffer, so
        // a cyclic walk eventually hits (unlike the raw cache).
        let cfg = CacheConfig::new(512 * 1024, 4, 64);
        let mut plain = Cache::new(cfg);
        let mut with_victim = VictimCache::new(cfg, 8);
        let blocks: Vec<u64> = (0..6u64).map(|i| i * 128 * 1024).collect();
        for _ in 0..50 {
            for &a in &blocks {
                plain.access(a, true); // writes => evictions are visible
                with_victim.access(a, true);
            }
        }
        assert!(
            with_victim.stats().misses < plain.stats().misses,
            "victim {} vs plain {}",
            with_victim.stats().misses,
            plain.stats().misses
        );
        assert!(with_victim.victim_hits() > 0);
    }

    #[test]
    fn victim_buffer_cannot_absorb_wide_conflicts() {
        // 16 aliasing blocks overwhelm an 8-entry buffer; pMod still wins.
        let cfg = CacheConfig::new(512 * 1024, 4, 64);
        let mut with_victim = VictimCache::new(cfg, 8);
        let mut pmod = Cache::new(cfg.with_hash(HashKind::PrimeModulo));
        let blocks: Vec<u64> = (0..16u64).map(|i| i * 128 * 1024).collect();
        for _ in 0..50 {
            for &a in &blocks {
                with_victim.access(a, true);
                pmod.access(a, true);
            }
        }
        assert!(
            pmod.stats().misses * 4 < with_victim.stats().misses,
            "pMod {} vs victim {}",
            pmod.stats().misses,
            with_victim.stats().misses
        );
    }

    #[test]
    fn stats_stay_consistent() {
        let mut c = VictimCache::new(CacheConfig::new(4096, 2, 64), 4);
        for i in 0..500u64 {
            c.access((i % 64) * 64, i % 3 == 0);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert_eq!(s.accesses, 500);
    }

    #[test]
    fn validate_accepts_a_long_run() {
        let mut c = VictimCache::new(CacheConfig::new(4096, 2, 64), 4);
        for i in 0..2_000u64 {
            c.access(((i * 7919) % (1 << 14)) & !63, i % 3 == 0);
        }
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_fires_on_seeded_buffer_overflow() {
        let mut c = VictimCache::new(CacheConfig::new(4096, 2, 64), 2);
        // Corrupt: stuff the buffer past its capacity.
        for b in 100..103u64 {
            c.buffer.push((b, false));
        }
        let err = c.validate().unwrap_err();
        assert!(err.contains("capacity"), "{err}");
    }

    #[test]
    fn validate_fires_on_seeded_double_residency() {
        let mut c = VictimCache::new(CacheConfig::new(4096, 2, 64), 4);
        c.access(0, false); // block 0 now in the main cache
        c.buffer.push((0, false)); // corrupt: and in the buffer
        let err = c.validate().unwrap_err();
        assert!(err.contains("both"), "{err}");
    }

    #[cfg(any(debug_assertions, feature = "check"))]
    #[test]
    #[should_panic(expected = "victim invariant violated")]
    fn per_access_check_fires_on_seeded_hit_count_drift() {
        let mut c = VictimCache::new(CacheConfig::new(4096, 2, 64), 4);
        c.access(0, false);
        c.victim_hits = 10; // corrupt: more buffer hits than hits
        c.access(0, false);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entry_buffer_rejected() {
        let _ = VictimCache::new(CacheConfig::new(4096, 2, 64), 0);
    }
}
