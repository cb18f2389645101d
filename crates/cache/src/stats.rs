//! Cache statistics.

/// Counters and histograms accumulated by a cache simulation.
///
/// Per-set histograms drive the paper's §4 uniformity classification
/// (`stdev(accesses)/mean > 0.5`) and the Fig. 13 miss-distribution plots.
///
/// A cache counts an eviction when a miss's fill displaces a valid line,
/// clean or dirty, in the set of the access that missed; a dirty one is
/// also a writeback. So `writebacks <= evictions <= misses`.
///
/// # Examples
///
/// ```
/// use primecache_cache::CacheStats;
///
/// let mut s = CacheStats::new(4);
/// s.record(2, true, false);
/// s.record(2, false, false);
/// s.record(2, true, false);
/// s.record_eviction(2, true);
/// assert_eq!(s.accesses, 3);
/// assert_eq!(s.misses, 2);
/// assert_eq!(s.set_accesses[2], 3);
/// assert_eq!(s.set_misses[2], 2);
/// assert_eq!((s.evictions, s.writebacks, s.set_evictions[2]), (1, 1, 1));
/// assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Total demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Store accesses (subset of `accesses`).
    pub writes: u64,
    /// Dirty lines written back on eviction (a subset of `evictions`).
    pub writebacks: u64,
    /// Valid lines evicted by fills, clean or dirty.
    pub evictions: u64,
    /// Demand accesses per set.
    pub set_accesses: Vec<u64>,
    /// Demand misses per set.
    pub set_misses: Vec<u64>,
    /// Evictions per set: the set of the access whose fill evicted.
    /// Empty until the first eviction, so statistics that count none
    /// (the hierarchy's L2 demand statistics) hold no histogram.
    pub set_evictions: Vec<u64>,
}

impl CacheStats {
    /// Creates zeroed statistics for a cache with `n_set` sets.
    #[must_use]
    pub fn new(n_set: usize) -> Self {
        Self {
            accesses: 0,
            hits: 0,
            misses: 0,
            writes: 0,
            writebacks: 0,
            evictions: 0,
            set_accesses: vec![0; n_set],
            set_misses: vec![0; n_set],
            set_evictions: Vec::new(),
        }
    }

    /// Records one demand access to `set`.
    pub fn record(&mut self, set: usize, miss: bool, write: bool) {
        self.accesses += 1;
        self.set_accesses[set] += 1;
        if write {
            self.writes += 1;
        }
        if miss {
            self.misses += 1;
            self.set_misses[set] += 1;
        } else {
            self.hits += 1;
        }
    }

    /// Records the eviction of a valid line by a fill in `set`; a dirty
    /// line is also a writeback.
    #[inline]
    pub fn record_eviction(&mut self, set: usize, dirty: bool) {
        if self.set_evictions.is_empty() {
            self.first_eviction();
        }
        self.evictions += 1;
        self.set_evictions[set] += 1;
        self.writebacks += u64::from(dirty);
    }

    /// Sizes the per-set eviction counts, once, at the first eviction.
    #[cold]
    fn first_eviction(&mut self) {
        self.set_evictions = vec![0; self.set_accesses.len()];
    }

    /// The O(1) counter invariants: `hits + misses == accesses`,
    /// `writes <= accesses` and `writebacks <= evictions <= misses`.
    /// [`CacheStats::validate`] and every cache's per-access check run
    /// it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_counters(&self) -> Result<(), String> {
        let s = self;
        let violated = [
            (s.hits + s.misses != s.accesses, "hits + misses != accesses"),
            (s.writes > s.accesses, "writes > accesses"),
            (s.writebacks > s.evictions, "writebacks > evictions"),
            (s.evictions > s.misses, "more evictions than fills"),
        ];
        match violated.into_iter().find(|&(bad, _)| bad) {
            None => Ok(()),
            Some((_, what)) => Err(format!(
                "{what}: accesses {}, hits {}, misses {}, writes {}, evictions {}, writebacks {}",
                s.accesses, s.hits, s.misses, s.writes, s.evictions, s.writebacks
            )),
        }
    }

    /// Checks the counter-integrity invariants that every cache
    /// organization must maintain: [`CacheStats::check_counters`], and
    /// the per-set histograms summing to the scalar counters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.check_counters()?;
        for (name, sets, total) in [
            ("accesses", &self.set_accesses, self.accesses),
            ("misses", &self.set_misses, self.misses),
            ("evictions", &self.set_evictions, self.evictions),
        ] {
            let sum: u64 = sets.iter().sum();
            if sum != total {
                return Err(format!(
                    "per-set {name} sum to {sum}, scalar counter is {total}"
                ));
            }
        }
        for (i, (&a, &m)) in self.set_accesses.iter().zip(&self.set_misses).enumerate() {
            if m > a {
                return Err(format!("set {i}: misses ({m}) > accesses ({a})"));
            }
        }
        Ok(())
    }

    /// Miss rate in `\[0, 1\]`; 0.0 when no accesses were made.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_consistent() {
        let mut s = CacheStats::new(8);
        for i in 0..100usize {
            s.record(i % 8, i % 3 == 0, i % 5 == 0);
        }
        assert_eq!(s.accesses, 100);
        assert_eq!(s.hits + s.misses, s.accesses);
        assert_eq!(s.set_accesses.iter().sum::<u64>(), s.accesses);
        assert_eq!(s.set_misses.iter().sum::<u64>(), s.misses);
    }

    #[test]
    fn validate_accepts_recorded_history() {
        let mut s = CacheStats::new(8);
        for i in 0..100usize {
            s.record(i % 8, i % 3 == 0, i % 5 == 0);
        }
        s.record_eviction(3, true);
        s.record_eviction(5, false);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn validate_fires_on_seeded_hit_miss_imbalance() {
        let mut s = CacheStats::new(4);
        s.record(0, true, false);
        s.hits += 1; // corrupt: a hit with no access
        let err = s.validate().unwrap_err();
        assert!(err.contains("!= accesses"), "{err}");
    }

    #[test]
    fn validate_fires_on_seeded_histogram_drift() {
        let mut s = CacheStats::new(4);
        s.record(1, false, false);
        s.set_accesses[2] += 1; // corrupt: histogram out of sync
        let err = s.validate().unwrap_err();
        assert!(err.contains("per-set accesses"), "{err}");
    }

    #[test]
    fn validate_fires_on_seeded_eviction_histogram_drift() {
        let mut s = CacheStats::new(4);
        s.record(1, true, false);
        s.record_eviction(1, false);
        s.set_evictions[1] -= 1; // corrupt: an eviction in no set
        let err = s.validate().unwrap_err();
        assert!(err.contains("per-set evictions"), "{err}");
    }

    #[test]
    fn check_counters_fires_on_seeded_eviction_excess() {
        let mut s = CacheStats::new(4);
        s.record(0, true, true);
        s.record_eviction(0, true);
        s.record_eviction(0, false); // corrupt: two evictions, one fill
        let err = s.check_counters().unwrap_err();
        assert!(err.contains("more evictions than fills"), "{err}");
        s.evictions = 0; // corrupt: a writeback with no eviction
        let err = s.check_counters().unwrap_err();
        assert!(err.contains("writebacks > evictions"), "{err}");
    }

    #[test]
    fn validate_fires_on_seeded_per_set_excess() {
        let mut s = CacheStats::new(4);
        s.record(3, true, false);
        s.record(3, false, false);
        // Corrupt one set pair in a sum-preserving way.
        s.set_misses[3] += 1;
        s.misses += 1;
        s.hits -= 1;
        s.set_accesses[3] -= 1;
        s.set_accesses[0] += 1;
        let err = s.validate().unwrap_err();
        assert!(err.contains("set 3"), "{err}");
    }

    #[test]
    fn miss_rate_handles_empty() {
        assert_eq!(CacheStats::new(4).miss_rate(), 0.0);
    }
}
