//! Cache statistics.

/// Counters and histograms accumulated by a cache simulation.
///
/// Per-set histograms drive the paper's §4 uniformity classification
/// (`stdev(accesses)/mean > 0.5`) and the Fig. 13 miss-distribution plots.
///
/// # Examples
///
/// ```
/// use primecache_cache::CacheStats;
///
/// let mut s = CacheStats::new(4);
/// s.record(2, true, false);
/// s.record(2, false, false);
/// assert_eq!(s.accesses, 2);
/// assert_eq!(s.misses, 1);
/// assert_eq!(s.set_accesses[2], 2);
/// assert_eq!(s.set_misses[2], 1);
/// assert!((s.miss_rate() - 0.5).abs() < 1e-12);
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
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Demand accesses per set.
    pub set_accesses: Vec<u64>,
    /// Demand misses per set.
    pub set_misses: Vec<u64>,
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
            set_accesses: vec![0; n_set],
            set_misses: vec![0; n_set],
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

    /// Records a dirty-line writeback.
    pub fn record_writeback(&mut self) {
        self.writebacks += 1;
    }

    /// Checks the counter-integrity invariants that every cache
    /// organization must maintain: `hits + misses == accesses`,
    /// `writes <= accesses`, and the per-set histograms summing to the
    /// scalar counters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.hits + self.misses != self.accesses {
            return Err(format!(
                "hits ({}) + misses ({}) != accesses ({})",
                self.hits, self.misses, self.accesses
            ));
        }
        if self.writes > self.accesses {
            return Err(format!(
                "writes ({}) > accesses ({})",
                self.writes, self.accesses
            ));
        }
        let set_acc: u64 = self.set_accesses.iter().sum();
        if set_acc != self.accesses {
            return Err(format!(
                "per-set accesses sum to {set_acc}, scalar counter is {}",
                self.accesses
            ));
        }
        let set_miss: u64 = self.set_misses.iter().sum();
        if set_miss != self.misses {
            return Err(format!(
                "per-set misses sum to {set_miss}, scalar counter is {}",
                self.misses
            ));
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

    /// Zeroes every counter and histogram, keeping the set count.
    pub fn reset(&mut self) {
        let n = self.set_accesses.len();
        *self = CacheStats::new(n);
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
        s.record_writeback();
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

    #[test]
    fn reset_keeps_shape() {
        let mut s = CacheStats::new(16);
        s.record(3, true, true);
        s.record_writeback();
        s.reset();
        assert_eq!(s.accesses, 0);
        assert_eq!(s.writebacks, 0);
        assert_eq!(s.set_accesses.len(), 16);
    }
}
