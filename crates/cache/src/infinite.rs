//! An unbounded cache for compulsory-miss accounting.

use std::collections::HashSet;

use crate::{CacheSim, CacheStats};

/// A cache of unbounded capacity: misses only on the first touch of each
/// block. Its miss count is exactly the *compulsory* (cold) miss count of
/// the trace, the baseline of the three-C miss taxonomy used to separate
/// the paper's conflict misses from capacity misses:
///
/// * compulsory = misses of [`InfiniteCache`],
/// * capacity = misses of [`FullyAssociative`](crate::FullyAssociative) −
///   compulsory,
/// * conflict = misses of the set-associative organization − misses of
///   the fully-associative one.
///
/// # Examples
///
/// ```
/// use primecache_cache::{CacheSim, InfiniteCache};
///
/// let mut c = InfiniteCache::new(64);
/// assert!(!c.access(0x1000, false));
/// assert!(c.access(0x1000, false));
/// assert!(c.access(0x1038, false)); // same 64-B block
/// ```
#[derive(Debug)]
pub struct InfiniteCache {
    line_shift: u32,
    resident: HashSet<u64>,
    stats: CacheStats,
}

impl InfiniteCache {
    /// Creates an unbounded cache with `line_bytes` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    #[must_use]
    pub fn new(line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            line_shift: line_bytes.trailing_zeros(),
            resident: HashSet::new(),
            stats: CacheStats::new(1),
        }
    }
}

impl CacheSim for InfiniteCache {
    fn access(&mut self, addr: u64, write: bool) -> bool {
        let block = addr >> self.line_shift;
        let hit = !self.resident.insert(block);
        self.stats.record(0, !hit, write);
        hit
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_equal_distinct_blocks() {
        let mut c = InfiniteCache::new(64);
        for round in 0..3 {
            let _ = round;
            for i in 0..100u64 {
                c.access(i * 64, false);
            }
        }
        assert_eq!(c.stats().misses, 100);
        assert_eq!(c.stats().accesses, 300);
    }

    #[test]
    fn never_evicts() {
        let mut c = InfiniteCache::new(64);
        for i in 0..100_000u64 {
            c.access(i * 64, false);
        }
        assert!(c.access(0, false), "first block must still be resident");
    }

    #[test]
    fn sub_block_accesses_share_a_line() {
        let mut c = InfiniteCache::new(64);
        assert!(!c.access(128, false));
        assert!(c.access(129, true));
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().writes, 1);
    }
}
