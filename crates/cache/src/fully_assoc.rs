//! Fully-associative reference cache.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{CacheOutcome, CacheSim, CacheStats, Evicted};

/// Deterministic multiplicative hasher for block addresses.
///
/// The default `HashMap` hasher (SipHash) costs tens of cycles per
/// lookup; block addresses need no DoS resistance, so a Fibonacci
/// multiply plus an avalanche shift is enough. Results cannot depend on
/// the hasher: iteration order is never observed (LRU order lives in the
/// recency list), only key lookups.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockHasher {
    state: u64,
}

impl Hasher for BlockHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (unused by u64 keys, kept total for correctness).
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state ^ (self.state >> 29)
    }
}

/// The "no slot" link.
const NIL: u32 = u32::MAX;

/// A slot's neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The next more recently used slot (`NIL` at the head).
    prev: u32,
    /// The next less recently used slot (`NIL` at the tail).
    next: u32,
}

/// A fully-associative LRU cache — the `FA` reference of Figs. 11/12.
///
/// A set-associative cache's misses in excess of the `FA` cache's are its
/// conflict misses, which is how the paper separates conflict from
/// capacity effects.
///
/// Storage is a structure-of-arrays slab (`blocks` / `dirty` per slot)
/// located through a fast-hashed block→slot map. Recency is an
/// intrusive doubly-linked list over the slots, most recently used at
/// the head: a hit moves its slot to the head, a miss evicts the tail.
/// An access costs one hash probe plus `O(1)` link updates — no
/// per-access allocation, no search for the victim.
///
/// # Examples
///
/// ```
/// use primecache_cache::{CacheSim, FullyAssociative};
///
/// let mut fa = FullyAssociative::new(512 * 1024, 64);
/// assert!(!fa.access(0x1234, false));
/// assert!(fa.access(0x1234, false));
/// ```
#[derive(Debug)]
pub struct FullyAssociative {
    capacity_lines: usize,
    line_shift: u32,
    /// block -> slab slot.
    slot_of: HashMap<u64, u32, BuildHasherDefault<BlockHasher>>,
    /// Resident block address per slot (parallel to `dirty`).
    blocks: Vec<u64>,
    /// Dirty bit per slot.
    dirty: Vec<bool>,
    /// Recency list links per slot.
    links: Vec<Link>,
    /// Most recently used slot (`NIL` while empty).
    head: u32,
    /// Least recently used slot, the next victim (`NIL` while empty).
    tail: u32,
    /// Occupied slots (slots fill in order until capacity).
    live: usize,
    stats: CacheStats,
}

impl FullyAssociative {
    /// Creates a fully-associative cache of `size_bytes` with `line_bytes`
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two and the capacity holds
    /// at least one line (and fewer than `u32::MAX`, the slot index
    /// width — a loud failure instead of a silent slot-index wrap).
    #[must_use]
    pub fn new(size_bytes: u64, line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let capacity = size_bytes / line_bytes;
        assert!(capacity >= 1, "capacity must hold at least one line");
        assert!(
            capacity < u64::from(u32::MAX),
            "{capacity} lines cannot be addressed in 32 bits"
        );
        let capacity_lines = usize::try_from(capacity).expect("capacity fits usize");
        Self {
            capacity_lines,
            line_shift: line_bytes.trailing_zeros(),
            slot_of: HashMap::with_capacity_and_hasher(
                capacity_lines,
                BuildHasherDefault::default(),
            ),
            blocks: vec![0; capacity_lines],
            dirty: vec![false; capacity_lines],
            links: vec![
                Link {
                    prev: NIL,
                    next: NIL
                };
                capacity_lines
            ],
            head: NIL,
            tail: NIL,
            live: 0,
            // All stats land in a single pseudo-set.
            stats: CacheStats::new(1),
        }
    }

    /// Point-in-time occupancy snapshot: resident lines, as a single
    /// pseudo-set entry.
    #[must_use]
    pub fn occupancy(&self) -> Vec<u64> {
        vec![self.live as u64]
    }

    /// Links `slot`, which is on no list, in at the head.
    #[inline]
    fn push_head(&mut self, slot: u32) {
        self.links[slot as usize] = Link {
            prev: NIL,
            next: self.head,
        };
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.links[self.head as usize].prev = slot;
        }
        self.head = slot;
    }

    /// Moves the listed `slot` to the head.
    #[inline]
    fn move_to_head(&mut self, slot: u32) {
        if slot == self.head {
            return;
        }
        // Not the head, so it has a more recent neighbour.
        let Link { prev, next } = self.links[slot as usize];
        self.links[prev as usize].next = next;
        if next == NIL {
            self.tail = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
        self.push_head(slot);
    }

    /// Simulates an access to a block address: the cache's one access
    /// path. Every access counts in the single pseudo-set 0.
    pub fn access_block(&mut self, block: u64, write: bool) -> CacheOutcome {
        if let Some(&slot) = self.slot_of.get(&block) {
            self.move_to_head(slot);
            self.dirty[slot as usize] |= write;
            self.stats.record(0, false, write);
            return CacheOutcome {
                set: 0,
                hit: true,
                evicted: None,
            };
        }
        self.stats.record(0, true, write);
        let (slot, evicted) = if self.live == self.capacity_lines {
            // Evict the least recently used block: the tail.
            let slot = self.tail;
            let victim = Evicted {
                block: self.blocks[slot as usize],
                dirty: self.dirty[slot as usize],
            };
            self.slot_of.remove(&victim.block).expect("victim resident");
            self.stats.record_eviction(0, victim.dirty);
            self.move_to_head(slot);
            (slot, Some(victim))
        } else {
            // `new` caps the capacity below `u32::MAX`, so every slot
            // fits the u32 links and map values.
            let slot = u32::try_from(self.live).expect("slot fits u32");
            self.live += 1;
            self.push_head(slot);
            (slot, None)
        };
        self.blocks[slot as usize] = block;
        self.dirty[slot as usize] = write;
        self.slot_of.insert(block, slot);
        CacheOutcome {
            set: 0,
            hit: false,
            evicted,
        }
    }

    /// Returns `true` if `addr`'s block is resident.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        self.slot_of.contains_key(&(addr >> self.line_shift))
    }
}

impl CacheSim for FullyAssociative {
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
    use primecache_check::oracle::{OracleCache, OraclePolicy};

    #[test]
    fn lru_eviction_order() {
        let mut fa = FullyAssociative::new(4 * 64, 64); // 4 lines
        for b in 0..4u64 {
            fa.access_block(b, false);
        }
        fa.access_block(0, false); // block 1 is now LRU
        fa.access_block(4, false); // evicts block 1
        assert!(fa.contains(0));
        assert!(!fa.contains(64));
        assert!(fa.contains(4 * 64));
    }

    #[test]
    fn no_conflict_misses_within_capacity() {
        // Any working set <= capacity has only cold misses, regardless of
        // address layout — the defining property of full associativity.
        let mut fa = FullyAssociative::new(64 * 64, 64);
        for _ in 0..10 {
            for i in 0..64u64 {
                fa.access_block(i * 2048, false); // wild stride, no matter
            }
        }
        assert_eq!(fa.stats().misses, 64);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut fa = FullyAssociative::new(2 * 64, 64);
        fa.access_block(0, true);
        fa.access_block(1, false);
        let out = fa.access_block(2, false); // evicts dirty block 0
        let victim = Evicted {
            block: 0,
            dirty: true,
        };
        assert_eq!(out.evicted, Some(victim));
        assert_eq!(fa.stats().writebacks, 1);
        let out = fa.access_block(3, false); // evicts clean block 1
        assert_eq!(out.evicted.map(|v| (v.block, v.dirty)), Some((1, false)));
        assert_eq!((fa.stats().writebacks, fa.stats().evictions), (1, 2));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut fa = FullyAssociative::new(2 * 64, 64);
        fa.access_block(0, false);
        fa.access_block(0, true); // now dirty
        fa.access_block(1, false);
        fa.access_block(2, false); // evicts block 0
        assert_eq!(fa.stats().writebacks, 1);
    }

    #[test]
    fn stats_single_pseudo_set() {
        let mut fa = FullyAssociative::new(1024, 64);
        fa.access(0, false);
        fa.access(4096, false);
        assert_eq!(fa.stats().set_accesses.len(), 1);
        assert_eq!(fa.stats().set_accesses[0], 2);
    }

    #[test]
    fn single_line_cache_works() {
        let mut fa = FullyAssociative::new(64, 64);
        assert!(!fa.access_block(1, true).hit);
        assert!(fa.access_block(1, false).hit);
        let out = fa.access_block(2, false); // evicts dirty block 1
        assert!(!out.hit);
        assert_eq!(out.evicted.map(|v| (v.block, v.dirty)), Some((1, true)));
    }

    #[test]
    fn non_power_of_two_capacity_works() {
        // 3 lines: a capacity that is not a power of two.
        let mut fa = FullyAssociative::new(3 * 64, 64);
        for b in 0..3u64 {
            fa.access_block(b, false);
        }
        fa.access_block(3, false); // evicts block 0 (the LRU)
        assert!(!fa.contains(0));
        assert!(fa.contains(64));
        assert!(fa.contains(2 * 64));
        assert!(fa.contains(3 * 64));
    }

    /// The recency list must replay exact LRU: same hits, same victims,
    /// against the check crate's single-set LRU oracle.
    #[test]
    fn matches_naive_lru_model() {
        let mut naive = OracleCache::new(1, 16, OraclePolicy::Lru, |_| 0);
        let mut fa = FullyAssociative::new(16 * 64, 64);
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for i in 0..50_000u64 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let block = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % 48;
            let write = i % 3 == 0;
            let want = naive.access_block(block, write);
            let got = fa.access_block(block, write);
            // The oracle's `Evicted` is the check crate's build of this
            // crate's type, so compare the fields.
            let want_victim = want.evicted.map(|v| (v.block, v.dirty));
            let got_victim = got.evicted.map(|v| (v.block, v.dirty));
            assert_eq!((got.hit, got_victim), (want.hit, want_victim), "{i}");
        }
    }
}
