//! TLB model with cached partial prime-modulo computation (§3.1.1).

use primecache_core::hw::TlbAssist;

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Total translations requested.
    pub accesses: u64,
    /// TLB hits.
    pub hits: u64,
    /// TLB misses (entry filled, page-modulo recomputed).
    pub misses: u64,
    /// Prime-modulo computations performed on fills (== `misses`; kept
    /// separate to make the §3.1.1 claim auditable).
    pub modulo_computations: u64,
}

/// A fully-associative LRU TLB that stores, alongside each translation,
/// the precomputed prime modulo of the page's first block address.
///
/// §3.1.1: "On a TLB miss, the prime modulo of the missed page index is
/// computed and stored in the new TLB entry. This computation is not in
/// the critical path … On an L1 miss, the pre-computed modulo of the page
/// index is added with the page offset bits", a sub-cycle add + select.
///
/// # Examples
///
/// ```
/// use primecache_cache::Tlb;
///
/// let mut tlb = Tlb::new(64, 4096, 2048, 64);
/// let idx = tlb.l2_index(0x0012_3456);
/// assert_eq!(idx, (0x0012_3456u64 >> 6) % 2039);
/// assert_eq!(tlb.stats().misses, 1);
/// let _ = tlb.l2_index(0x0012_3ABC); // same page: TLB hit
/// assert_eq!(tlb.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct Tlb {
    entries: usize,
    page_size: u64,
    assist: TlbAssist,
    /// (page_index, precomputed modulo, last-use stamp)
    slots: Vec<(u64, u64, u64)>,
    clock: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `entries` slots for `page_size` pages, serving
    /// an L2 with `n_set_phys` physical sets and `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0` or the sizes are not powers of two.
    #[must_use]
    pub fn new(entries: usize, page_size: u64, n_set_phys: u64, line_bytes: u64) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        Self {
            entries,
            page_size,
            assist: TlbAssist::new(n_set_phys, page_size, line_bytes),
            slots: Vec::with_capacity(entries),
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Translates `addr` and returns the L2 set index computed via the
    /// TLB-cached partial modulo.
    pub fn l2_index(&mut self, addr: u64) -> u64 {
        self.clock += 1;
        self.stats.accesses += 1;
        let page = addr / self.page_size;
        let offset = addr % self.page_size;
        let entry = if let Some(slot) = self.slots.iter_mut().find(|s| s.0 == page) {
            slot.2 = self.clock;
            self.stats.hits += 1;
            slot.1
        } else {
            self.stats.misses += 1;
            self.stats.modulo_computations += 1;
            let value = self.assist.page_entry(page);
            if self.slots.len() == self.entries {
                // Evict LRU.
                let lru = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.2)
                    .map(|(i, _)| i)
                    .expect("TLB non-empty");
                self.slots.swap_remove(lru);
            }
            self.slots.push((page, value, self.clock));
            value
        };
        self.assist.index(entry, offset)
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_matches_direct_modulo() {
        let mut tlb = Tlb::new(16, 4096, 2048, 64);
        for addr in (0..1u64 << 24).step_by(4099) {
            assert_eq!(tlb.l2_index(addr), (addr / 64) % 2039, "addr {addr:#x}");
        }
    }

    #[test]
    fn hits_within_a_page() {
        let mut tlb = Tlb::new(4, 4096, 2048, 64);
        for off in (0..4096u64).step_by(64) {
            let _ = tlb.l2_index(0x7000 + off);
        }
        assert_eq!(tlb.stats().misses, 1);
        assert_eq!(tlb.stats().hits, 63);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut tlb = Tlb::new(2, 4096, 2048, 64);
        let _ = tlb.l2_index(0); // page 0
        let _ = tlb.l2_index(4096); // page 1
        let _ = tlb.l2_index(0); // touch page 0
        let _ = tlb.l2_index(2 * 4096); // evicts page 1
        let _ = tlb.l2_index(0); // still resident: hit
        assert_eq!(tlb.stats().misses, 3);
        let _ = tlb.l2_index(4096); // page 1 was evicted: miss
        assert_eq!(tlb.stats().misses, 4);
    }

    #[test]
    fn one_modulo_computation_per_fill() {
        let mut tlb = Tlb::new(8, 4096, 2048, 64);
        for p in 0..100u64 {
            let _ = tlb.l2_index(p * 4096);
        }
        assert_eq!(tlb.stats().modulo_computations, tlb.stats().misses);
    }
}
