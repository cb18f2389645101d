//! Virtual-to-physical page mapping models.
//!
//! The L2 is physically indexed: with 4 KB pages, a 2048-set 64-B-line L2
//! takes the upper 5 of its 11 index bits from the *frame* number, so the
//! OS page allocator partly decides which sets a data structure occupies.
//! The paper's simulator (like most) effectively uses an identity mapping;
//! these models let the reproduction quantify how much of the conflict
//! pathology survives other allocation policies — and show that prime
//! indexing helps under all of them.
//!
//! # Examples
//!
//! ```
//! use primecache_cache::paging::PageMapper;
//!
//! let mut ident = PageMapper::identity(4096);
//! assert_eq!(ident.translate(0x1234_5678), 0x1234_5678);
//!
//! let mut seq = PageMapper::sequential(4096);
//! // First-touch allocation: the first two distinct pages get frames 0, 1.
//! assert_eq!(seq.translate(0xABCD_E012), 0x012);
//! assert_eq!(seq.translate(0x1111_1345), 0x1345 % 4096 + 4096);
//! ```

use std::collections::HashMap;

/// Page-allocation policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Physical == virtual (the common simulator simplification).
    Identity,
    /// First-touch sequential frame allocation (a fresh-booted buddy
    /// allocator): preserves intra-page layout, compacts inter-page.
    Sequential,
    /// Deterministic random frame per page (a long-running, fragmented
    /// system): scrambles the index bits above the page offset.
    Random,
    /// Page colouring: the frame is chosen so the L2 set bits inside the
    /// frame number equal those of the virtual page (cache-aware OS).
    Colored {
        /// Number of page colours (L2 sets spanned by a page-aligned
        /// region / sets per page).
        colors: u32,
    },
}

/// A stateful virtual→physical translator implementing a [`PagePolicy`].
#[derive(Debug, Clone)]
pub struct PageMapper {
    policy: PagePolicy,
    page_size: u64,
    table: HashMap<u64, u64>,
    next_frame: u64,
    rng_state: u64,
}

impl PageMapper {
    /// Creates a mapper with the given policy and page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    #[must_use]
    pub fn new(policy: PagePolicy, page_size: u64) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        Self {
            policy,
            page_size,
            table: HashMap::new(),
            next_frame: 0,
            rng_state: 0x1234_5678_9ABC_DEF1,
        }
    }

    /// Identity mapping.
    #[must_use]
    pub fn identity(page_size: u64) -> Self {
        Self::new(PagePolicy::Identity, page_size)
    }

    /// Sequential first-touch mapping.
    #[must_use]
    pub fn sequential(page_size: u64) -> Self {
        Self::new(PagePolicy::Sequential, page_size)
    }

    /// Deterministic random mapping.
    #[must_use]
    pub fn random(page_size: u64) -> Self {
        Self::new(PagePolicy::Random, page_size)
    }

    /// Colored mapping with `colors` page colours.
    #[must_use]
    pub fn colored(page_size: u64, colors: u32) -> Self {
        Self::new(PagePolicy::Colored { colors }, page_size)
    }

    /// The policy in use.
    #[must_use]
    pub fn policy(&self) -> PagePolicy {
        self.policy
    }

    /// Number of pages mapped so far.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.table.len()
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Translates a virtual byte address to a physical byte address,
    /// allocating a frame on first touch.
    pub fn translate(&mut self, vaddr: u64) -> u64 {
        if self.policy == PagePolicy::Identity {
            return vaddr;
        }
        let vpn = vaddr / self.page_size;
        let offset = vaddr % self.page_size;
        let frame = match self.table.get(&vpn) {
            Some(&f) => f,
            None => {
                let f = self.allocate(vpn);
                self.table.insert(vpn, f);
                f
            }
        };
        frame * self.page_size + offset
    }

    fn allocate(&mut self, vpn: u64) -> u64 {
        match self.policy {
            PagePolicy::Identity => vpn,
            PagePolicy::Sequential => {
                let f = self.next_frame;
                self.next_frame += 1;
                f
            }
            PagePolicy::Random => self.next_random() >> 20, // 44-bit frame space
            PagePolicy::Colored { colors } => {
                // Keep vpn's colour, advance the rest sequentially.
                let colors = u64::from(colors.max(1));
                let color = vpn % colors;
                let f = self.next_frame * colors + color;
                self.next_frame += 1;
                f
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_transparent() {
        let mut m = PageMapper::identity(4096);
        for a in [0u64, 4096, 0xFFFF_FFFF, u64::MAX / 2] {
            assert_eq!(m.translate(a), a);
        }
        assert_eq!(m.mapped_pages(), 0);
    }

    #[test]
    fn translation_is_stable_per_page() {
        for policy in [
            PagePolicy::Sequential,
            PagePolicy::Random,
            PagePolicy::Colored { colors: 32 },
        ] {
            let mut m = PageMapper::new(policy, 4096);
            let first = m.translate(0x12345);
            assert_eq!(m.translate(0x12345), first, "{policy:?}");
            // Same page, different offset: same frame.
            let other = m.translate(0x12345 ^ 0x7);
            assert_eq!(other / 4096, first / 4096, "{policy:?}");
            assert_eq!(other % 4096, (0x12345 ^ 0x7) % 4096, "{policy:?}");
        }
    }

    #[test]
    fn offsets_are_preserved() {
        for policy in [
            PagePolicy::Sequential,
            PagePolicy::Random,
            PagePolicy::Colored { colors: 32 },
        ] {
            let mut m = PageMapper::new(policy, 4096);
            for vaddr in [0x1000u64, 0x1ABC, 0x77_7777, 0xDEAD_BEEF] {
                let p = m.translate(vaddr);
                assert_eq!(p % 4096, vaddr % 4096, "{policy:?} @ {vaddr:#x}");
            }
        }
    }

    #[test]
    fn sequential_compacts_frames() {
        let mut m = PageMapper::sequential(4096);
        let a = m.translate(123 * 4096);
        let b = m.translate(9999 * 4096);
        let c = m.translate(5 * 4096);
        assert_eq!(a / 4096, 0);
        assert_eq!(b / 4096, 1);
        assert_eq!(c / 4096, 2);
    }

    #[test]
    fn colored_preserves_page_color() {
        let colors = 32u64;
        let mut m = PageMapper::colored(4096, colors as u32);
        for vpn in [0u64, 7, 31, 32, 33, 1000] {
            let p = m.translate(vpn * 4096);
            assert_eq!((p / 4096) % colors, vpn % colors, "vpn {vpn}");
        }
    }

    #[test]
    fn random_is_deterministic_across_mappers() {
        let mut a = PageMapper::random(4096);
        let mut b = PageMapper::random(4096);
        for vpn in 0..100u64 {
            assert_eq!(a.translate(vpn * 4096), b.translate(vpn * 4096));
        }
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        for policy in [PagePolicy::Sequential, PagePolicy::Colored { colors: 16 }] {
            let mut m = PageMapper::new(policy, 4096);
            let frames: std::collections::HashSet<u64> =
                (0..1000u64).map(|v| m.translate(v * 4096) / 4096).collect();
            assert_eq!(frames.len(), 1000, "{policy:?}");
        }
    }
}
