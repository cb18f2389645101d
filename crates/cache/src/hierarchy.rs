//! Two-level cache hierarchy (L1 + L2).
//!
//! The hierarchy is generic over its L2 simulator ([`L2Sim`]) and its L1
//! ([`L1Sim`]), so every caller runs it with concrete cache and
//! index-function types and the access path has no per-reference
//! virtual dispatch. The L1 is always the paper's traditionally indexed
//! cache: live, or a replay of its recorded outcomes, which are the same
//! under every L2. [`HierarchyConfig::build_around`] is the one place
//! that picks the concrete L2 type for an [`L2Organization`]; the
//! `check` crate's oracle machine restates the whole composition from
//! the [`Hierarchy`] docs.

use primecache_core::index::{
    Geometry, HashKind, PrimeDisplacement, PrimeModulo, SetIndexer, SkewDispBank, SkewXorBank,
    Traditional, Xor,
};
use primecache_obs::{Level, ObsHandle};

use crate::{
    bank_disp_factor, Cache, CacheConfig, CacheOutcome, CacheSim, CacheStats, FullyAssociative,
    SkewHashKind, SkewedCache, SkewedConfig,
};

/// Which component serviced a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the L1 data cache.
    L1Hit,
    /// Missed L1, hit L2.
    L2Hit,
    /// Missed both levels; serviced by main memory.
    Memory,
}

/// The L2 organizations the paper compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum L2Organization {
    /// A set-associative L2 (Base / 8-way / XOR / pMod / pDisp).
    SetAssoc(CacheConfig),
    /// A skewed-associative L2 (SKW / skw+pDisp).
    Skewed(SkewedConfig),
    /// The fully-associative reference (FA in Figs. 11/12).
    FullyAssociative {
        /// Capacity in bytes.
        size_bytes: u64,
        /// Line size in bytes.
        line_bytes: u64,
    },
}

impl L2Organization {
    /// The L2 line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        match self {
            L2Organization::SetAssoc(c) => c.line_bytes(),
            L2Organization::Skewed(c) => c.line_bytes(),
            L2Organization::FullyAssociative { line_bytes, .. } => *line_bytes,
        }
    }
}

/// Configuration of the two-level hierarchy.
///
/// # Examples
///
/// ```
/// use primecache_cache::{CacheConfig, HierarchyConfig, L2Organization};
/// use primecache_core::index::HashKind;
///
/// let cfg = HierarchyConfig::paper_default(
///     L2Organization::SetAssoc(
///         CacheConfig::new(512 * 1024, 4, 64).with_hash(HashKind::PrimeModulo),
///     ),
/// );
/// assert_eq!(cfg.l1.n_set_phys(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data cache configuration (always traditional indexing — the
    /// paper only rehashes the L2).
    pub l1: CacheConfig,
    /// L2 organization.
    pub l2: L2Organization,
    /// Sequential next-line prefetch depth into the L2 on every L2 demand
    /// miss (0 = off, the paper's machine). Prefetched lines install
    /// immediately — an idealized timely prefetcher, used by the
    /// `ablation_prefetch` study.
    pub prefetch_depth: u32,
}

impl HierarchyConfig {
    /// The paper's Table-3 L1 (16 KB, 2-way, 32-B lines) over the given L2.
    #[must_use]
    pub fn paper_default(l2: L2Organization) -> Self {
        Self {
            l1: CacheConfig::new(16 * 1024, 2, 32),
            l2,
            prefetch_depth: 0,
        }
    }

    /// Enables idealized next-line prefetching of `depth` lines.
    #[must_use]
    pub fn with_prefetch_depth(mut self, depth: u32) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// The live L1 `self.l1` describes: the one every hierarchy built
    /// from this configuration runs, or whose outcomes it replays.
    ///
    /// # Panics
    ///
    /// Panics if `self.l1` asks for an index function other than
    /// traditional indexing: the paper rehashes only the L2.
    #[must_use]
    pub fn live_l1(&self) -> Cache<Traditional> {
        assert_eq!(
            self.l1.hash(),
            HashKind::Traditional,
            "the L1 is traditionally indexed"
        );
        Cache::with_typed(
            self.l1,
            Traditional::new(Geometry::new(self.l1.n_set_phys())),
        )
    }

    /// Builds the hierarchy this configuration describes around a live
    /// L1 and runs `op` on it: [`HierarchyConfig::build_around`] with
    /// [`HierarchyConfig::live_l1`].
    ///
    /// # Panics
    ///
    /// Panics if `self.l1` asks for an index function other than
    /// traditional indexing: the paper rehashes only the L2.
    pub fn build<O: HierarchyOp>(self, op: O) -> O::Out {
        self.build_around(self.live_l1(), op)
    }

    /// Builds the hierarchy this configuration describes around `l1`,
    /// its L2 as the concrete cache and index-function type the
    /// organization and hash kind name, and runs `op` on it. `l1` must
    /// simulate `self.l1`.
    pub fn build_around<L: L1Sim, O: HierarchyOp<L>>(self, l1: L, op: O) -> O::Out {
        fn run<L: L1Sim, O: HierarchyOp<L>, X: L2Sim + 'static>(
            cfg: HierarchyConfig,
            l1: L,
            op: O,
            l2: X,
        ) -> O::Out {
            op.run(Hierarchy::with_parts(cfg, l1, l2))
        }
        match self.l2 {
            L2Organization::SetAssoc(cfg) => {
                let geom = Geometry::new(cfg.n_set_phys());
                match cfg.hash() {
                    HashKind::Traditional => {
                        run(self, l1, op, Cache::with_typed(cfg, Traditional::new(geom)))
                    }
                    HashKind::Xor => run(self, l1, op, Cache::with_typed(cfg, Xor::new(geom))),
                    HashKind::PrimeModulo => {
                        run(self, l1, op, Cache::with_typed(cfg, PrimeModulo::new(geom)))
                    }
                    HashKind::PrimeDisplacement => {
                        let index = PrimeDisplacement::paper_default(geom);
                        run(self, l1, op, Cache::with_typed(cfg, index))
                    }
                    HashKind::Expr(id) => run(self, l1, op, Cache::with_typed(cfg, id.indexer())),
                }
            }
            L2Organization::Skewed(cfg) => match cfg.hash() {
                SkewHashKind::Xor => run(
                    self,
                    l1,
                    op,
                    SkewedCache::with_banks(cfg, |b, g| SkewXorBank::new(g, b)),
                ),
                SkewHashKind::PrimeDisplacement => {
                    let bank = |b, g| SkewDispBank::new(g, bank_disp_factor(b));
                    run(self, l1, op, SkewedCache::with_banks(cfg, bank))
                }
            },
            L2Organization::FullyAssociative {
                size_bytes,
                line_bytes,
            } => run(self, l1, op, FullyAssociative::new(size_bytes, line_bytes)),
        }
    }
}

/// An operation on a hierarchy whose L1 (`L`) and L2 types are fixed at
/// compile time, so its per-access path is monomorphized.
/// [`HierarchyConfig::build`] and [`HierarchyConfig::build_around`] run
/// it.
pub trait HierarchyOp<L: L1Sim = Cache<Traditional>> {
    /// What the operation returns.
    type Out;

    /// Runs the operation on a freshly built hierarchy.
    fn run<X: L2Sim + 'static>(self, hierarchy: Hierarchy<X, L>) -> Self::Out;
}

/// The L1 interface the hierarchy drives: the live paper L1
/// (`Cache<Traditional>`), or a replay of the outcomes such an L1
/// produced over the same references. Nothing below the L1 feeds back
/// into it (no back-invalidation; the prefetcher fills only the L2), so
/// the two are interchangeable under every L2. Only the live L1 has
/// statistics ([`Hierarchy::l1_stats`]); a replay's are its recording's.
pub trait L1Sim {
    /// One demand access to `block` (in L1 lines; write-allocate,
    /// write-back), and what it did. Every dirty victim must be
    /// reported: the hierarchy writes it into the L2. A clean one
    /// matters only to an attached recorder, which only a hierarchy
    /// around the live L1 takes, so a replay may report it as none.
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome;
}

/// An [`L1Sim`] that replays outcomes recorded elsewhere, which its
/// driver loads between accesses ([`Hierarchy::replayed_l1_mut`]). The
/// live L1 is not one, so a hierarchy never hands it out: an access made
/// on it directly would skip the L2, its statistics and the recorder.
pub trait ReplayedL1: L1Sim {}

impl L1Sim for Cache<Traditional> {
    #[inline]
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome {
        self.access_block(block, write)
    }
}

/// The L2 interface the hierarchy drives. Implemented by the three cache
/// organizations; the hierarchy is generic over it so a concrete L2 type
/// monomorphizes the whole access path.
pub trait L2Sim {
    /// One access to `block` (in L2 lines), and what it did: a demand
    /// read (write misses write-allocate through the L1 fill), an L1
    /// victim's write, or a prefetch fill.
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome;

    /// The cache's own statistics: every access, demand or not, and
    /// every eviction.
    fn stats(&self) -> &CacheStats;

    /// Point-in-time occupancy snapshot (valid lines per set).
    fn occupancy(&self) -> Vec<u64>;
}

impl<I: SetIndexer> L2Sim for Cache<I> {
    #[inline]
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome {
        self.access_block(block, write)
    }

    fn stats(&self) -> &CacheStats {
        CacheSim::stats(self)
    }

    fn occupancy(&self) -> Vec<u64> {
        Cache::occupancy(self)
    }
}

impl<B: SetIndexer> L2Sim for SkewedCache<B> {
    #[inline]
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome {
        self.access_block(block, write)
    }

    fn stats(&self) -> &CacheStats {
        CacheSim::stats(self)
    }

    fn occupancy(&self) -> Vec<u64> {
        SkewedCache::occupancy(self)
    }
}

impl L2Sim for FullyAssociative {
    #[inline]
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome {
        self.access_block(block, write)
    }

    fn stats(&self) -> &CacheStats {
        CacheSim::stats(self)
    }

    fn occupancy(&self) -> Vec<u64> {
        FullyAssociative::occupancy(self)
    }
}

/// A two-level write-back hierarchy: the paper's 16 KB L1 in front of a
/// configurable 512 KB L2.
///
/// Semantics, in the order one demand access applies them:
/// 1. the access probes the L1 (write-allocate, write-back); a hit ends
///    it;
/// 2. an L1 miss is an L2 demand *read* (write misses write-allocate
///    through the L1 fill), recorded in the demand statistics
///    ([`Hierarchy::l2_stats`], the traffic the figures count) with the
///    access's own write flag;
/// 3. on an L2 demand miss with prefetching on, the following lines are
///    then installed in the L2;
/// 4. the L1 fill's dirty victim, if any, is then written into the L2.
///    It counts in the L2 cache's own statistics
///    ([`Hierarchy::l2_cache_stats`]), not as demand traffic;
/// 5. the dirty L2 victims of steps 2–4 become memory write traffic, in
///    eviction order: each cache access returns what it evicted
///    ([`CacheOutcome`]), and the hierarchy queues the dirty L2 victims
///    until [`Hierarchy::take_memory_writes`] takes them.
///
/// Every cache counts its own evictions ([`CacheStats::evictions`]).
/// The hierarchy is the one place that acts on an outcome: it also
/// reports each demand access, and each eviction ahead of the access
/// event of the access that caused it, to an attached recorder
/// ([`Hierarchy::attach_obs`]).
///
/// The L1 (`L`) is live by default. A hierarchy around a replayed L1
/// ([`HierarchyConfig::build_around`]) applies the same steps to the
/// recorded outcomes; [`Hierarchy::attach_obs`] and
/// [`Hierarchy::l1_stats`] exist only for the live one, and
/// [`Hierarchy::replayed_l1_mut`] only for a replay ([`ReplayedL1`]).
///
/// # Examples
///
/// ```
/// use primecache_cache::{AccessOutcome, Cache, CacheConfig, Hierarchy, HierarchyConfig,
///                        L2Organization};
///
/// let l2 = CacheConfig::new(512 * 1024, 4, 64);
/// let cfg = HierarchyConfig::paper_default(L2Organization::SetAssoc(l2));
/// let mut h = Hierarchy::with_l2(cfg, Cache::new(l2));
/// assert_eq!(h.access(0x1000, false), AccessOutcome::Memory);
/// assert_eq!(h.access(0x1000, false), AccessOutcome::L1Hit);
/// ```
#[derive(Debug)]
pub struct Hierarchy<X: L2Sim, L: L1Sim = Cache<Traditional>> {
    config: HierarchyConfig,
    l1: L,
    l2: X,
    /// Shifts from a byte address to an L1 and an L2 block address.
    l1_shift: u32,
    l2_shift: u32,
    /// Demand stats of the L2 only (excludes L1 writeback traffic), used
    /// by the figures.
    l2_demand: CacheStats,
    /// Dirty L2 victims not yet taken, in eviction order.
    memory_writes: Vec<u64>,
    /// The recorder that sees demand accesses and evictions.
    obs: Option<ObsHandle>,
}

impl<X: L2Sim, L: L1Sim> Hierarchy<X, L> {
    /// Assembles a hierarchy from pre-built caches. `l1` and `l2` must
    /// match `config`.
    #[must_use]
    pub fn with_parts(config: HierarchyConfig, l1: L, l2: X) -> Self {
        let n_demand_sets = l2.stats().set_accesses.len();
        Self {
            l1,
            l2,
            l1_shift: config.l1.line_bytes().trailing_zeros(),
            l2_shift: config.l2.line_bytes().trailing_zeros(),
            l2_demand: CacheStats::new(n_demand_sets),
            memory_writes: Vec::new(),
            obs: None,
            config,
        }
    }

    /// Point-in-time L2 occupancy snapshot: valid lines per set
    /// (bank-major for a skewed L2, a single entry for FA). Not on the
    /// access path — intended for end-of-run occupancy histograms.
    #[must_use]
    pub fn l2_occupancy(&self) -> Vec<u64> {
        self.l2.occupancy()
    }

    /// The hierarchy's configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Simulates one demand access.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let l1 = self.l1.access(addr >> self.l1_shift, write);
        if let Some(h) = &self.obs {
            let mut rec = h.borrow_mut();
            if let Some(victim) = l1.evicted {
                rec.eviction(Level::L1, l1.set as u32, victim.dirty);
            }
            rec.cache_access(Level::L1, l1.set as u32, l1.hit, write);
        }
        if l1.hit {
            return AccessOutcome::L1Hit;
        }
        // L1 miss: demand access to L2. The fill into L1 has happened;
        // its dirty victim is forwarded below.
        let block = addr >> self.l2_shift;
        let l2 = self.l2_access(block, false);
        self.l2_demand.record(l2.set, !l2.hit, write);
        if let Some(h) = &self.obs {
            h.borrow_mut()
                .cache_access(Level::L2, l2.set as u32, l2.hit, write);
        }
        if !l2.hit && self.config.prefetch_depth > 0 {
            // Idealized next-line prefetch: install the following lines.
            for i in 1..=u64::from(self.config.prefetch_depth) {
                self.l2_access(block + i, false);
            }
        }
        // Forward the L1 fill's dirty victim into the L2 (write-allocate
        // on miss).
        if let Some(victim) = l1.evicted.filter(|v| v.dirty) {
            self.l2_access((victim.block << self.l1_shift) >> self.l2_shift, true);
        }
        if l2.hit {
            AccessOutcome::L2Hit
        } else {
            AccessOutcome::Memory
        }
    }

    /// One L2 access: its dirty victim, if any, joins the memory writes,
    /// and an attached recorder sees the eviction.
    #[inline]
    fn l2_access(&mut self, block: u64, write: bool) -> CacheOutcome {
        let out = self.l2.access(block, write);
        if let Some(victim) = out.evicted {
            if victim.dirty {
                self.memory_writes.push(victim.block);
            }
            if let Some(h) = &self.obs {
                h.borrow_mut()
                    .eviction(Level::L2, out.set as u32, victim.dirty);
            }
        }
        out
    }

    /// L2 *demand* statistics: only L1 misses, the traffic the paper's
    /// figures count. They count no evictions.
    #[must_use]
    pub fn l2_stats(&self) -> &CacheStats {
        &self.l2_demand
    }

    /// The L2 cache's own statistics: demand reads, L1 victims' writes
    /// and prefetch fills, and every eviction they caused (a dirty one
    /// is a writeback, i.e. a memory write).
    #[must_use]
    pub fn l2_cache_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Drains the block addresses of dirty L2 victims sent to memory
    /// since the last call (DRAM write traffic), in eviction order. The
    /// buffer drains in place and keeps its capacity.
    pub fn take_memory_writes(&mut self) -> std::vec::Drain<'_, u64> {
        self.memory_writes.drain(..)
    }
}

impl<X: L2Sim, L: ReplayedL1> Hierarchy<X, L> {
    /// The replayed L1, for its driver to load with the outcomes of the
    /// references it sees next.
    pub fn replayed_l1_mut(&mut self) -> &mut L {
        &mut self.l1
    }
}

impl<X: L2Sim> Hierarchy<X> {
    /// Assembles a hierarchy around a pre-built L2 (which must match
    /// `config.l2`), building the live L1 `config.l1` describes.
    ///
    /// # Panics
    ///
    /// Panics if `config.l1` asks for an index function other than
    /// traditional indexing: the paper rehashes only the L2.
    #[must_use]
    pub fn with_l2(config: HierarchyConfig, l2: X) -> Self {
        Self::with_parts(config, config.live_l1(), l2)
    }

    /// L1 statistics.
    #[must_use]
    pub fn l1_stats(&self) -> &CacheStats {
        CacheSim::stats(&self.l1)
    }

    /// Attaches one observability recorder to the whole hierarchy: it
    /// sees the demand accesses (L1, and L2 demand traffic — the counts
    /// the paper's figures use) and every eviction at both levels, each
    /// eviction ahead of the access event of the access that caused it.
    pub fn attach_obs(&mut self, handle: ObsHandle) {
        self.obs = Some(handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's L1 over a set-associative L2.
    fn paper(l2: CacheConfig) -> Hierarchy<Cache> {
        let cfg = HierarchyConfig::paper_default(L2Organization::SetAssoc(l2));
        Hierarchy::with_l2(cfg, Cache::new(l2))
    }

    fn base_l2() -> CacheConfig {
        CacheConfig::new(512 * 1024, 4, 64)
    }

    #[test]
    fn outcome_ladder() {
        let mut h = paper(base_l2());
        assert_eq!(h.access(0, false), AccessOutcome::Memory);
        assert_eq!(h.access(0, false), AccessOutcome::L1Hit);
        // A different L1 set, same L2 line? 32-B L1 lines vs 64-B L2 lines:
        // addr 32 misses L1 (new L1 line) but hits L2 (same 64-B block).
        assert_eq!(h.access(32, false), AccessOutcome::L2Hit);
    }

    #[test]
    fn l2_demand_counts_only_l1_misses() {
        let mut h = paper(base_l2());
        for _ in 0..100 {
            h.access(0x4000, false);
        }
        assert_eq!(h.l2_stats().accesses, 1, "99 L1 hits must not reach L2");
        assert_eq!(h.l1_stats().accesses, 100);
    }

    #[test]
    fn skewed_l2_works_in_hierarchy() {
        let l2 = SkewedConfig::new(512 * 1024, 4, 64, SkewHashKind::PrimeDisplacement);
        let cfg = HierarchyConfig::paper_default(L2Organization::Skewed(l2));
        let mut h = Hierarchy::with_l2(cfg, SkewedCache::new(l2));
        assert_eq!(h.access(0x8000, false), AccessOutcome::Memory);
        assert_eq!(h.access(0x8000, false), AccessOutcome::L1Hit);
    }

    #[test]
    fn fa_l2_works_in_hierarchy() {
        let cfg = HierarchyConfig::paper_default(L2Organization::FullyAssociative {
            size_bytes: 512 * 1024,
            line_bytes: 64,
        });
        let mut h = Hierarchy::with_l2(cfg, FullyAssociative::new(512 * 1024, 64));
        assert_eq!(h.access(0xC000, false), AccessOutcome::Memory);
        assert_eq!(h.access(0xC000 + 32, false), AccessOutcome::L2Hit);
    }

    #[test]
    fn pmod_l2_reduces_misses_on_conflicting_strides() {
        let run = |hash| {
            let mut h = paper(base_l2().with_hash(hash));
            for _ in 0..20 {
                for i in 0..16u64 {
                    h.access(i * 128 * 1024, false);
                }
            }
            h.l2_stats().misses
        };
        let base = run(HashKind::Traditional);
        let pmod = run(HashKind::PrimeModulo);
        assert!(
            pmod * 4 < base,
            "pMod misses {pmod} should be far below Base {base}"
        );
    }

    #[test]
    fn dirty_l1_victims_reach_l2_as_writes() {
        let mut h = paper(base_l2());
        // Write many distinct L1-conflicting lines so L1 evicts dirty data.
        for i in 0..1000u64 {
            h.access(i * 16 * 1024, true); // L1 is 16 KB: same L1 set region
        }
        assert!(h.l2_cache_stats().writes > 0, "L1 writebacks must reach L2");
    }

    #[test]
    fn prefetch_installs_following_lines() {
        let cfg = HierarchyConfig::paper_default(L2Organization::SetAssoc(base_l2()))
            .with_prefetch_depth(2);
        let mut h = Hierarchy::with_l2(cfg, Cache::new(base_l2()));
        assert_eq!(h.access(0x10000, false), AccessOutcome::Memory);
        // The next two lines are already in L2: L1 misses become L2 hits.
        assert_eq!(h.access(0x10000 + 64, false), AccessOutcome::L2Hit);
        assert_eq!(h.access(0x10000 + 128, false), AccessOutcome::L2Hit);
        // The line after that was not prefetched (depth 2).
        assert_eq!(h.access(0x10000 + 256, false), AccessOutcome::Memory);
    }

    #[test]
    fn prefetch_depth_zero_is_inert() {
        let mut h = paper(base_l2());
        h.access(0x20000, false);
        assert_eq!(h.access(0x20000 + 64, false), AccessOutcome::Memory);
    }
}
