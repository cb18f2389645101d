//! Two-level cache hierarchy (L1 + L2).
//!
//! The hierarchy is generic over its L2 simulator ([`L2Sim`]) and its L1
//! index function, so the monomorphized scheme drivers in
//! `primecache-sim` can instantiate it with concrete cache types (no
//! per-reference virtual dispatch). [`Hierarchy::new`] keeps the
//! dynamic [`DynL2`] form for callers that pick the organization at
//! runtime; both forms are bit-identical.

#[cfg(feature = "obs")]
use primecache_obs::{Level, ObsHandle};

use primecache_core::index::SetIndexer;

use crate::{
    Cache, CacheConfig, CacheSim, CacheStats, FullyAssociative, SkewedCache, SkewedConfig,
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
}

/// The L2 interface the hierarchy drives. Implemented by the three cache
/// organizations and by [`DynL2`]; the hierarchy is generic over it so a
/// concrete L2 type monomorphizes the whole access path.
pub trait L2Sim {
    /// A demand access (always a read at the L2: write misses
    /// write-allocate through the L1 fill). Returns `(stats_set, hit)`.
    fn demand_access(&mut self, addr: u64) -> (usize, bool);

    /// A non-demand access: L1 writeback writes and prefetch fills.
    fn plain_access(&mut self, addr: u64, write: bool) -> bool;

    /// Raw statistics (demand + writeback traffic).
    fn stats(&self) -> &CacheStats;

    /// Resets statistics (contents survive).
    fn reset_stats(&mut self);

    /// Drains dirty-victim block addresses accumulated since the last call.
    fn take_writebacks(&mut self) -> Vec<u64>;

    /// Point-in-time occupancy snapshot (valid lines per set).
    fn occupancy(&self) -> Vec<u64>;

    /// Attaches an eviction recorder tagged with `level`.
    #[cfg(feature = "obs")]
    fn attach_obs(&mut self, level: Level, handle: ObsHandle);
}

impl<I: SetIndexer> L2Sim for Cache<I> {
    fn demand_access(&mut self, addr: u64) -> (usize, bool) {
        self.access_indexed(addr, false)
    }

    fn plain_access(&mut self, addr: u64, write: bool) -> bool {
        self.access(addr, write)
    }

    fn stats(&self) -> &CacheStats {
        CacheSim::stats(self)
    }

    fn reset_stats(&mut self) {
        CacheSim::reset_stats(self);
    }

    fn take_writebacks(&mut self) -> Vec<u64> {
        Cache::take_writebacks(self)
    }

    fn occupancy(&self) -> Vec<u64> {
        Cache::occupancy(self)
    }

    #[cfg(feature = "obs")]
    fn attach_obs(&mut self, level: Level, handle: ObsHandle) {
        Cache::attach_obs(self, level, handle);
    }
}

impl<B: SetIndexer> L2Sim for SkewedCache<B> {
    fn demand_access(&mut self, addr: u64) -> (usize, bool) {
        self.access_indexed(addr, false)
    }

    fn plain_access(&mut self, addr: u64, write: bool) -> bool {
        self.access(addr, write)
    }

    fn stats(&self) -> &CacheStats {
        CacheSim::stats(self)
    }

    fn reset_stats(&mut self) {
        CacheSim::reset_stats(self);
    }

    fn take_writebacks(&mut self) -> Vec<u64> {
        SkewedCache::take_writebacks(self)
    }

    fn occupancy(&self) -> Vec<u64> {
        SkewedCache::occupancy(self)
    }

    #[cfg(feature = "obs")]
    fn attach_obs(&mut self, level: Level, handle: ObsHandle) {
        SkewedCache::attach_obs(self, level, handle);
    }
}

impl L2Sim for FullyAssociative {
    fn demand_access(&mut self, addr: u64) -> (usize, bool) {
        (0, self.access(addr, false))
    }

    fn plain_access(&mut self, addr: u64, write: bool) -> bool {
        self.access(addr, write)
    }

    fn stats(&self) -> &CacheStats {
        CacheSim::stats(self)
    }

    fn reset_stats(&mut self) {
        CacheSim::reset_stats(self);
    }

    fn take_writebacks(&mut self) -> Vec<u64> {
        FullyAssociative::take_writebacks(self)
    }

    fn occupancy(&self) -> Vec<u64> {
        FullyAssociative::occupancy(self)
    }

    #[cfg(feature = "obs")]
    fn attach_obs(&mut self, level: Level, handle: ObsHandle) {
        FullyAssociative::attach_obs(self, level, handle);
    }
}

/// Runtime-selected L2 — one of the three organizations, dispatched per
/// access. The default L2 type of [`Hierarchy`]; the monomorphized
/// drivers use concrete types instead.
#[derive(Debug)]
pub enum DynL2 {
    /// A set-associative L2 (boxed index function).
    Set(Cache),
    /// A skewed-associative L2 (boxed per-bank index functions).
    Skewed(SkewedCache),
    /// The fully-associative reference.
    Fa(FullyAssociative),
}

impl DynL2 {
    /// Builds the L2 an organization describes.
    #[must_use]
    pub fn build(l2: L2Organization) -> Self {
        match l2 {
            L2Organization::SetAssoc(cfg) => DynL2::Set(Cache::new(cfg)),
            L2Organization::Skewed(cfg) => DynL2::Skewed(SkewedCache::new(cfg)),
            L2Organization::FullyAssociative {
                size_bytes,
                line_bytes,
            } => DynL2::Fa(FullyAssociative::new(size_bytes, line_bytes)),
        }
    }
}

impl L2Sim for DynL2 {
    fn demand_access(&mut self, addr: u64) -> (usize, bool) {
        match self {
            DynL2::Set(c) => c.demand_access(addr),
            DynL2::Skewed(c) => c.demand_access(addr),
            DynL2::Fa(c) => c.demand_access(addr),
        }
    }

    fn plain_access(&mut self, addr: u64, write: bool) -> bool {
        match self {
            DynL2::Set(c) => c.access(addr, write),
            DynL2::Skewed(c) => c.access(addr, write),
            DynL2::Fa(c) => c.access(addr, write),
        }
    }

    fn stats(&self) -> &CacheStats {
        match self {
            DynL2::Set(c) => CacheSim::stats(c),
            DynL2::Skewed(c) => CacheSim::stats(c),
            DynL2::Fa(c) => CacheSim::stats(c),
        }
    }

    fn reset_stats(&mut self) {
        match self {
            DynL2::Set(c) => CacheSim::reset_stats(c),
            DynL2::Skewed(c) => CacheSim::reset_stats(c),
            DynL2::Fa(c) => CacheSim::reset_stats(c),
        }
    }

    fn take_writebacks(&mut self) -> Vec<u64> {
        match self {
            DynL2::Set(c) => c.take_writebacks(),
            DynL2::Skewed(c) => c.take_writebacks(),
            DynL2::Fa(c) => c.take_writebacks(),
        }
    }

    fn occupancy(&self) -> Vec<u64> {
        match self {
            DynL2::Set(c) => c.occupancy(),
            DynL2::Skewed(c) => c.occupancy(),
            DynL2::Fa(c) => c.occupancy(),
        }
    }

    #[cfg(feature = "obs")]
    fn attach_obs(&mut self, level: Level, handle: ObsHandle) {
        match self {
            DynL2::Set(c) => c.attach_obs(level, handle),
            DynL2::Skewed(c) => c.attach_obs(level, handle),
            DynL2::Fa(c) => c.attach_obs(level, handle),
        }
    }
}

/// A two-level write-back hierarchy: the paper's 16 KB L1 in front of a
/// configurable 512 KB L2.
///
/// Semantics:
/// * demand accesses probe L1 first; L1 misses probe L2; L2 misses go to
///   memory (the returned [`AccessOutcome`] drives the timing model);
/// * both levels are write-allocate write-back;
/// * dirty L1 victims are written into L2 (counted in L2's `writes`, not
///   as demand traffic for the figures — see [`Hierarchy::l2_stats`]);
/// * dirty L2 victims become memory write traffic
///   ([`Hierarchy::take_memory_writes`]).
///
/// # Examples
///
/// ```
/// use primecache_cache::{AccessOutcome, CacheConfig, Hierarchy, HierarchyConfig,
///                        L2Organization};
///
/// let mut h = Hierarchy::new(HierarchyConfig::paper_default(
///     L2Organization::SetAssoc(CacheConfig::new(512 * 1024, 4, 64)),
/// ));
/// assert_eq!(h.access(0x1000, false), AccessOutcome::Memory);
/// assert_eq!(h.access(0x1000, false), AccessOutcome::L1Hit);
/// ```
#[derive(Debug)]
pub struct Hierarchy<X = DynL2, J = Box<dyn SetIndexer>>
where
    X: L2Sim,
    J: SetIndexer,
{
    config: HierarchyConfig,
    l1: Cache<J>,
    l2: X,
    /// Demand stats of the L2 only (excludes L1 writeback traffic), used
    /// by the figures.
    l2_demand: CacheStats,
    /// Block addresses of dirty L2 victims (memory write traffic).
    memory_writes: Vec<u64>,
    /// Lines prefetched into the L2 so far.
    prefetches: u64,
    /// Demand-access recorder (evictions are reported by the caches
    /// themselves through their own attached handles).
    #[cfg(feature = "obs")]
    obs: Option<ObsHandle>,
}

impl Hierarchy {
    /// Builds the runtime-dispatched hierarchy from its configuration.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Self::with_parts(config, Cache::new(config.l1), DynL2::build(config.l2))
    }
}

impl<X: L2Sim, J: SetIndexer> Hierarchy<X, J> {
    /// Assembles a hierarchy from pre-built caches. `l1` and `l2` must
    /// match `config` (the monomorphized drivers build all three from
    /// the same [`HierarchyConfig`]).
    #[must_use]
    pub fn with_parts(config: HierarchyConfig, l1: Cache<J>, l2: X) -> Self {
        let n_demand_sets = l2.stats().set_accesses.len();
        Self {
            l1,
            l2,
            l2_demand: CacheStats::new(n_demand_sets),
            memory_writes: Vec::new(),
            prefetches: 0,
            #[cfg(feature = "obs")]
            obs: None,
            config,
        }
    }

    /// Attaches one observability recorder to the whole hierarchy: the
    /// hierarchy reports demand accesses (L1, and L2 demand traffic —
    /// the counts the paper's figures use), and each level reports its
    /// own evictions.
    #[cfg(feature = "obs")]
    pub fn attach_obs(&mut self, handle: ObsHandle) {
        self.l1.attach_obs(Level::L1, handle.clone());
        self.l2.attach_obs(Level::L2, handle.clone());
        self.obs = Some(handle);
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
        let (l1_set, l1_hit) = self.l1.access_indexed(addr, write);
        let _ = l1_set;
        #[cfg(feature = "obs")]
        if let Some(h) = &self.obs {
            h.borrow_mut()
                .cache_access(Level::L1, l1_set as u32, l1_hit, write);
        }
        if l1_hit {
            self.drain_l1_writebacks();
            return AccessOutcome::L1Hit;
        }
        // L1 miss: demand access to L2. The fill into L1 happened inside
        // `Cache::access`; forward its dirty victims below.
        let (l2_set, l2_hit) = self.l2.demand_access(addr);
        self.l2_demand.record(l2_set, !l2_hit, write);
        #[cfg(feature = "obs")]
        if let Some(h) = &self.obs {
            h.borrow_mut()
                .cache_access(Level::L2, l2_set as u32, l2_hit, write);
        }
        if !l2_hit && self.config.prefetch_depth > 0 {
            // Idealized next-line prefetch: install the following lines.
            let line = match self.config.l2 {
                L2Organization::SetAssoc(c) => c.line_bytes(),
                L2Organization::Skewed(c) => c.line_bytes(),
                L2Organization::FullyAssociative { line_bytes, .. } => line_bytes,
            };
            for i in 1..=u64::from(self.config.prefetch_depth) {
                self.l2.plain_access(addr + i * line, false);
                self.prefetches += 1;
            }
        }
        self.drain_l1_writebacks();
        self.drain_l2_writebacks();
        if l2_hit {
            AccessOutcome::L2Hit
        } else {
            AccessOutcome::Memory
        }
    }

    /// Lines prefetched into the L2 so far.
    #[must_use]
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    fn drain_l1_writebacks(&mut self) {
        let line = self.config.l1.line_bytes();
        for block in self.l1.take_writebacks() {
            // Write the victim into L2 (write-allocate on miss).
            self.l2.plain_access(block * line, true);
        }
        self.drain_l2_writebacks();
    }

    fn drain_l2_writebacks(&mut self) {
        let blocks = self.l2.take_writebacks();
        self.memory_writes.extend(blocks);
    }

    /// L1 statistics.
    #[must_use]
    pub fn l1_stats(&self) -> &CacheStats {
        CacheSim::stats(&self.l1)
    }

    /// L2 statistics including L1 writeback traffic (the raw cache view).
    #[must_use]
    pub fn l2_raw_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// L2 *demand* statistics: only L1 misses, the traffic the paper's
    /// figures count.
    #[must_use]
    pub fn l2_stats(&self) -> &CacheStats {
        &self.l2_demand
    }

    /// Drains the block addresses of dirty L2 victims sent to memory
    /// since the last call (DRAM write traffic).
    pub fn take_memory_writes(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.memory_writes)
    }

    /// Resets all statistics (contents survive — use after warmup).
    pub fn reset_stats(&mut self) {
        CacheSim::reset_stats(&mut self.l1);
        self.l2.reset_stats();
        self.l2_demand.reset();
        self.memory_writes.clear();
        self.prefetches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SkewHashKind;
    use primecache_core::index::{Geometry, HashKind, PrimeModulo, Traditional};

    fn paper(l2: L2Organization) -> Hierarchy {
        Hierarchy::new(HierarchyConfig::paper_default(l2))
    }

    fn base_l2() -> L2Organization {
        L2Organization::SetAssoc(CacheConfig::new(512 * 1024, 4, 64))
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
        let mut h = paper(L2Organization::Skewed(SkewedConfig::new(
            512 * 1024,
            4,
            64,
            SkewHashKind::PrimeDisplacement,
        )));
        assert_eq!(h.access(0x8000, false), AccessOutcome::Memory);
        assert_eq!(h.access(0x8000, false), AccessOutcome::L1Hit);
    }

    #[test]
    fn fa_l2_works_in_hierarchy() {
        let mut h = paper(L2Organization::FullyAssociative {
            size_bytes: 512 * 1024,
            line_bytes: 64,
        });
        assert_eq!(h.access(0xC000, false), AccessOutcome::Memory);
        assert_eq!(h.access(0xC000 + 32, false), AccessOutcome::L2Hit);
    }

    #[test]
    fn pmod_l2_reduces_misses_on_conflicting_strides() {
        let run = |hash| {
            let mut h = paper(L2Organization::SetAssoc(
                CacheConfig::new(512 * 1024, 4, 64).with_hash(hash),
            ));
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
        assert!(h.l2_raw_stats().writes > 0, "L1 writebacks must reach L2");
    }

    #[test]
    fn prefetch_installs_following_lines() {
        let mut cfg = HierarchyConfig::paper_default(base_l2());
        cfg = cfg.with_prefetch_depth(2);
        let mut h = Hierarchy::new(cfg);
        assert_eq!(h.access(0x10000, false), AccessOutcome::Memory);
        assert_eq!(h.prefetches(), 2);
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
        assert_eq!(h.prefetches(), 0);
        assert_eq!(h.access(0x20000 + 64, false), AccessOutcome::Memory);
    }

    #[test]
    fn reset_stats_clears_all_levels() {
        let mut h = paper(base_l2());
        h.access(0, true);
        h.reset_stats();
        assert_eq!(h.l1_stats().accesses, 0);
        assert_eq!(h.l2_stats().accesses, 0);
        assert_eq!(h.l2_raw_stats().accesses, 0);
    }

    #[test]
    fn monomorphized_hierarchy_matches_dyn_bit_for_bit() {
        let l2_cfg = CacheConfig::new(512 * 1024, 4, 64).with_hash(HashKind::PrimeModulo);
        let config = HierarchyConfig::paper_default(L2Organization::SetAssoc(l2_cfg));
        let mut dynamic = Hierarchy::new(config);
        let mut mono = Hierarchy::with_parts(
            config,
            Cache::with_typed(
                config.l1,
                Traditional::new(Geometry::new(config.l1.n_set_phys())),
            ),
            Cache::with_typed(l2_cfg, PrimeModulo::new(Geometry::new(l2_cfg.n_set_phys()))),
        );
        for i in 0..30_000u64 {
            let addr = (i * 7919) % (1 << 24);
            let write = i % 3 == 0;
            assert_eq!(dynamic.access(addr, write), mono.access(addr, write), "{i}");
            assert_eq!(
                dynamic.take_memory_writes(),
                mono.take_memory_writes(),
                "memory-write divergence at access {i}"
            );
        }
        assert_eq!(dynamic.l1_stats(), mono.l1_stats());
        assert_eq!(dynamic.l2_stats(), mono.l2_stats());
        assert_eq!(dynamic.l2_raw_stats(), mono.l2_raw_stats());
    }
}
