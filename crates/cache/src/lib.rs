//! Cache simulator substrate: the set-associative, skewed-associative, and
//! fully-associative caches the paper evaluates its hash functions on.
//!
//! The evaluation machine (Table 3) uses a 16 KB 2-way L1 and a 512 KB
//! 4-way L2, both write-back. This crate models those structures at the
//! block level with pluggable index functions from [`primecache_core`]:
//!
//! * [`Cache`] — a set-associative cache over any
//!   [`SetIndexer`](primecache_core::index::SetIndexer), with the
//!   replacement policies of [`replacement`],
//! * [`SkewedCache`] — Seznec's four-bank skewed-associative design with
//!   per-bank index functions and ENRU/NRUNRW replacement (§5.3),
//! * [`FullyAssociative`] — the `FA` reference of Figs. 11/12,
//! * [`Hierarchy`] — a two-level L1/L2 hierarchy returning which level
//!   serviced each access (drives the timing model),
//! * [`Tlb`] — a TLB that also caches the partial prime-modulo computation
//!   (§3.1.1),
//! * [`CacheStats`] — hit/miss/eviction/writeback counters plus per-set
//!   access, miss and eviction histograms (for the §4 uniformity
//!   classification and Fig. 13),
//! * [`CacheOutcome`] — what one access did: the set it indexed, whether
//!   it hit, and the line its fill [`Evicted`].
//!
//! # Examples
//!
//! ```
//! use primecache_cache::{Cache, CacheConfig, CacheSim};
//! use primecache_core::index::HashKind;
//!
//! let mut l2 = Cache::new(
//!     CacheConfig::new(512 * 1024, 4, 64).with_hash(HashKind::PrimeModulo),
//! );
//! // 128 KB-strided blocks conflict badly under traditional indexing but
//! // spread under prime modulo.
//! for _round in 0..4 {
//!     for i in 0..8u64 {
//!         l2.access(i * 128 * 1024, false);
//!     }
//! }
//! assert!(l2.stats().hits > 0);
//! ```

mod config;
mod fully_assoc;
mod hierarchy;
mod infinite;
pub mod paging;
pub mod replacement;
mod set_assoc;
mod skewed;
mod stats;
mod tlb;
mod victim;

pub use config::{CacheConfig, ReplacementKind, SkewHashKind, SkewReplacement, SkewedConfig};
pub use fully_assoc::FullyAssociative;
pub use hierarchy::{
    AccessOutcome, Hierarchy, HierarchyConfig, HierarchyOp, L1Sim, L2Organization, L2Sim,
    ReplayedL1,
};
pub use infinite::InfiniteCache;
pub use set_assoc::Cache;
pub use skewed::{bank_disp_factor, SkewedCache};
pub use stats::CacheStats;
pub use tlb::{Tlb, TlbStats};
pub use victim::VictimCache;

/// What one access did to a cache, returned by value: every cache
/// organization's `access_block`, and the [`L1Sim`] and [`L2Sim`]
/// accesses the [`Hierarchy`] acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// The statistics set the access counts in: the indexed set (bank
    /// 0's for a skewed cache, the single pseudo-set 0 for FA).
    pub set: usize,
    /// Whether the block was resident.
    pub hit: bool,
    /// The valid line a miss's fill evicted, clean or dirty. A hit
    /// evicts nothing, and a fill at most one line.
    pub evicted: Option<Evicted>,
}

/// A valid line an access's fill evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Its block address (in the cache's own lines).
    pub block: u64,
    /// Whether it was dirty: a write-back cache writes it to the level
    /// below.
    pub dirty: bool,
}

/// Common behaviour shared by every cache organization in this crate.
///
/// `access` simulates one demand access and returns `true` on a hit.
pub trait CacheSim {
    /// Simulates an access to byte address `addr`; `write` marks stores.
    /// Returns `true` on a hit.
    fn access(&mut self, addr: u64, write: bool) -> bool;

    /// Statistics accumulated so far.
    fn stats(&self) -> &CacheStats;
}
