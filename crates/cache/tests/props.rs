//! Property-based tests of the cache simulators against naive reference
//! models.

use primecache_cache::{
    Cache, CacheConfig, CacheSim, FullyAssociative, ReplacementKind, SkewHashKind, SkewedCache,
    SkewedConfig,
};
use primecache_check::oracle::{OracleCache, OraclePolicy};
use primecache_check::prop::{forall, Rng};
use primecache_core::index::HashKind;

/// The check crate's textbook LRU cache over `n_set` sets of `assoc`
/// ways of 64-B lines, indexed by `block % n_set`.
fn reference(n_set: u64, assoc: usize) -> impl FnMut(u64) -> bool {
    let mut cache = OracleCache::new(n_set as usize, assoc, OraclePolicy::Lru, move |b| b % n_set);
    move |addr| cache.access_block(addr / 64, false).hit
}

fn addr_stream(rng: &mut Rng) -> Vec<u64> {
    rng.vec(1, 600, |r| r.range_u64(0, 1 << 16))
}

#[test]
fn lru_cache_matches_reference_model() {
    forall(
        "lru_cache_matches_reference_model",
        64,
        addr_stream,
        |addrs: &Vec<u64>| {
            // Tiny cache so evictions are frequent: 8 sets x 2 ways x 64 B.
            let mut sim = Cache::new(CacheConfig::new(1024, 2, 64));
            let mut reference = reference(8, 2);
            for (i, &a) in addrs.iter().enumerate() {
                assert_eq!(sim.access(a, false), reference(a), "access #{i} to {a:#x}");
            }
        },
    );
}

#[test]
fn pmod_cache_matches_reference_with_prime_sets() {
    forall(
        "pmod_cache_matches_reference_with_prime_sets",
        64,
        addr_stream,
        |addrs: &Vec<u64>| {
            // 16 physical sets -> 13 prime sets, 2 ways.
            let mut sim =
                Cache::new(CacheConfig::new(2048, 2, 64).with_hash(HashKind::PrimeModulo));
            let mut reference = reference(13, 2);
            for &a in addrs {
                assert_eq!(sim.access(a, false), reference(a));
            }
        },
    );
}

#[test]
fn fully_associative_matches_reference() {
    forall(
        "fully_associative_matches_reference",
        64,
        addr_stream,
        |addrs: &Vec<u64>| {
            let mut sim = FullyAssociative::new(16 * 64, 64);
            let mut reference = reference(1, 16);
            for &a in addrs {
                assert_eq!(sim.access(a, false), reference(a));
            }
        },
    );
}

#[test]
fn stats_are_always_consistent() {
    forall(
        "stats_are_always_consistent",
        64,
        |rng| (addr_stream(rng), rng.next_u64()),
        |&(ref addrs, writes)| {
            let mut c = Cache::new(CacheConfig::new(4096, 4, 64).with_hash(HashKind::Xor));
            for (i, &a) in addrs.iter().enumerate() {
                c.access(a, (writes >> (i % 64)) & 1 == 1);
            }
            let s = c.stats();
            assert_eq!(s.hits + s.misses, s.accesses);
            assert_eq!(s.accesses, addrs.len() as u64);
            assert_eq!(s.set_accesses.iter().sum::<u64>(), s.accesses);
            assert_eq!(s.set_misses.iter().sum::<u64>(), s.misses);
            assert!(s.writebacks <= s.writes);
        },
    );
}

#[test]
fn skewed_cache_never_loses_blocks_it_just_filled() {
    forall(
        "skewed_cache_never_loses_blocks_it_just_filled",
        64,
        addr_stream,
        |addrs: &Vec<u64>| {
            let mut c = SkewedCache::new(SkewedConfig::new(4096, 4, 64, SkewHashKind::Xor));
            for &a in addrs {
                c.access(a, false);
                assert!(c.contains(a), "block just inserted must be resident");
            }
        },
    );
}

#[test]
fn miss_count_never_below_distinct_blocks_over_capacity() {
    forall(
        "miss_count_never_below_distinct_blocks_over_capacity",
        64,
        addr_stream,
        |addrs: &Vec<u64>| {
            // Any cache must miss at least once per distinct block (cold).
            let mut c = Cache::new(CacheConfig::new(1024, 2, 64));
            let distinct: std::collections::HashSet<u64> = addrs.iter().map(|a| a / 64).collect();
            for &a in addrs {
                c.access(a, false);
            }
            assert!(c.stats().misses >= distinct.len() as u64);
        },
    );
}

#[test]
fn replacement_policies_all_bound_capacity() {
    forall(
        "replacement_policies_all_bound_capacity",
        64,
        addr_stream,
        |addrs: &Vec<u64>| {
            for kind in ReplacementKind::ALL {
                let mut c = Cache::new(CacheConfig::new(1024, 2, 64).with_replacement(kind));
                for &a in addrs {
                    c.access(a, false);
                }
                // Hits can never exceed total minus distinct-cold misses.
                let distinct: std::collections::HashSet<u64> =
                    addrs.iter().map(|a| a / 64).collect();
                assert!(c.stats().hits <= (addrs.len() - distinct.len().min(addrs.len())) as u64);
            }
        },
    );
}
