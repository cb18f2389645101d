//! Per-table and per-figure experiment drivers.
//!
//! Each function returns plain data; the `primecache-bench` binaries print
//! them in the paper's format and `EXPERIMENTS.md` records the comparison.

use primecache_cache::paging::{PageMapper, PagePolicy};
use primecache_cache::{Cache, CacheConfig, CacheSim, FullyAssociative, InfiniteCache};
use primecache_core::index::{Geometry, HashKind, SetIndexer};
use primecache_core::metrics::{balance, concentration, strided_addresses};
use primecache_trace::Event;
use primecache_workloads::{by_name, Workload};

use crate::suite::{run_sweep, Sweep};
use crate::{run_trace, run_workload, MachineConfig, RunResult, Scheme};

/// Number of strided accesses used for the Fig. 5/6 metrics (a multiple of
/// the 2048-set geometry so ideal balance is attainable).
pub const METRIC_ACCESSES: usize = 8192;

/// One point of the Fig. 5/6 sweeps.
#[derive(Debug, Clone, Copy)]
pub struct StridePoint {
    /// Stride in blocks.
    pub stride: u64,
    /// Balance (Eq. 1) or concentration (Eq. 2) value.
    pub value: f64,
}

/// Fig. 5: balance vs stride (1..=max_stride) for one hash function over
/// the paper's 2048-physical-set L2 geometry.
#[must_use]
pub fn fig5_balance(kind: HashKind, max_stride: u64) -> Vec<StridePoint> {
    stride_sweep(kind, max_stride, |idx, addrs| {
        balance(idx, addrs.iter().copied())
    })
}

/// Fig. 6: concentration vs stride for one hash function.
#[must_use]
pub fn fig6_concentration(kind: HashKind, max_stride: u64) -> Vec<StridePoint> {
    stride_sweep(kind, max_stride, |idx, addrs| {
        concentration(idx, addrs.iter().copied())
    })
}

fn stride_sweep(
    kind: HashKind,
    max_stride: u64,
    f: impl Fn(&dyn SetIndexer, &[u64]) -> f64 + Sync,
) -> Vec<StridePoint> {
    let geom = Geometry::new(2048);
    let indexer = kind.build(geom);
    (1..=max_stride)
        .map(|stride| {
            let addrs = strided_addresses(stride, METRIC_ACCESSES);
            StridePoint {
                stride,
                value: f(indexer.as_ref(), &addrs),
            }
        })
        .collect()
}

/// Figs. 7/8 (single hash) or 9/10 (multi hash): normalized execution
/// times for the given schemes across all 23 workloads.
///
/// Returns the underlying [`Sweep`]; callers split it into the
/// uniform/non-uniform halves with
/// [`primecache_workloads::non_uniform_names`].
#[must_use]
pub fn exec_time_sweep(schemes: &[Scheme], target_refs: u64) -> Sweep {
    let mut with_base: Vec<Scheme> = vec![Scheme::Base];
    with_base.extend(schemes.iter().copied().filter(|&s| s != Scheme::Base));
    run_sweep(&with_base, target_refs)
}

/// Figs. 11/12: normalized L2 miss counts for the MISS_REDUCTION schemes.
#[must_use]
pub fn miss_reduction_sweep(target_refs: u64) -> Sweep {
    run_sweep(&Scheme::MISS_REDUCTION, target_refs)
}

/// Fig. 13: distribution of L2 misses across the cache sets for `tree`
/// under one scheme. Returns per-set miss counts.
///
/// # Panics
///
/// Panics if the `tree` workload is missing from the registry.
#[must_use]
pub fn fig13_miss_distribution(scheme: Scheme, target_refs: u64) -> Vec<u64> {
    let tree = by_name("tree").expect("tree workload exists");
    run_workload(tree, scheme, target_refs).l2.set_misses
}

/// Fraction of sets carrying `share` of all misses — the Fig. 13a claim
/// ("the vast majority of cache misses … concentrated in about 10% of the
/// sets").
#[must_use]
pub fn sets_carrying_share(set_misses: &[u64], share: f64) -> f64 {
    let total: u64 = set_misses.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = set_misses.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let target = (total as f64 * share) as u64;
    let mut acc = 0u64;
    let mut sets = 0usize;
    for m in sorted {
        if acc >= target {
            break;
        }
        acc += m;
        sets += 1;
    }
    sets as f64 / set_misses.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_traditional_even_odd_split() {
        let pts = fig5_balance(HashKind::Traditional, 32);
        for p in &pts {
            if p.stride % 2 == 1 {
                assert!(p.value < 1.01, "odd stride {}: {}", p.stride, p.value);
            } else {
                assert!(p.value > 1.2, "even stride {}: {}", p.stride, p.value);
            }
        }
    }

    #[test]
    fn fig5_pmod_flat_at_one() {
        let pts = fig5_balance(HashKind::PrimeModulo, 64);
        assert!(pts.iter().all(|p| p.value < 1.02));
    }

    #[test]
    fn fig6_pmod_flat_at_zero() {
        let pts = fig6_concentration(HashKind::PrimeModulo, 64);
        assert!(pts.iter().all(|p| p.value < 1e-9), "{pts:?}");
    }

    #[test]
    fn fig6_xor_not_flat() {
        let pts = fig6_concentration(HashKind::Xor, 64);
        let nonzero = pts.iter().filter(|p| p.value > 1.0).count();
        assert!(nonzero > 32, "{nonzero} of 64 strides concentrate");
    }

    #[test]
    fn fig13_base_concentrates_misses() {
        let dist = fig13_miss_distribution(Scheme::Base, 60_000);
        let frac = sets_carrying_share(&dist, 0.9);
        assert!(
            frac < 0.25,
            "90% of tree's Base misses should sit in few sets, got {frac}"
        );
    }

    #[test]
    fn sets_carrying_share_handles_empty() {
        assert_eq!(sets_carrying_share(&[0, 0, 0], 0.9), 0.0);
    }
}

/// The three-C decomposition of a workload's L2 demand misses.
///
/// Computed over the L1-filtered access stream: compulsory misses from an
/// unbounded cache, capacity misses as the fully-associative excess over
/// compulsory, and conflict misses as the organization's excess over
/// fully-associative (clamped at zero — skewed caches occasionally beat
/// FA-LRU, as the paper notes for cg).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissTaxonomy {
    /// First-touch (cold) misses.
    pub compulsory: u64,
    /// Fully-associative misses beyond compulsory.
    pub capacity: u64,
    /// Organization misses beyond fully-associative.
    pub conflict: u64,
    /// Total misses of the organization under study.
    pub total: u64,
}

impl MissTaxonomy {
    /// Conflict misses as a fraction of all misses (0 when there are no
    /// misses).
    #[must_use]
    pub fn conflict_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.conflict as f64 / self.total as f64
        }
    }
}

/// Decomposes a workload's L2 misses under `scheme` into the three Cs.
///
/// # Panics
///
/// Panics if `scheme` is [`Scheme::FullyAssociative`] (its conflict
/// component is zero by construction — pick an organization to study).
#[must_use]
pub fn miss_taxonomy(workload: &Workload, scheme: Scheme, target_refs: u64) -> MissTaxonomy {
    assert!(
        scheme != Scheme::FullyAssociative,
        "taxonomy of FA against itself is trivially zero-conflict"
    );
    let machine = MachineConfig::paper_default();
    // L1-filter the trace once, then feed the same demand stream to the
    // three reference structures.
    let mut l1 = Cache::new(CacheConfig::new(16 * 1024, 2, 32));
    let mut demand: Vec<(u64, bool)> = Vec::new();
    for ev in workload.trace(target_refs) {
        if let Some(addr) = ev.addr() {
            let write = matches!(ev, Event::Store { .. });
            if !l1.access(addr, write) {
                demand.push((addr, write));
            }
        }
    }
    let mut infinite = InfiniteCache::new(machine.l2_line);
    let mut fa = FullyAssociative::new(machine.l2_size, machine.l2_line);
    let scheme_run = run_workload(workload, scheme, target_refs);
    for &(addr, write) in &demand {
        infinite.access(addr, write);
        fa.access(addr, write);
    }
    let compulsory = infinite.stats().misses;
    let fa_misses = fa.stats().misses;
    let total = scheme_run.l2.misses;
    MissTaxonomy {
        compulsory,
        capacity: fa_misses.saturating_sub(compulsory),
        conflict: total.saturating_sub(fa_misses),
        total,
    }
}

/// Runs a workload under a scheme with its virtual addresses translated
/// through a page-allocation policy first (the L2 is physically indexed).
#[must_use]
pub fn run_workload_paged(
    workload: &Workload,
    scheme: Scheme,
    target_refs: u64,
    policy: PagePolicy,
    page_size: u64,
) -> RunResult {
    let mut mapper = PageMapper::new(policy, page_size);
    let trace: Vec<Event> = workload
        .trace(target_refs)
        .into_iter()
        .map(|ev| match ev {
            Event::Load { addr, dep } => Event::Load {
                addr: mapper.translate(addr),
                dep,
            },
            Event::Store { addr } => Event::Store {
                addr: mapper.translate(addr),
            },
            other => other,
        })
        .collect();
    run_trace(trace, scheme, &MachineConfig::paper_default())
}

#[cfg(test)]
mod taxonomy_tests {
    use super::*;
    use primecache_cache::paging::PagePolicy;

    #[test]
    fn taxonomy_components_are_consistent() {
        let tree = by_name("tree").unwrap();
        let t = miss_taxonomy(tree, Scheme::Base, 60_000);
        assert!(t.compulsory > 0);
        assert!(t.total >= t.conflict);
        assert!(t.conflict_fraction() <= 1.0);
    }

    #[test]
    fn tree_under_base_is_conflict_dominated() {
        let tree = by_name("tree").unwrap();
        let base = miss_taxonomy(tree, Scheme::Base, 120_000);
        let pmod = miss_taxonomy(tree, Scheme::PrimeModulo, 120_000);
        assert!(base.conflict_fraction() > 0.5, "Base tree: {:?}", base);
        assert!(
            pmod.conflict < base.conflict / 2,
            "pMod must remove most conflicts: {pmod:?} vs {base:?}"
        );
    }

    #[test]
    fn paged_runs_translate_deterministically() {
        let swim = by_name("swim").unwrap();
        let a = run_workload_paged(swim, Scheme::Base, 20_000, PagePolicy::Random, 4096);
        let b = run_workload_paged(swim, Scheme::Base, 20_000, PagePolicy::Random, 4096);
        assert_eq!(a.l2.misses, b.l2.misses);
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn identity_paging_matches_unpaged_run() {
        let swim = by_name("swim").unwrap();
        let paged = run_workload_paged(swim, Scheme::Base, 20_000, PagePolicy::Identity, 4096);
        let plain = run_workload(swim, Scheme::Base, 20_000);
        assert_eq!(paged.l2.misses, plain.l2.misses);
    }
}
