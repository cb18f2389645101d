//! Integration tests of the extension systems: prefetching, paging, miss
//! taxonomy, SRRIP, DRAM mapping, trace transforms and the SVG renderer.

use primecache::cache::paging::{PageMapper, PagePolicy};
use primecache::cache::{
    Cache, CacheConfig, CacheSim, Hierarchy, HierarchyConfig, InfiniteCache, L2Organization,
    ReplacementKind,
};
use primecache::mem::MemConfig;
use primecache::sim::experiments::{miss_taxonomy, run_workload_paged};
use primecache::sim::Scheme;
use primecache::trace::{interleave, offset_addresses, Event};
use primecache::workloads::by_name;

const REFS: u64 = 60_000;

#[test]
fn taxonomy_sums_are_coherent_across_schemes() {
    // Long enough that bt's steady-state conflicts dominate its cold misses.
    let bt = by_name("bt").unwrap();
    let base = miss_taxonomy(bt, Scheme::Base, 200_000);
    let pmod = miss_taxonomy(bt, Scheme::PrimeModulo, 200_000);
    // Compulsory and capacity are scheme-independent (same L1 filter).
    assert_eq!(base.compulsory, pmod.compulsory);
    assert_eq!(base.capacity, pmod.capacity);
    // bt's Base misses are conflict-dominated; pMod removes nearly all.
    assert!(base.conflict_fraction() > 0.5, "{base:?}");
    assert!(
        pmod.conflict * 4 < base.conflict.max(10),
        "{pmod:?} vs {base:?}"
    );
}

#[test]
fn prefetching_reduces_streaming_memory_time() {
    let swim = by_name("swim").unwrap();
    let l2 = CacheConfig::new(512 * 1024, 4, 64);
    let run = |depth: u32| {
        let cfg =
            HierarchyConfig::paper_default(L2Organization::SetAssoc(l2)).with_prefetch_depth(depth);
        let mut h = Hierarchy::with_l2(cfg, Cache::new(l2));
        let mut d = primecache::mem::Dram::new(MemConfig::paper_default());
        let mut cpu = primecache::cpu::Cpu::new(primecache::cpu::CpuConfig::paper_default());
        cpu.run(swim.trace(REFS), &mut h, &mut d)
    };
    let plain = run(0);
    let prefetched = run(2);
    assert!(
        prefetched.mem_stall < plain.mem_stall,
        "prefetch {} vs plain {}",
        prefetched.mem_stall,
        plain.mem_stall
    );
}

#[test]
fn page_mapping_preserves_intra_page_conflicts() {
    // tree's 512-B padded nodes conflict *within* pages, so even a random
    // frame allocation keeps pMod's advantage (the ablation_paging story).
    let tree = by_name("tree").unwrap();
    let base = run_workload_paged(tree, Scheme::Base, 150_000, PagePolicy::Random, 4096);
    let pmod = run_workload_paged(tree, Scheme::PrimeModulo, 150_000, PagePolicy::Random, 4096);
    let speedup = base.breakdown.total() as f64 / pmod.breakdown.total() as f64;
    assert!(
        speedup > 1.3,
        "random paging must not erase tree's gain: {speedup}"
    );
}

#[test]
fn sequential_paging_dissolves_page_granular_alignment() {
    // bt's conflicts come from multi-MB-aligned arrays; first-touch
    // sequential frames destroy that alignment, so Base and pMod converge.
    let bt = by_name("bt").unwrap();
    let base = run_workload_paged(bt, Scheme::Base, 150_000, PagePolicy::Sequential, 4096);
    let pmod = run_workload_paged(
        bt,
        Scheme::PrimeModulo,
        150_000,
        PagePolicy::Sequential,
        4096,
    );
    let speedup = base.breakdown.total() as f64 / pmod.breakdown.total() as f64;
    assert!(
        (0.9..1.15).contains(&speedup),
        "sequential paging should neutralize bt's aligned conflicts: {speedup}"
    );
}

#[test]
fn srrip_resists_the_scan_that_thrashes_lru() {
    // A resident working set + an interleaved long scan: LRU loses the
    // working set, SRRIP keeps it.
    let run = |kind: ReplacementKind| {
        let mut c = Cache::new(CacheConfig::new(64 * 1024, 4, 64).with_replacement(kind));
        let hot: Vec<u64> = (0..512u64).map(|i| i * 64).collect(); // 32 KB hot
        let mut scan = 1 << 24;
        for _round in 0..40 {
            // The working set is *re-referenced* within its phase (that
            // re-touch is what SRRIP's protection keys on).
            for _ in 0..2 {
                for &a in &hot {
                    c.access(a, false);
                }
            }
            // 4 scan lines per set per round: enough to flush a 4-way LRU
            // set (2 hot + 4 > 4 ways) but absorbed by SRRIP's distant
            // insertion.
            for _ in 0..1024 {
                c.access(scan, false);
                scan += 64;
            }
        }
        c.stats().misses
    };
    let lru = run(ReplacementKind::Lru);
    let srrip = run(ReplacementKind::Srrip);
    assert!(
        srrip < lru * 9 / 10,
        "SRRIP {srrip} should beat LRU {lru} under scanning"
    );
}

#[test]
fn infinite_cache_lower_bounds_every_organization() {
    let mcf = by_name("mcf").unwrap();
    let trace = mcf.trace(REFS);
    let mut inf = InfiniteCache::new(64);
    let mut real = Cache::new(CacheConfig::new(512 * 1024, 4, 64));
    for ev in &trace {
        if let Some(a) = ev.addr() {
            inf.access(a, false);
            real.access(a, false);
        }
    }
    assert!(inf.stats().misses <= real.stats().misses);
    assert_eq!(inf.stats().accesses, real.stats().accesses);
}

#[test]
fn interleaved_traces_run_end_to_end() {
    let a = by_name("tree").unwrap().trace(20_000);
    let b = offset_addresses(by_name("swim").unwrap().trace(20_000), 0x80_0000_0000);
    let merged = interleave(a, b, 5_000);
    let machine = primecache::sim::MachineConfig::paper_default();
    let r = primecache::sim::run_trace(merged, Scheme::PrimeModulo, &machine);
    assert!(r.l1.accesses >= 40_000);
    assert!(r.breakdown.total() > 0);
}

#[test]
fn page_mapper_composes_with_the_hierarchy() {
    // Translating then simulating equals simulating the translated trace.
    let mut mapper = PageMapper::new(PagePolicy::Random, 4096);
    let l2 = CacheConfig::new(512 * 1024, 4, 64);
    let mut h = Hierarchy::with_l2(
        HierarchyConfig::paper_default(L2Organization::SetAssoc(l2)),
        Cache::new(l2),
    );
    let mut misses = 0u64;
    for i in 0..5_000u64 {
        let vaddr = i * 4096 + (i % 64) * 64;
        let paddr = mapper.translate(vaddr);
        if h.access(paddr, false) == primecache::cache::AccessOutcome::Memory {
            misses += 1;
        }
    }
    assert!(misses > 0);
    assert_eq!(mapper.mapped_pages(), 5_000);
    let _ = Event::Work(1); // silence unused-import lints in minimal builds
}
