//! Registry entries for the extension studies: the three-C miss
//! taxonomy and the `ablation_*` family.

use std::fmt::Write as _;
use std::sync::Arc;

use primecache_cache::paging::{PageMapper, PagePolicy};
use primecache_cache::{
    Cache, CacheConfig, CacheSim, FullyAssociative, Hierarchy, HierarchyOp, InfiniteCache,
    ReplacementKind, SkewHashKind, SkewReplacement, SkewedCache, SkewedConfig, VictimCache,
};
use primecache_core::index::{Geometry, HashKind, PrimeDisplacement, PrimeModulo, SetIndexer};
use primecache_core::index::{Xor, XorFolded};
use primecache_cpu::Cpu;
use primecache_mem::{Dram, MemConfig};
use primecache_primes::{factorize, is_prime, mod_inv};
use primecache_trace::{interleave, offset_addresses, Event};
use primecache_workloads::{all, by_name, Workload};

use super::{
    feed, max, mean, non_ideal_balance, non_ideal_concentration, par_map, stride_sweep, Claim, Ctx,
    Experiment, Reads, StridePoint,
};
use crate::report::render_table;
use crate::{run_trace, run_workload, MachineConfig, RunResult, Scheme};

use super::Bound::{AtLeast, AtMost, Below, Exactly};

/// The extension studies' claims hold from this trace length on.
const STUDY_REFS: u64 = 20_000;

/// The applications of the paper's non-uniform group.
fn non_uniform_apps() -> impl Iterator<Item = &'static Workload> {
    all().iter().filter(|w| w.expected_non_uniform)
}

/// Execution-time ratio `base / other` (> 1 when `other` is faster).
fn speedup(base: &RunResult, other: &RunResult) -> f64 {
    base.breakdown.total() as f64 / other.breakdown.total() as f64
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

#[rustfmt::skip]
pub(super) const MISSTAX: Experiment = Experiment {
    name: "misstax", title: "Three-C miss taxonomy (Base L2 vs pMod L2)",
    schemes: &[], text: misstax_text, files: &[], claims: &[],
};

/// Each application's Base-L2 misses split into compulsory, capacity and
/// conflict, and the conflict misses pMod leaves: the mechanism behind
/// Figs. 11/12.
fn misstax_text(ctx: &Ctx) -> String {
    let refs = ctx.refs.min(400_000);
    let rows: Vec<Vec<String>> = all()
        .iter()
        .map(|w| {
            let base = miss_taxonomy(w, Scheme::Base, refs);
            let pmod = miss_taxonomy(w, Scheme::PrimeModulo, refs);
            vec![
                w.name.to_owned(),
                if w.expected_non_uniform {
                    "non-uniform"
                } else {
                    "uniform"
                }
                .to_owned(),
                base.compulsory.to_string(),
                base.capacity.to_string(),
                base.conflict.to_string(),
                format!("{:.0}%", base.conflict_fraction() * 100.0),
                pmod.conflict.to_string(),
            ]
        })
        .collect();
    let header = [
        "app",
        "class",
        "compulsory",
        "capacity",
        "conflict (Base)",
        "conflict share",
        "conflict (pMod)",
    ];
    format!("{refs} refs/app\n\n")
        + &render_table(&header, &rows)
        + "\nExpected shape: the non-uniform apps carry large conflict components\n\
           under Base that pMod mostly eliminates; uniform apps are dominated by\n\
           compulsory + capacity misses that no index function can remove.\n"
}

#[rustfmt::skip]
pub(super) const ABLATION_CACHESIZE: Experiment = Experiment {
    name: "ablation_cachesize", title: "L2-size sensitivity: pMod speedup over Base, 4-way",
    schemes: &[], text: cachesize_text, files: &[], claims: &[],
};

/// Does prime indexing still matter at other L2 sizes? Growing the cache
/// moves the aliasing pattern without, by itself, removing aliases.
fn cachesize_text(ctx: &Ctx) -> String {
    let refs = ctx.refs.min(300_000);
    let sizes = [256u64, 512, 1024, 2048]; // KB
    let labels: Vec<String> = sizes.iter().map(|s| format!("{s} KB")).collect();
    let mut header = vec!["app"];
    header.extend(labels.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = non_uniform_apps()
        .map(|w| {
            let mut row = vec![w.name.to_owned()];
            for kb in sizes {
                let machine = MachineConfig {
                    l2_size: kb * 1024,
                    ..MachineConfig::paper_default()
                };
                let base = run_trace(w.trace(refs), Scheme::Base, &machine);
                let pmod = run_trace(w.trace(refs), Scheme::PrimeModulo, &machine);
                row.push(format!("{:.2}", speedup(&base, &pmod)));
            }
            row
        })
        .collect();
    format!("{refs} refs\n\n")
        + &render_table(&header, &rows)
        + "\nAligned-region conflicts scale with the cache (the aliasing period\n\
           grows with the set count, but so do the applications' aligned\n\
           allocations), while padded-struct conflicts dilute once the spread\n\
           footprint fits — the per-app trend tells which mechanism dominates.\n"
}

#[rustfmt::skip]
pub(super) const ABLATION_DRAM_MAPPING: Experiment = Experiment {
    name: "ablation_dram_mapping",
    title: "DRAM-mapping ablation (row-interleaved vs permutation-based [26])",
    schemes: &[], text: dram_mapping_text, files: &[], claims: &[],
};

/// DRAM bank hashing (the paper's reference \[26\]) against cache
/// hashing: {Base, pMod} L2 × {row-interleaved, permuted} DRAM.
fn dram_mapping_text(ctx: &Ctx) -> String {
    let refs = ctx.refs.min(300_000);
    let plain = MemConfig::paper_default();
    let perm = MemConfig::paper_default().with_permutation_mapping();
    let cycles = |w: &Workload, scheme, mem| {
        let machine = MachineConfig {
            mem,
            ..MachineConfig::paper_default()
        };
        run_trace(w.trace(refs), scheme, &machine).breakdown.total() as f64
    };
    let rows: Vec<Vec<String>> = non_uniform_apps()
        .map(|w| {
            let base_plain = cycles(w, Scheme::Base, plain);
            let base_perm = cycles(w, Scheme::Base, perm);
            let pmod_plain = cycles(w, Scheme::PrimeModulo, plain);
            let pmod_perm = cycles(w, Scheme::PrimeModulo, perm);
            vec![
                w.name.to_owned(),
                format!("{:.3}", base_perm / base_plain),
                format!("{:.3}", pmod_plain / base_plain),
                format!("{:.3}", pmod_perm / base_plain),
            ]
        })
        .collect();
    let header = [
        "app",
        "Base + perm DRAM",
        "pMod + plain DRAM",
        "pMod + perm DRAM",
    ];
    format!("{refs} refs\n\n")
        + &render_table(&header, &rows)
        + "\n(normalized to Base + plain DRAM; lower is better)\n\
           \nBank permutation attacks the *latency* of misses with bank-conflicting\n\
           strides; prime cache indexing attacks their *count*. For this suite the\n\
           L2 miss streams are already row-friendly sweeps, so the bank hash is\n\
           close to neutral — the conflict problem lives in the cache's set index,\n\
           which is precisely the paper's argument for fixing it there.\n"
}

#[rustfmt::skip]
pub(super) const ABLATION_L1HASH: Experiment = Experiment {
    name: "ablation_l1hash", title: "L1 hashing ablation (16 KB, 2-way, 32-B lines, 256 sets)",
    schemes: &[], text: l1hash_text, files: &[],
    claims: &[
        Claim { id: "ablation_l1hash.xor-vs-prime", min_refs: STUDY_REFS, reads: Reads::NOTHING,
                paper: "XOR degrades more apps at L1 than pMod/pDisp (Section 3.3)",
                measure: xor_minus_prime_degraded_apps, bound: AtLeast(0.0) },
    ],
};

/// Applications L1 XOR indexing degrades, less those the worse prime
/// indexing degrades.
fn xor_minus_prime_degraded_apps(ctx: &Ctx) -> f64 {
    let worse = l1_worse_than_base(ctx);
    worse[1] as f64 - worse[2].max(worse[3]) as f64
}

/// L1 miss rates of every application under each [`HashKind::ALL`]
/// indexing of the paper's L1.
fn l1_miss_rates(ctx: &Ctx) -> Arc<Vec<(&'static str, Vec<f64>)>> {
    ctx.memo("ablation_l1hash", || {
        let refs = ctx.refs.min(300_000);
        let rate = |w: &Workload, hash| {
            let mut l1 = Cache::new(CacheConfig::new(16 * 1024, 2, 32).with_hash(hash));
            feed(&mut l1, w, refs).miss_rate()
        };
        par_map(all(), |w| {
            (w.name, HashKind::ALL.map(|k| rate(w, k)).to_vec())
        })
    })
}

/// Per [`HashKind::ALL`] entry: applications whose L1 miss rate is more
/// than 1% (relative) above Base's.
fn l1_worse_than_base(ctx: &Ctx) -> [usize; 4] {
    let mut worse = [0usize; 4];
    for (_, rates) in l1_miss_rates(ctx).iter() {
        for (count, &r) in worse.iter_mut().zip(rates) {
            if r > rates[0] * 1.01 {
                *count += 1;
            }
        }
    }
    worse
}

/// §3.3: XOR's balance collapses on strides near `n_set − 1`, common at
/// L1 set counts. (The paper keeps its L1 traditionally indexed, since
/// any logic there sits on the critical path; this is about balance.)
fn l1hash_text(ctx: &Ctx) -> String {
    let rates = l1_miss_rates(ctx);
    let rows: Vec<Vec<String>> = rates
        .iter()
        .map(|(name, r)| {
            let mut row = vec![(*name).to_owned()];
            row.extend(r.iter().map(|r| format!("{:.2}%", r * 100.0)));
            row
        })
        .collect();
    let mut header = vec!["app"];
    header.extend(HashKind::ALL.iter().map(|k| k.label()));
    let mut out = format!("{} refs\n\n", ctx.refs.min(300_000));
    out += &render_table(&header, &rows);
    out.push('\n');
    for (k, n) in HashKind::ALL.iter().zip(l1_worse_than_base(ctx)) {
        let label = k.label();
        _ = writeln!(
            out,
            "  {label:>6}: worse than Base (>1% relative) on {n} of 23 apps"
        );
    }
    out
}

#[rustfmt::skip]
pub(super) const ABLATION_MODULUS: Experiment = Experiment {
    name: "ablation_modulus", title: "Ablation: modulus choice for a 2048-physical-set L2",
    schemes: &[], text: modulus_text, files: &[], claims: &[],
};

fn factorization(n: u64) -> String {
    factorize(n)
        .into_iter()
        .flat_map(|(p, e)| std::iter::repeat_n(p.to_string(), e as usize))
        .collect::<Vec<_>>()
        .join("*")
}

/// §3.1's aside: `n_set_phys − 1` is often a product of two primes, "at
/// least a good choice for most stride access patterns". Balance over
/// the stride sweep and bt's misses for moduli 2048 down to the prime
/// 2039.
fn modulus_text(_: &Ctx) -> String {
    let geom = Geometry::new(2048);
    let bt = by_name("bt").expect("registry has bt");
    let rows: Vec<Vec<String>> = [2048u64, 2047, 2046, 2045, 2043, 2039]
        .into_iter()
        .map(|modulus| {
            let idx = PrimeModulo::with_modulus(geom, modulus);
            let bad = non_ideal_balance(&stride_sweep(&idx, 1024));
            let cfg = CacheConfig::new(512 * 1024, 4, 64);
            let mut l2 = Cache::with_indexer(cfg, Box::new(idx));
            vec![
                modulus.to_string(),
                if is_prime(modulus) {
                    "prime".to_owned()
                } else {
                    factorization(modulus)
                },
                format!("{bad}/1024"),
                feed(&mut l2, bt, 150_000).misses.to_string(),
                format!("{:.2}%", (2048 - modulus) as f64 / 20.48),
            ]
        })
        .collect();
    let header = [
        "modulus",
        "factors",
        "non-ideal balance strides",
        "bt L2 misses",
        "fragmentation",
    ];
    render_table(&header, &rows)
        + "\n2047 = 23*89 already fixes most strides (the paper's aside); the prime\n\
           2039 fixes all but its own multiples at slightly higher fragmentation.\n"
}

#[rustfmt::skip]
pub(super) const ABLATION_MULTIPROG: Experiment = Experiment {
    name: "ablation_multiprog",
    title: "Shared-L2 ablation: each non-uniform app co-scheduled with swim",
    schemes: &[], text: multiprog_text, files: &[], claims: &[],
};

/// Does pMod's benefit survive a co-runner polluting the shared L2? Each
/// non-uniform app is interleaved (10k-instruction quanta, disjoint
/// address regions) with `swim`, a uniform streaming co-runner.
fn multiprog_text(ctx: &Ctx) -> String {
    let refs = ctx.refs.min(200_000);
    let machine = MachineConfig::paper_default();
    let co_runner = by_name("swim").expect("registry has swim");
    let rows: Vec<Vec<String>> = non_uniform_apps()
        .map(|w| {
            let solo = |scheme| run_trace(w.trace(refs), scheme, &machine);
            // The co-runner is relocated far away and interleaved in quanta.
            let shared = |scheme| {
                let other = offset_addresses(co_runner.trace(refs), 0x40_0000_0000);
                run_trace(interleave(w.trace(refs), other, 10_000), scheme, &machine)
            };
            let (solo_base, solo_pmod) = (solo(Scheme::Base), solo(Scheme::PrimeModulo));
            let (shared_base, shared_pmod) = (shared(Scheme::Base), shared(Scheme::PrimeModulo));
            vec![
                w.name.to_owned(),
                format!("{:.2}", speedup(&solo_base, &solo_pmod)),
                format!("{:.2}", speedup(&shared_base, &shared_pmod)),
                format!(
                    "{:.3}",
                    shared_pmod.l2.misses as f64 / shared_base.l2.misses.max(1) as f64
                ),
            ]
        })
        .collect();
    let header = [
        "app (+swim)",
        "solo pMod speedup",
        "shared pMod speedup",
        "shared norm misses",
    ];
    format!("{refs} refs each\n\n")
        + &render_table(&header, &rows)
        + "\nConflict piles are an address-layout property, so they survive\n\
           co-scheduling; the co-runner dilutes the benefit (its own time is\n\
           hash-insensitive) but never inverts it.\n"
}

#[rustfmt::skip]
pub(super) const ABLATION_PAGING: Experiment = Experiment {
    name: "ablation_paging", title: "Paging ablation: pMod speedup over Base per page policy",
    schemes: &[], text: paging_text, files: &[], claims: &[],
};

/// The L2 is physically indexed: does a fragmented (random-mapping)
/// page allocator already break the power-of-two conflicts?
fn paging_text(ctx: &Ctx) -> String {
    const PAGE: u64 = 4096;
    let refs = ctx.refs.min(400_000);
    let policies = [
        ("identity", PagePolicy::Identity),
        ("sequential", PagePolicy::Sequential),
        ("random", PagePolicy::Random),
        ("colored/32", PagePolicy::Colored { colors: 32 }),
    ];
    let mut header = vec!["app"];
    header.extend(policies.iter().map(|(n, _)| *n));
    let rows: Vec<Vec<String>> = non_uniform_apps()
        .map(|w| {
            let mut row = vec![w.name.to_owned()];
            for (_, policy) in policies {
                let run = |scheme| run_workload_paged(w, scheme, refs, policy, PAGE);
                let (base, pmod) = (run(Scheme::Base), run(Scheme::PrimeModulo));
                row.push(format!("{:.2}", speedup(&base, &pmod)));
            }
            row
        })
        .collect();
    format!("{refs} refs\n\n")
        + &render_table(&header, &rows)
        + "\nRandom mappings scramble only the index bits above the page offset\n\
           (6 of 11 for a 4 KB page); conflicts between blocks in the same page\n\
           region — and every intra-page pattern — survive, so prime indexing\n\
           keeps a substantial edge even on a fragmented system.\n"
}

#[rustfmt::skip]
pub(super) const ABLATION_PDISP: Experiment = Experiment {
    name: "ablation_pdisp", title: "Ablation: prime-displacement factor p (2048-set L2)",
    schemes: &[], text: pdisp_text, files: &[],
    claims: &[
        Claim { id: "ablation_pdisp.every-odd-factor-invertible", min_refs: 0,
                reads: Reads::NOTHING,
                paper: "any odd p is in the multiplicative group mod 2^k (footnote 2)",
                measure: non_invertible_factors, bound: Exactly(0.0) },
        Claim { id: "ablation_pdisp.primality-buys-nothing", min_refs: 0, reads: Reads::NOTHING,
                paper: "prime p is not necessarily better (footnote 2)",
                measure: prime_minus_odd_bad_strides, bound: AtLeast(0.0) },
        Claim { id: "ablation_pdisp.p9-among-the-best", min_refs: 0, reads: Reads::NOTHING,
                paper: "the paper uses p = 9",
                measure: p9_minus_best_bad_strides, bound: AtMost(0.0) },
    ],
};

const PDISP_FACTORS: [u64; 10] = [3, 9, 17, 19, 21, 33, 37, 63, 127, 255];

/// Factors without an inverse mod 2048.
fn non_invertible_factors(_: &Ctx) -> f64 {
    PDISP_FACTORS
        .iter()
        .filter(|&&p| mod_inv(p, 2048).is_none())
        .count() as f64
}

/// How many more non-ideal strides the best prime factor has than the
/// best non-prime one.
fn prime_minus_odd_bad_strides(ctx: &Ctx) -> f64 {
    fewest_bad_strides(ctx, is_prime) - fewest_bad_strides(ctx, |p| !is_prime(p))
}

/// How many more non-ideal strides p = 9 has than the best factor.
fn p9_minus_best_bad_strides(ctx: &Ctx) -> f64 {
    fewest_bad_strides(ctx, |p| p == 9) - fewest_bad_strides(ctx, |_| true)
}

/// Per factor: the stride sweep over 1..=512.
fn pdisp_sweeps(ctx: &Ctx) -> Arc<Vec<Vec<StridePoint>>> {
    ctx.memo("ablation_pdisp", || {
        let geom = Geometry::new(2048);
        par_map(&PDISP_FACTORS, |&p| {
            stride_sweep(&PrimeDisplacement::new(geom, p), 512)
        })
    })
}

/// Fewest strides of 1..=512 with non-ideal balance among the factors
/// `keep` selects.
fn fewest_bad_strides(ctx: &Ctx, keep: fn(u64) -> bool) -> f64 {
    let bad = pdisp_sweeps(ctx)
        .iter()
        .map(|s| non_ideal_balance(s))
        .collect::<Vec<_>>();
    let kept = PDISP_FACTORS.iter().zip(bad).filter(|&(&p, _)| keep(p));
    kept.map(|(_, n)| n as f64).fold(f64::INFINITY, f64::min)
}

/// Footnote 2: `p` need not be prime — any odd factor is invertible
/// mod 2^k. Balance and concentration over strided patterns, plus tree's
/// L2 misses, for prime and non-prime odd factors.
fn pdisp_text(ctx: &Ctx) -> String {
    let geom = Geometry::new(2048);
    let tree = by_name("tree").expect("registry has tree");
    let rows: Vec<Vec<String>> = PDISP_FACTORS
        .iter()
        .zip(pdisp_sweeps(ctx).iter())
        .map(|(&p, sweep)| {
            let bad = non_ideal_balance(sweep);
            let conc = mean(sweep.iter().map(|s| s.concentration));
            let cfg = CacheConfig::new(512 * 1024, 4, 64);
            let mut l2 = Cache::with_indexer(cfg, Box::new(PrimeDisplacement::new(geom, p)));
            vec![
                p.to_string(),
                if is_prime(p) { "prime" } else { "odd" }.to_owned(),
                format!("{bad}/512"),
                format!("{conc:.0}"),
                feed(&mut l2, tree, 150_000).misses.to_string(),
                mod_inv(p, 2048).map_or_else(|| "-".into(), |i| i.to_string()),
            ]
        })
        .collect();
    let header = [
        "p",
        "kind",
        "non-ideal balance strides",
        "mean concentration",
        "tree L2 misses",
        "inverse mod 2048",
    ];
    render_table(&header, &rows)
}

#[rustfmt::skip]
pub(super) const ABLATION_PREFETCH: Experiment = Experiment {
    name: "ablation_prefetch", title: "Prefetch ablation: idealized depth-2 next-line prefetch",
    schemes: &[], text: prefetch_text, files: &[], claims: &[],
};

/// Total cycles of a workload's references on a hierarchy.
struct Cycles<'w>(&'w Workload, u64);

impl HierarchyOp for Cycles<'_> {
    type Out = u64;

    fn run<X: primecache_cache::L2Sim>(self, mut h: Hierarchy<X>) -> u64 {
        let machine = MachineConfig::paper_default();
        let mut d = Dram::new(machine.mem);
        let trace = self.0.trace(self.1);
        Cpu::new(machine.cpu).run(trace, &mut h, &mut d).total()
    }
}

/// A sequential prefetcher hides streaming misses but cannot anticipate
/// the far-future reuse conflict misses evict: pMod's gain survives it.
fn prefetch_text(ctx: &Ctx) -> String {
    let refs = ctx.refs.min(300_000);
    let run = |w, scheme, depth| {
        let cfg = MachineConfig::paper_default().hierarchy_config(scheme);
        cfg.with_prefetch_depth(depth).build(Cycles(w, refs)) as f64
    };
    let rows: Vec<Vec<String>> = non_uniform_apps()
        .map(|w| {
            let base = run(w, Scheme::Base, 0);
            let base_pf = run(w, Scheme::Base, 2);
            let pmod_pf = run(w, Scheme::PrimeModulo, 2);
            vec![
                w.name.to_owned(),
                format!("{:.2}", base / base_pf),
                format!("{:.2}", base / pmod_pf),
                format!("{:.2}", base_pf / pmod_pf),
            ]
        })
        .collect();
    let header = [
        "app",
        "prefetch alone (vs Base)",
        "pMod + prefetch (vs Base)",
        "pMod gain on top of prefetch",
    ];
    format!("{refs} refs\n\n")
        + &render_table(&header, &rows)
        + "\nIf the last column stays well above 1.0, prime indexing removes\n\
           misses the prefetcher cannot — conflict evictions of far-future reuse.\n"
}

#[rustfmt::skip]
pub(super) const ABLATION_REPLACEMENT: Experiment = Experiment {
    name: "ablation_replacement", title: "Ablation: replacement policies",
    schemes: &[], text: replacement_text, files: &[],
    claims: &[
        Claim { id: "ablation_replacement.enru-vs-nrunrw", min_refs: STUDY_REFS,
                reads: Reads::NOTHING,
                paper: "NRUNRW \"gives similar results\" to ENRU (Section 5.3)",
                measure: widest_enru_nrunrw_gap, bound: Below(0.05) },
    ],
};

const REPLACEMENT_APPS: [&str; 6] = ["bzip2", "sparse", "tree", "bt", "mst", "charmm"];

/// The largest relative difference between ENRU's and NRUNRW's misses.
fn widest_enru_nrunrw_gap(ctx: &Ctx) -> f64 {
    let gap = |&(_, enru, nrunrw): &(_, u64, u64)| (nrunrw as f64 / enru.max(1) as f64 - 1.0).abs();
    max(skewed_replacement(ctx).iter().map(gap))
}

/// Per app: skw+pDisp L2 misses under ENRU and under NRUNRW.
fn skewed_replacement(ctx: &Ctx) -> Arc<Vec<(&'static str, u64, u64)>> {
    ctx.memo("ablation_replacement", || {
        let refs = ctx.refs.min(300_000);
        let misses = |app, repl| {
            let cfg = SkewedConfig::new(512 * 1024, 4, 64, SkewHashKind::PrimeDisplacement);
            let mut l2 = SkewedCache::new(cfg.with_replacement(repl));
            feed(&mut l2, by_name(app).expect("known workload"), refs).misses
        };
        let per_app = |app| {
            (
                app,
                misses(app, SkewReplacement::Enru),
                misses(app, SkewReplacement::Nrunrw),
            )
        };
        par_map(&REPLACEMENT_APPS, |&app| per_app(app))
    })
}

/// §5.3: does the skewed cache's inter-bank policy matter? And how much
/// of the skewed caches' pathologies comes from weaker-than-LRU
/// replacement rather than from the hashing?
fn replacement_text(ctx: &Ctx) -> String {
    let refs = ctx.refs.min(300_000);
    let rows: Vec<Vec<String>> = skewed_replacement(ctx)
        .iter()
        .map(|&(app, enru, nrunrw)| {
            vec![
                app.to_owned(),
                enru.to_string(),
                nrunrw.to_string(),
                format!("{:.3}", nrunrw as f64 / enru.max(1) as f64),
            ]
        })
        .collect();
    let mut out =
        format!("{refs} refs\n\nAblation A: skewed inter-bank replacement (ENRU vs NRUNRW)\n\n");
    out += &render_table(&["app", "ENRU misses", "NRUNRW misses", "ratio"], &rows);
    out += "\nAblation B: set-associative L2 replacement (Base hashing)\n\n";
    let kinds = [
        ReplacementKind::Lru,
        ReplacementKind::TreePlru,
        ReplacementKind::Nru,
        ReplacementKind::Fifo,
        ReplacementKind::Random,
    ];
    let misses = |app, kind| {
        let mut l2 = Cache::new(CacheConfig::new(512 * 1024, 4, 64).with_replacement(kind));
        feed(&mut l2, by_name(app).expect("known workload"), refs).misses
    };
    let rows: Vec<Vec<String>> = REPLACEMENT_APPS
        .into_iter()
        .map(|app| {
            let lru = misses(app, ReplacementKind::Lru).max(1) as f64;
            let mut row = vec![app.to_owned()];
            row.extend(kinds.map(|k| format!("{:.3}", misses(app, k) as f64 / lru)));
            row
        })
        .collect();
    out += &render_table(&["app", "LRU", "TreePLRU", "NRU", "FIFO", "Random"], &rows);
    out + "\n(normalized to LRU; > 1 means the weaker policy loses ground — the\n\
           LRU-friendly cyclic apps like bzip2/sparse are the ones that suffer,\n\
           which is exactly the population the skewed caches slow in Fig. 10)\n"
}

#[rustfmt::skip]
pub(super) const ABLATION_SKEW_GEOMETRY: Experiment = Experiment {
    name: "ablation_skew_geometry",
    title: "Skewed geometry ablation (512 KB, prime-displacement banks)",
    schemes: &[], text: skew_geometry_text, files: &[], claims: &[],
};

/// The paper's 4 direct-mapped banks against Seznec's original 2 banks ×
/// 2 ways \[18\], at equal capacity.
fn skew_geometry_text(ctx: &Ctx) -> String {
    let refs = ctx.refs.min(300_000);
    let misses = |w, banks, ways| {
        let cfg = SkewedConfig::new(512 * 1024, banks, 64, SkewHashKind::PrimeDisplacement);
        let mut c = SkewedCache::new(cfg.with_ways_per_bank(ways));
        feed(&mut c, w, refs).misses
    };
    let rows: Vec<Vec<String>> = all()
        .iter()
        .map(|w| {
            let four_dm = misses(w, 4, 1);
            let ratio = |m: u64| format!("{:.3}", m as f64 / four_dm.max(1) as f64);
            vec![
                w.name.to_owned(),
                four_dm.to_string(),
                ratio(misses(w, 2, 2)),
                ratio(misses(w, 8, 1)),
            ]
        })
        .collect();
    let header = [
        "app",
        "4x1 misses",
        "2 banks x 2 ways (ratio)",
        "8x1 (ratio)",
    ];
    format!("{refs} refs\n\n")
        + &render_table(&header, &rows)
        + "\nratios near 1: the paper's choice of four direct-mapped banks is not\n\
           load-bearing — the skewing functions, not the intra-bank associativity,\n\
           do the conflict absorption.\n"
}

#[rustfmt::skip]
pub(super) const ABLATION_VICTIM: Experiment = Experiment {
    name: "ablation_victim", title: "Victim-cache ablation (misses normalized to Base)",
    schemes: &[], text: victim_text, files: &[], claims: &[],
};

/// Jouppi's victim buffer absorbs narrow conflicts, but its capacity is
/// a global constant while rehashing redistributes every set.
fn victim_text(ctx: &Ctx) -> String {
    let refs = ctx.refs.min(300_000);
    let cfg = CacheConfig::new(512 * 1024, 4, 64);
    let rows: Vec<Vec<String>> = non_uniform_apps()
        .map(|w| {
            let base = feed(&mut Cache::new(cfg), w, refs).misses as f64;
            let norm = |cache: &mut dyn CacheSim| {
                format!("{:.3}", feed(cache, w, refs).misses as f64 / base.max(1.0))
            };
            vec![
                w.name.to_owned(),
                norm(&mut VictimCache::new(cfg, 8)),
                norm(&mut VictimCache::new(cfg, 64)),
                norm(&mut Cache::new(cfg.with_hash(HashKind::PrimeModulo))),
            ]
        })
        .collect();
    format!("{refs} refs\n\n")
        + &render_table(&["app", "victim x8", "victim x64", "pMod"], &rows)
        + "\nThe buffer helps while the alias population fits in it; the paper's\n\
           workloads alias hundreds of lines, so even 64 entries barely dent the\n\
           misses that a zero-capacity-cost rehash removes outright.\n"
}

#[rustfmt::skip]
pub(super) const ABLATION_XOR_VARIANTS: Experiment = Experiment {
    name: "ablation_xor_variants", title: "XOR-variant ablation (strides 1..1024)",
    schemes: &[], text: xor_variants_text, files: &[], claims: &[],
};

/// §3.3: XOR's problem is not which bits it mixes but that no XOR fold
/// is sequence invariant. Plain `t1 ⊕ x`, the full fold, and pMod.
fn xor_variants_text(ctx: &Ctx) -> String {
    let refs = ctx.refs.min(300_000);
    let geom = Geometry::new(2048);
    type Build = fn(Geometry) -> Box<dyn SetIndexer>;
    let make: [(&str, Build); 3] = [
        ("XOR (t1^x)", |g| Box::new(Xor::new(g))),
        ("XOR-fold", |g| Box::new(XorFolded::new(g))),
        ("pMod", |g| Box::new(PrimeModulo::new(g))),
    ];
    let rows: Vec<Vec<String>> = make
        .iter()
        .map(|&(name, build)| {
            let idx = build(geom);
            let sweep = stride_sweep(idx.as_ref(), 1024);
            let (bad_bal, bad_conc) = (non_ideal_balance(&sweep), non_ideal_concentration(&sweep));
            let misses = |app| {
                let cfg = CacheConfig::new(512 * 1024, 4, 64);
                let mut cache = Cache::with_indexer(cfg, build(geom));
                feed(&mut cache, by_name(app).expect("known app"), refs)
                    .misses
                    .to_string()
            };
            vec![
                name.to_owned(),
                format!("{bad_bal}/1024"),
                format!("{bad_conc}/1024"),
                misses("bt"),
                misses("ft"),
                misses("tree"),
            ]
        })
        .collect();
    let header = [
        "scheme",
        "non-ideal balance",
        "non-ideal concentration",
        "bt misses",
        "ft misses",
        "tree misses",
    ];
    format!("misses at {refs} refs\n\n")
        + &render_table(&header, &rows)
        + "\nFolding more bits fixes some alias families, but the concentration\n\
           column — the §3.3 sequence-invariance argument — does not improve:\n\
           XOR's pathology is structural, not a matter of picking better bits.\n"
}

#[cfg(test)]
mod tests {
    use super::*;

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
