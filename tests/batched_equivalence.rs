//! Scalar-vs-batched differential battery.
//!
//! The monomorphized engine behind [`primecache::sim::run_workload`]
//! and every other driver must be *bit-identical* to the
//! dynamically-dispatched reference path
//! ([`primecache::sim::run_trace_reference`]) — same stats, same
//! eviction/writeback order, same observability counters, same config
//! fingerprints. This battery pins that equivalence over the whole
//! workload suite and every shipped scheme, so a future hot-path
//! "optimization" that reorders a writeback or drops a counter fails
//! loudly here instead of silently skewing the paper's figures.

use primecache::cache::{
    bank_disp_factor, Cache, FullyAssociative, Hierarchy, HierarchyConfig, L2Organization, L2Sim,
    SkewHashKind, SkewedCache,
};
use primecache::core::expr::register_anonymous;
use primecache::core::index::{
    Geometry, HashKind, PrimeDisplacement, PrimeModulo, SkewDispBank, SkewXorBank, Traditional, Xor,
};
use primecache::obs::ObsConfig;
use primecache::sim::observe::run_workload_observed;
use primecache::sim::{run_trace_reference, run_workload, MachineConfig, Scheme};
use primecache::workloads::all;

/// References per workload for the full-suite sweep. Small enough that
/// 23 workloads x 8 schemes x 2 drivers stays a fast debug-profile run,
/// large enough to fill both cache levels and force evictions.
const SUITE_REFS: u64 = 2_500;

/// The paper's miss metric plus every other aggregate a run produces
/// must agree between the two drivers.
fn assert_results_equal(
    batched: &primecache::sim::RunResult,
    reference: &primecache::sim::RunResult,
    ctx: &str,
) {
    assert_eq!(batched.breakdown, reference.breakdown, "breakdown {ctx}");
    assert_eq!(batched.l1, reference.l1, "L1 stats {ctx}");
    assert_eq!(batched.l2, reference.l2, "L2 stats {ctx}");
    assert_eq!(batched.dram, reference.dram, "DRAM stats {ctx}");
}

#[test]
fn batched_matches_reference_on_all_workloads_and_schemes() {
    let machine = MachineConfig::paper_default();
    for w in all() {
        for &scheme in &Scheme::ALL {
            let batched = run_workload(w, scheme, SUITE_REFS);
            let reference = run_trace_reference(w.trace(SUITE_REFS), scheme, &machine);
            let ctx = format!("{}/{}", w.name, scheme.label());
            assert_results_equal(&batched, &reference, &ctx);
            assert!(batched.l1.accesses >= SUITE_REFS, "{ctx}: short trace");
        }
    }
}

/// A write-heavy synthetic reference stream: strided sweeps at three
/// strides (two conflicting in a power-of-two L2) interleaved with a
/// hot reused window, ~2/3 stores. Deterministic, heavy on evictions of
/// dirty lines — exactly what exposes a writeback-order divergence.
fn write_heavy_refs(n: usize) -> Vec<(u64, bool)> {
    let mut out = Vec::with_capacity(n);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..n {
        // xorshift* keeps the pattern deterministic but irregular.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let addr = match i % 4 {
            0 => (i as u64) * 4096,             // page-strided sweep (conflicts)
            1 => (i as u64) * 96,               // off-power-of-two stride
            2 => (r % 512) * 64,                // hot reused window
            _ => 0x4000_0000 + (i as u64) * 64, // cold sequential fills
        };
        out.push((addr, !r.is_multiple_of(3)));
    }
    out
}

/// Feeds the same reference stream to a monomorphized (typed-L2)
/// hierarchy and the boxed `dyn` reference hierarchy, draining and
/// diffing the *complete* memory-write sequence after every access.
fn diff_writeback_sequences<X: L2Sim>(hcfg: HierarchyConfig, l2: X, label: &str) {
    let l1 = Cache::with_typed(
        hcfg.l1,
        Traditional::new(Geometry::new(hcfg.l1.n_set_phys())),
    );
    let mut mono = Hierarchy::with_parts(hcfg, l1, l2);
    let mut reference = Hierarchy::new(hcfg);
    for (i, &(addr, write)) in write_heavy_refs(20_000).iter().enumerate() {
        let m = mono.access(addr, write);
        let r = reference.access(addr, write);
        assert_eq!(m, r, "{label}: outcome diverged at access {i} ({addr:#x})");
        assert_eq!(
            mono.take_memory_writes().as_slice(),
            reference.take_memory_writes().as_slice(),
            "{label}: writeback sequence diverged at access {i} ({addr:#x})"
        );
    }
    assert_eq!(mono.l1_stats(), reference.l1_stats(), "{label}: L1 stats");
    assert_eq!(mono.l2_stats(), reference.l2_stats(), "{label}: L2 stats");
}

#[test]
fn writeback_sequences_identical_scalar_vs_batched() {
    let machine = MachineConfig::paper_default();
    // The built-in schemes plus a DSL-compiled one, so the expression
    // closure's typed fast path is held to the same writeback-order
    // contract as the hand-written indexers.
    let expr_pmod = register_anonymous("a % 2039").expect("pMod source compiles");
    let mut schemes = Scheme::ALL.to_vec();
    schemes.push(Scheme::Expr(expr_pmod));
    for &scheme in &schemes {
        let hcfg = machine.hierarchy_config(scheme);
        let label = scheme.label();
        // Mirror the once-per-run dispatch in the sim crate: same typed
        // L2.
        match hcfg.l2 {
            L2Organization::SetAssoc(cfg) => {
                let geom = Geometry::new(cfg.n_set_phys());
                match cfg.hash() {
                    HashKind::Traditional => {
                        diff_writeback_sequences(
                            hcfg,
                            Cache::with_typed(cfg, Traditional::new(geom)),
                            label,
                        );
                    }
                    HashKind::Xor => {
                        diff_writeback_sequences(
                            hcfg,
                            Cache::with_typed(cfg, Xor::new(geom)),
                            label,
                        );
                    }
                    HashKind::PrimeModulo => {
                        diff_writeback_sequences(
                            hcfg,
                            Cache::with_typed(cfg, PrimeModulo::new(geom)),
                            label,
                        );
                    }
                    HashKind::PrimeDisplacement => {
                        diff_writeback_sequences(
                            hcfg,
                            Cache::with_typed(cfg, PrimeDisplacement::paper_default(geom)),
                            label,
                        );
                    }
                    HashKind::Expr(id) => {
                        diff_writeback_sequences(hcfg, Cache::with_typed(cfg, id.indexer()), label);
                    }
                }
            }
            L2Organization::Skewed(cfg) => match cfg.hash() {
                SkewHashKind::Xor => diff_writeback_sequences(
                    hcfg,
                    SkewedCache::with_banks(cfg, |b, g| SkewXorBank::new(g, b)),
                    label,
                ),
                SkewHashKind::PrimeDisplacement => diff_writeback_sequences(
                    hcfg,
                    SkewedCache::with_banks(cfg, |b, g| SkewDispBank::new(g, bank_disp_factor(b))),
                    label,
                ),
            },
            L2Organization::FullyAssociative {
                size_bytes,
                line_bytes,
            } => {
                diff_writeback_sequences(hcfg, FullyAssociative::new(size_bytes, line_bytes), label)
            }
        }
    }
}

#[test]
fn obs_counters_match_batched_stats_on_every_scheme() {
    // The observed driver runs the same engine with a recorder attached:
    // its results equal the plain driver's, and the eviction counts only
    // the recorder keeps agree with the stats where both see the same
    // thing — a dirty L1 victim is an L1 writeback, a dirty L2 victim a
    // DRAM write.
    for name in ["mcf", "tree", "cg"] {
        let w = primecache::workloads::by_name(name).unwrap();
        for &scheme in &Scheme::ALL {
            let batched = run_workload(w, scheme, 10_000);
            let observed = run_workload_observed(w, scheme, 10_000, ObsConfig::default());
            let ctx = format!("{name}/{}", scheme.label());
            assert_results_equal(&batched, &observed.result, &ctx);
            let h = &observed.recorder.hot;
            assert_eq!(h.l1_dirty_evictions, observed.result.l1.writebacks, "{ctx}");
            assert_eq!(h.l2_dirty_evictions, observed.result.dram.writes, "{ctx}");
        }
    }
}

#[test]
fn config_fingerprints_unchanged_by_the_batched_drivers() {
    // The fingerprint hashes the machine and the hierarchy it *builds*,
    // not the driver that runs it: running must not perturb it, and the
    // RunReport emitted from an instrumented run must carry the same
    // hash a plain caller would record.
    let machine = MachineConfig::paper_default();
    let w = primecache::workloads::by_name("tree").unwrap();
    for &scheme in &Scheme::ALL {
        let before = machine.fingerprint(scheme);
        let _ = run_workload(w, scheme, 2_000);
        assert_eq!(before, machine.fingerprint(scheme), "{}", scheme.label());
    }
    let (report, _rec) = primecache::sim::observe::observed_report(
        w,
        Scheme::PrimeModulo,
        2_000,
        ObsConfig::default(),
    );
    assert_eq!(
        report.provenance.config_hash,
        machine.fingerprint(Scheme::PrimeModulo)
    );
}
