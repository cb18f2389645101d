//! The simulator against an independent oracle.
//!
//! The monomorphized engine behind [`primecache::sim::run_workload`]
//! and every other driver must match `OracleMachine`
//! (`primecache-check`), a naive machine restated from the hierarchy,
//! DRAM and core docs that runs none of their code: same stats, same
//! memory-write order, same breakdowns. This battery pins that over the
//! whole workload suite and every shipped scheme, and also holds the
//! observability counters and config fingerprints to the plain runs, so
//! a hot-path "optimization" that reorders a writeback or drops a
//! counter fails loudly here instead of silently skewing the paper's
//! figures.

use primecache::cache::{Hierarchy, HierarchyConfig, HierarchyOp, L2Sim};
use primecache::core::expr::register_anonymous;
use primecache::obs::{EventKind, Level, ObsConfig};
use primecache::sim::observe::run_workload_observed;
use primecache::sim::{run_trace, run_workload, MachineConfig, Recording, Scheme};
use primecache::trace::Event;
use primecache::workloads::{all, STREAM_CHUNK};
use primecache_check::oracle::{OracleCaches, OracleMachine};

/// References per workload for the full-suite sweep. Small enough that
/// 23 workloads x 8 schemes x 2 machines x 2 runs stays a fast
/// debug-profile run, large enough to fill the L1 and force evictions.
const SUITE_REFS: u64 = 2_500;

/// The paper's machine, and the same machine with an 8 KB L2 (32 sets
/// of 4 ways), where the same short streams evict dirty L2 lines and a
/// single access can send two of them to memory.
fn machines() -> [MachineConfig; 2] {
    let paper = MachineConfig::paper_default();
    [
        paper,
        MachineConfig {
            l2_size: 8 * 1024,
            ..paper
        },
    ]
}

/// The paper's miss metric plus every other aggregate a run produces
/// must agree between the two runs.
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

/// Multi-batch traces: a store-heavy workload and a pointer-chasing
/// one, each at least [`MIN_BATCHES`] `STREAM_CHUNK`-event batches long.
const LONG_TRACES: [(&str, u64); 2] = [("tomcatv", 80_000), ("mcf", 50_000)];

/// Batches every multi-batch trace spans at least: more than a run's
/// L1 stage ever holds at once, so its later batches reuse returned
/// ones.
const MIN_BATCHES: usize = 6;

/// `name`'s trace of `refs` references under every scheme on both
/// machines: `run_trace`, whose L1 stage hands the engine one batch at
/// a time (on a host with a second core), and a recording's replay of
/// its batches must both give the oracle's results.
fn check_against_oracle(name: &str, trace: &[Event], refs: u64) {
    let recording = Recording::of_events(trace);
    for machine in machines() {
        for &scheme in &Scheme::ALL {
            let ctx = format!("{name}/{}/{} KB", scheme.label(), machine.l2_size >> 10);
            let reference = OracleMachine::new(&machine, scheme).run(trace);
            let pipelined = run_trace(trace.iter().copied(), scheme, &machine);
            assert_results_equal(&pipelined, &reference, &format!("run_trace {ctx}"));
            assert!(pipelined.l1.accesses >= refs, "{ctx}: short trace");
            let replayed = recording.run(scheme, &machine);
            assert_results_equal(&replayed, &reference, &format!("Recording::run {ctx}"));
        }
    }
}

#[test]
fn batched_matches_reference_on_all_workloads_and_schemes() {
    // Every workload within one batch, then the multi-batch traces.
    for w in all() {
        check_against_oracle(w.name, &w.trace(SUITE_REFS), SUITE_REFS);
    }
    for (name, refs) in LONG_TRACES {
        let trace = primecache::workloads::by_name(name).unwrap().trace(refs);
        assert!(
            trace.len() >= MIN_BATCHES * STREAM_CHUNK,
            "{name}: {} events",
            trace.len()
        );
        check_against_oracle(name, &trace, refs);
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

/// Feeds the write-heavy stream to the engine's hierarchy and to the
/// oracle's, diffing each access's outcome and its complete memory-write
/// sequence, then every statistic, the L2 cache's own (its evictions,
/// clean and dirty) included.
struct DiffWritebacks {
    config: HierarchyConfig,
    label: String,
}

impl HierarchyOp for DiffWritebacks {
    type Out = ();

    fn run<X: L2Sim>(self, mut engine: Hierarchy<X>) {
        let label = &self.label;
        let mut oracle = OracleCaches::new(&self.config);
        for (i, &(addr, write)) in write_heavy_refs(20_000).iter().enumerate() {
            let outcome = engine.access(addr, write);
            let writes: Vec<u64> = engine.take_memory_writes().collect();
            assert_eq!(
                (outcome, writes),
                oracle.access(addr, write),
                "{label}: access {i} ({addr:#x}) diverged"
            );
        }
        assert_eq!(engine.l1_stats(), oracle.l1_stats(), "{label}: L1 stats");
        assert_eq!(engine.l2_stats(), oracle.l2_stats(), "{label}: L2 stats");
        assert_eq!(
            engine.l2_cache_stats(),
            oracle.l2_cache_stats(),
            "{label}: the L2 cache's own stats"
        );
    }
}

#[test]
fn writeback_sequences_identical_scalar_vs_batched() {
    // The built-in schemes plus a DSL-compiled one, so the expression
    // closure's typed fast path is held to the same writeback-order
    // contract as the hand-written indexers; on the paper's L2 and on
    // an 8 KB one, where the stream evicts dirty lines from every set.
    let expr_pmod = register_anonymous("a % 2039").expect("pMod source compiles");
    let expr_small = register_anonymous("a % 31").expect("pMod source compiles");
    let small = MachineConfig {
        l2_size: 8 * 1024,
        ..MachineConfig::paper_default()
    };
    for (machine, expr) in [
        (MachineConfig::paper_default(), expr_pmod),
        (small, expr_small),
    ] {
        for scheme in Scheme::ALL.into_iter().chain([Scheme::Expr(expr)]) {
            let config = machine.hierarchy_config(scheme);
            let label = format!("{}/{} KB", scheme.label(), machine.l2_size / 1024);
            config.build(DiffWritebacks { config, label });
        }
    }
}

#[test]
fn obs_counters_match_batched_stats_on_every_scheme() {
    // The observed driver runs the same engine with a recorder attached:
    // its results equal the plain driver's. The eviction metrics come
    // from the caches' own statistics, and the eviction events the
    // hierarchy traces from the access outcomes must agree with them,
    // level by level, clean and dirty; a dirty L2 victim is also a DRAM
    // write.
    let traced = ObsConfig {
        trace_events: true,
        ring_capacity: 1 << 20,
        ..ObsConfig::default()
    };
    for name in ["mcf", "tree", "cg"] {
        let w = primecache::workloads::by_name(name).unwrap();
        for &scheme in &Scheme::ALL {
            let batched = run_workload(w, scheme, 10_000);
            let observed = run_workload_observed(w, scheme, 10_000, traced.clone());
            let ctx = format!("{name}/{}", scheme.label());
            assert_results_equal(&batched, &observed.result, &ctx);
            assert_eq!(observed.recorder.events_dropped(), 0, "{ctx}");
            // [level][dirty] eviction events.
            let mut events = [[0u64; 2]; 2];
            for ev in observed.recorder.events() {
                if let EventKind::Eviction { level, dirty, .. } = ev.kind {
                    events[usize::from(level == Level::L2)][usize::from(dirty)] += 1;
                }
            }
            let counter = |key: &str| observed.metrics.counter(key).expect(key);
            for (level, prefix) in [(0, "cache.l1"), (1, "cache.l2")] {
                let [clean, dirty] = events[level];
                let evictions = counter(&format!("{prefix}.evictions"));
                assert_eq!(clean + dirty, evictions, "{ctx}: {prefix} evictions");
                let dirty_evictions = counter(&format!("{prefix}.dirty_evictions"));
                assert_eq!(dirty, dirty_evictions, "{ctx}: {prefix} dirty evictions");
            }
            assert_eq!(events[0][1], observed.result.l1.writebacks, "{ctx}");
            assert_eq!(events[1][1], observed.result.dram.writes, "{ctx}");
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
