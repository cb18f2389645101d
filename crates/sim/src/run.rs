//! Single-run driver: one engine, pushed the trace on the caller's
//! thread.
//!
//! Every entry point ([`run_trace`], [`run_chunks`], [`run_recorded`],
//! [`run_workload`], [`run_workload_warm`], the observed and tenant
//! drivers, and [`Recording::run`](crate::Recording::run)) builds its
//! run's engine with [`dispatch`] or, around a replayed L1,
//! [`dispatch_replayed`] — **once** per run, through
//! [`HierarchyConfig::build_around`](primecache_cache::HierarchyConfig::build_around),
//! which picks the L2's concrete cache and index-function types — and
//! then pushes the trace into it as `&[Event]` chunks: a replay, mix or
//! import cursor pushes the chunks it decodes, a live generator each
//! full `STREAM_CHUNK` buffer. The per-event loop ([`Cpu::feed`]) has no
//! `dyn` dispatch; only the call into the engine, once per chunk, is
//! virtual. Before building the engine, every driver runs
//! [`MachineConfig::check_scheme`], in every build profile, and so
//! panics on a scheme the config linter rejects.
//!
//! The `batched_equivalence` integration test and the `sim/machine` and
//! `sim/l1-replay` units of the `check` battery compare these drivers
//! with `OracleMachine`, a naive machine restated from the hierarchy,
//! DRAM and core docs (stats, memory-write order, breakdowns).

use primecache_cache::{Cache, CacheStats, Hierarchy, HierarchyOp, L1Sim, L2Sim};
use primecache_core::index::Traditional;
use primecache_cpu::{Cpu, ExecBreakdown, StallAttribution};
use primecache_mem::{Dram, DramStats};
use primecache_obs::ObsHandle;
use primecache_trace::{EncodedTrace, Event};
use primecache_workloads::{EventChunks, Workload, STREAM_CHUNK};

use crate::recording::L1Replay;
use crate::{MachineConfig, Scheme};

/// Everything one simulation produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The scheme simulated.
    pub scheme: Scheme,
    /// Execution-time breakdown (Figs. 7–10).
    pub breakdown: ExecBreakdown,
    /// L1 statistics.
    pub l1: CacheStats,
    /// L2 demand statistics (Figs. 11–13 count these misses). They
    /// count no evictions, so `writebacks` is always 0 here: the dirty
    /// L2 victims count in the L2's raw statistics
    /// ([`Hierarchy::l2_raw_stats`]), and each one is a DRAM write
    /// (`dram.writes`).
    pub l2: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
}

impl RunResult {
    /// L2 demand misses — the paper's miss metric.
    #[must_use]
    pub fn l2_misses(&self) -> u64 {
        self.l2.misses
    }
}

/// One run in progress: the scheme's machine — L1, L2, DRAM and core —
/// built once by [`dispatch`] or [`dispatch_replayed`] and pushed the
/// trace chunk by chunk.
pub(crate) trait Engine {
    /// Simulates `chunk`, continuing where the previous chunk stopped.
    fn push(&mut self, chunk: &[Event]);

    /// Ends the run and packages its results.
    fn finish(&mut self) -> RunResult;
}

/// A run whose L1 is live: it can also warm up, report its statistics
/// mid-run and be observed. A replayed L1 can do none of these, so an
/// engine around one is only an [`Engine`].
pub(crate) trait LiveEngine: Engine {
    /// Starts the measured phase: ends the core's run so far and zeroes
    /// every statistic and clock. Cache contents and open DRAM rows
    /// survive.
    fn reset_stats(&mut self);

    /// L1 statistics so far.
    fn l1_stats(&self) -> &CacheStats;

    /// L2 demand statistics so far.
    fn l2_stats(&self) -> &CacheStats;

    /// Attaches one recorder to the hierarchy, the DRAM and the core.
    fn attach_obs(&mut self, handle: ObsHandle);

    /// Stall attribution of the finished run.
    fn last_stall_attribution(&self) -> StallAttribution;

    /// Valid lines per L2 set, now.
    fn l2_occupancy(&self) -> Vec<u64>;
}

/// The machine of one run, monomorphized over its L2 (`X`) and L1 (`L`).
struct Machine<X: L2Sim, L: L1Sim = Cache<Traditional>> {
    scheme: Scheme,
    hierarchy: Hierarchy<X, L>,
    dram: Dram,
    cpu: Cpu,
}

impl<X: L2Sim, L: L1Sim> Machine<X, L> {
    fn new(machine: &MachineConfig, scheme: Scheme, hierarchy: Hierarchy<X, L>) -> Self {
        Self {
            scheme,
            hierarchy,
            dram: Dram::new(machine.mem),
            cpu: Cpu::new(machine.cpu),
        }
    }
}

impl<X: L2Sim, L: L1Sim> Engine for Machine<X, L> {
    fn push(&mut self, chunk: &[Event]) {
        self.cpu
            .feed(chunk.iter().copied(), &mut self.hierarchy, &mut self.dram);
    }

    fn finish(&mut self) -> RunResult {
        RunResult {
            scheme: self.scheme,
            breakdown: self.cpu.finish(),
            l1: self.hierarchy.l1_stats().clone(),
            l2: self.hierarchy.l2_stats().clone(),
            dram: *self.dram.stats(),
        }
    }
}

impl<X: L2Sim> LiveEngine for Machine<X> {
    fn reset_stats(&mut self) {
        let _ = self.cpu.finish();
        self.hierarchy.reset_stats();
        self.dram.new_epoch();
    }

    fn l1_stats(&self) -> &CacheStats {
        self.hierarchy.l1_stats()
    }

    fn l2_stats(&self) -> &CacheStats {
        self.hierarchy.l2_stats()
    }

    fn attach_obs(&mut self, handle: ObsHandle) {
        self.hierarchy.attach_obs(handle.clone());
        self.dram.attach_obs(handle.clone());
        self.cpu.attach_obs(handle);
    }

    fn last_stall_attribution(&self) -> StallAttribution {
        self.cpu.last_stall_attribution()
    }

    fn l2_occupancy(&self) -> Vec<u64> {
        self.hierarchy.l2_occupancy()
    }
}

/// Builds `scheme`'s engine on `machine` around a live L1, its L2 a
/// concrete cache and index-function type: the once-per-run dispatch
/// that keeps virtual calls off the per-reference path.
pub(crate) fn dispatch(machine: &MachineConfig, scheme: Scheme) -> Box<dyn LiveEngine> {
    machine.check_scheme(scheme);
    machine
        .hierarchy_config(scheme)
        .build(Assemble { machine, scheme })
}

/// Builds `scheme`'s engine on `machine` around a replayed L1, through
/// the same dispatch as [`dispatch`].
///
/// # Panics
///
/// Panics when the config linter rejects `scheme`, or when `l1` was not
/// recorded on `machine`'s L1.
pub(crate) fn dispatch_replayed<'r>(
    machine: &MachineConfig,
    scheme: Scheme,
    l1: L1Replay<'r>,
) -> Box<dyn Engine + 'r> {
    machine.check_scheme(scheme);
    let config = machine.hierarchy_config(scheme);
    assert_eq!(
        l1.config(),
        &config.l1,
        "the L1 was recorded on another configuration"
    );
    config.build_around(l1, Assemble { machine, scheme })
}

/// Wraps the built hierarchy into the run's engine.
struct Assemble<'m> {
    machine: &'m MachineConfig,
    scheme: Scheme,
}

impl HierarchyOp for Assemble<'_> {
    type Out = Box<dyn LiveEngine>;

    fn run<X: L2Sim + 'static>(self, hierarchy: Hierarchy<X>) -> Box<dyn LiveEngine> {
        Box::new(Machine::new(self.machine, self.scheme, hierarchy))
    }
}

impl<'r> HierarchyOp<L1Replay<'r>> for Assemble<'_> {
    type Out = Box<dyn Engine + 'r>;

    fn run<X: L2Sim + 'static>(
        self,
        hierarchy: Hierarchy<X, L1Replay<'r>>,
    ) -> Box<dyn Engine + 'r> {
        Box::new(Machine::new(self.machine, self.scheme, hierarchy))
    }
}

/// Runs `scheme`'s engine over the chunks `feed` pushes and returns the
/// results.
fn simulate(
    machine: &MachineConfig,
    scheme: Scheme,
    feed: impl FnOnce(&mut dyn FnMut(&[Event])),
) -> RunResult {
    let mut engine = dispatch(machine, scheme);
    feed(&mut |chunk| engine.push(chunk));
    engine.finish()
}

/// Runs an explicit event sequence under a scheme.
///
/// Accepts anything iterable, e.g. a materialized `Vec<Event>` or a
/// slice's copied iterator; the events reach the engine in
/// `STREAM_CHUNK`-event chunks.
#[must_use]
pub fn run_trace<T>(trace: T, scheme: Scheme, machine: &MachineConfig) -> RunResult
where
    T: IntoIterator<Item = Event>,
{
    simulate(machine, scheme, |push| {
        let mut trace = trace.into_iter();
        let mut chunk = Vec::with_capacity(STREAM_CHUNK);
        loop {
            chunk.clear();
            chunk.extend(trace.by_ref().take(STREAM_CHUNK));
            if chunk.is_empty() {
                break;
            }
            push(&chunk);
        }
    })
}

/// Runs a workload under a scheme on the paper's default machine.
///
/// `target_refs` controls the trace length (memory references). The
/// generator runs on the calling thread and pushes each full chunk
/// straight into the engine, so the trace is never materialized.
///
/// # Examples
///
/// ```
/// use primecache_sim::{run_workload, Scheme};
/// use primecache_workloads::by_name;
///
/// let r = run_workload(by_name("swim").unwrap(), Scheme::Base, 20_000);
/// assert!(r.breakdown.total() > 0);
/// ```
#[must_use]
pub fn run_workload(workload: &Workload, scheme: Scheme, target_refs: u64) -> RunResult {
    let machine = MachineConfig::paper_default();
    simulate(&machine, scheme, |push| {
        workload.push_chunks(target_refs, push);
    })
}

/// Runs any [`EventChunks`] source — a recorded [`primecache_trace::ReplayCursor`],
/// an imported trace's cursor, or a multi-tenant
/// [`primecache_workloads::MixCursor`] — through the engine, each chunk
/// as the source pushes it. Results across sources differ only by
/// their event sequences; `tests/ingest_equivalence.rs` pins a
/// single-tenant mix to the plain replay, bit-exactly.
#[must_use]
pub fn run_chunks<S: EventChunks>(
    mut source: S,
    scheme: Scheme,
    machine: &MachineConfig,
) -> RunResult {
    simulate(machine, scheme, |push| source.push_chunks(push))
}

/// Runs a *recorded* trace from its start: [`run_chunks`] over its
/// replay cursor.
///
/// Decode is bit-identical to live generation (the codec is lossless
/// and the recording sink sees the same push sequence), so results
/// match [`run_workload`] exactly — stats, writeback order, breakdowns —
/// which the `replay_equivalence` integration test pins for all 23
/// workloads × every scheme. The run simulates its own live L1; a
/// sweep cell instead replays its workload's shared events and L1
/// outcomes ([`crate::Recording::run`]).
#[must_use]
pub fn run_recorded(trace: &EncodedTrace, scheme: Scheme, machine: &MachineConfig) -> RunResult {
    run_chunks(trace.replay(), scheme, machine)
}

/// Runs a workload with a warmup phase: the first `warm_refs` memory
/// references fill the caches and open the DRAM rows, then every
/// statistic (and the cycle clock) resets and only the next
/// `measure_refs` references are measured — excluding compulsory misses
/// from the figures, as steady-state methodology prescribes. A
/// `warm_refs` of 0 means no warmup: the run equals [`run_workload`].
///
/// The warm/measure boundary is a stat reset in the middle of one
/// continuous generator run, right after the event that completes the
/// `warm_refs`-th reference: no combined `warm + measure` trace is ever
/// built in memory.
///
/// # Examples
///
/// ```
/// use primecache_sim::{run_workload_warm, Scheme};
/// use primecache_workloads::by_name;
///
/// let r = run_workload_warm(by_name("tree").unwrap(), Scheme::PrimeModulo, 20_000, 20_000);
/// assert!(r.l1.accesses >= 20_000);
/// ```
#[must_use]
pub fn run_workload_warm(
    workload: &Workload,
    scheme: Scheme,
    warm_refs: u64,
    measure_refs: u64,
) -> RunResult {
    let machine = MachineConfig::paper_default();
    let mut engine = dispatch(&machine, scheme);
    let mut warm_left = warm_refs;
    workload.push_chunks(warm_refs + measure_refs, &mut |chunk| {
        let mut rest = chunk;
        if warm_left > 0 {
            let split = chunk
                .iter()
                .position(|ev| {
                    warm_left -= u64::from(ev.is_memory());
                    warm_left == 0
                })
                .map_or(chunk.len(), |i| i + 1);
            engine.push(&chunk[..split]);
            if warm_left > 0 {
                return;
            }
            engine.reset_stats();
            rest = &chunk[split..];
        }
        engine.push(rest);
    });
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use primecache_cache::{Cache, L2Organization};
    use primecache_workloads::by_name;

    #[test]
    fn run_produces_consistent_stats() {
        let r = run_workload(by_name("swim").unwrap(), Scheme::Base, 20_000);
        assert!(r.l1.accesses >= 20_000);
        assert_eq!(r.l2.hits + r.l2.misses, r.l2.accesses);
        assert!(r.breakdown.total() > 0);
    }

    #[test]
    fn tree_pmod_beats_base() {
        let tree = by_name("tree").unwrap();
        let base = run_workload(tree, Scheme::Base, 60_000);
        let pmod = run_workload(tree, Scheme::PrimeModulo, 60_000);
        assert!(
            pmod.l2_misses() * 2 < base.l2_misses(),
            "pMod {} vs Base {}",
            pmod.l2_misses(),
            base.l2_misses()
        );
        assert!(pmod.breakdown.total() < base.breakdown.total());
    }

    #[test]
    fn warm_runs_exclude_cold_misses() {
        let tree = by_name("tree").unwrap();
        let cold = run_workload(tree, Scheme::PrimeModulo, 60_000);
        let warm = run_workload_warm(tree, Scheme::PrimeModulo, 60_000, 60_000);
        // Warmed pMod tree is nearly all hits: its measured miss rate must
        // be far below the cold-start run's.
        assert!(
            warm.l2.miss_rate() < cold.l2.miss_rate() / 2.0,
            "warm {} vs cold {}",
            warm.l2.miss_rate(),
            cold.l2.miss_rate()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let w = by_name("mcf").unwrap();
        let a = run_workload(w, Scheme::Xor, 10_000);
        let b = run_workload(w, Scheme::Xor, 10_000);
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.l2.misses, b.l2.misses);
    }

    /// The pre-streaming `run_workload_warm` materialized the combined
    /// trace and split it at the warm boundary. Reproduce that path here
    /// and assert the streamed mid-run reset is bit-identical. A warm
    /// count of 0 means no warm phase.
    fn warm_via_materialized_split(
        workload: &primecache_workloads::Workload,
        scheme: Scheme,
        warm_refs: u64,
        measure_refs: u64,
    ) -> RunResult {
        let machine = MachineConfig::paper_default();
        let trace = workload.trace(warm_refs + measure_refs);
        let mut seen = 0u64;
        let split = if warm_refs == 0 {
            0
        } else {
            trace
                .iter()
                .position(|e| {
                    if e.is_memory() {
                        seen += 1;
                    }
                    seen >= warm_refs
                })
                .map_or(trace.len(), |i| i + 1)
        };
        let (warm, measure) = trace.split_at(split);

        // The warm reset is restated here, not taken from the engine.
        let hcfg = machine.hierarchy_config(scheme);
        let L2Organization::SetAssoc(l2) = hcfg.l2 else {
            panic!("{scheme:?}: the warm cases use set-associative L2s");
        };
        let mut hierarchy = Hierarchy::with_l2(hcfg, Cache::new(l2));
        let mut dram = Dram::new(machine.mem);
        let mut cpu = Cpu::new(machine.cpu);
        let _ = cpu.run(warm.to_vec(), &mut hierarchy, &mut dram);
        hierarchy.reset_stats();
        dram.new_epoch();
        let breakdown = cpu.run(measure.to_vec(), &mut hierarchy, &mut dram);
        RunResult {
            scheme,
            breakdown,
            l1: hierarchy.l1_stats().clone(),
            l2: hierarchy.l2_stats().clone(),
            dram: *dram.stats(),
        }
    }

    #[test]
    fn warm_stream_reset_matches_legacy_split_path() {
        let (tree, mcf, swim) = (
            by_name("tree").unwrap(),
            by_name("mcf").unwrap(),
            by_name("swim").unwrap(),
        );
        let pmod = Scheme::PrimeModulo;
        for (ctx, streamed, expected) in [
            (
                "tree/pMod 20k+20k",
                run_workload_warm(tree, pmod, 20_000, 20_000),
                warm_via_materialized_split(tree, pmod, 20_000, 20_000),
            ),
            (
                "mcf/Base 5k+15k",
                run_workload_warm(mcf, Scheme::Base, 5_000, 15_000),
                warm_via_materialized_split(mcf, Scheme::Base, 5_000, 15_000),
            ),
            (
                "swim/XOR 0+10k", // zero-warm edge case
                run_workload_warm(swim, Scheme::Xor, 0, 10_000),
                warm_via_materialized_split(swim, Scheme::Xor, 0, 10_000),
            ),
            (
                "swim/XOR 0+10k vs run_workload",
                run_workload_warm(swim, Scheme::Xor, 0, 10_000),
                run_workload(swim, Scheme::Xor, 10_000),
            ),
        ] {
            assert_eq!(
                streamed.breakdown, expected.breakdown,
                "{ctx}: breakdown diverges"
            );
            assert_eq!(streamed.l1, expected.l1, "{ctx}: L1 diverges");
            assert_eq!(streamed.l2, expected.l2, "{ctx}: L2 diverges");
            assert_eq!(streamed.dram, expected.dram, "{ctx}: DRAM diverges");
        }
    }

    #[test]
    fn streamed_run_matches_materialized_run() {
        let machine = MachineConfig::paper_default();
        for name in ["tree", "swim", "cg"] {
            let w = by_name(name).unwrap();
            let streamed = run_workload(w, Scheme::PrimeModulo, 15_000);
            let materialized = run_trace(w.trace(15_000), Scheme::PrimeModulo, &machine);
            assert_eq!(streamed.breakdown, materialized.breakdown, "{name}");
            assert_eq!(streamed.l2, materialized.l2, "{name}");
        }
    }

    #[test]
    fn dsl_pmod_scheme_matches_builtin_pmod_bit_for_bit() {
        // The DSL-compiled `a % 2039` closure must be indistinguishable
        // from the hand-written pMod indexer inside the engine: same
        // sets, same latency class, same stats.
        let id = primecache_core::expr::register_anonymous("a % 2039").expect("valid expression");
        let w = by_name("tree").unwrap();
        let expr = run_workload(w, Scheme::Expr(id), 20_000);
        let pmod = run_workload(w, Scheme::PrimeModulo, 20_000);
        assert_eq!(expr.breakdown, pmod.breakdown);
        assert_eq!(expr.l1, pmod.l1);
        assert_eq!(expr.l2, pmod.l2);
        assert_eq!(expr.dram, pmod.dram);
    }

    #[test]
    #[should_panic(expected = "non-prime-modulus")]
    fn run_trace_rejects_uncertified_expr_scheme_before_simulation() {
        let id = primecache_core::expr::register_anonymous("a % 2046").expect("valid expression");
        let machine = MachineConfig::paper_default();
        let _ = run_trace(Vec::new(), Scheme::Expr(id), &machine);
    }
}
