//! Single-run driver: one engine, pushed the trace on the caller's
//! thread.
//!
//! Every entry point ([`run_trace`], [`run_chunks`], [`run_recorded`],
//! [`run_workload`], the observed and tenant drivers, and
//! [`Recording::run`](crate::Recording::run)) builds its
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
    /// count no evictions, so `evictions` and `writebacks` are always 0
    /// here: the L2's victims count in the L2 cache's own statistics
    /// ([`L2Sim::stats`]), and each dirty one is a DRAM write
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

/// A run whose L1 is live: it can also report its statistics mid-run
/// and be observed. A replayed L1 can do neither, so an engine around
/// one is only an [`Engine`].
pub(crate) trait LiveEngine: Engine {
    /// L1 statistics so far.
    fn l1_stats(&self) -> &CacheStats;

    /// L2 demand statistics so far.
    fn l2_stats(&self) -> &CacheStats;

    /// The L2 cache's own statistics so far, evictions included.
    fn l2_cache_stats(&self) -> &CacheStats;

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
    fn l1_stats(&self) -> &CacheStats {
        self.hierarchy.l1_stats()
    }

    fn l2_stats(&self) -> &CacheStats {
        self.hierarchy.l2_stats()
    }

    fn l2_cache_stats(&self) -> &CacheStats {
        self.hierarchy.l2_cache_stats()
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
/// and a recording encodes the chunks the live generator pushes), so results
/// match [`run_workload`] exactly — stats, writeback order, breakdowns —
/// which the `replay_equivalence` integration test pins for all 23
/// workloads × every scheme. The run simulates its own live L1; a
/// sweep cell instead replays its workload's shared events and L1
/// outcomes ([`crate::Recording::run`]).
#[must_use]
pub fn run_recorded(trace: &EncodedTrace, scheme: Scheme, machine: &MachineConfig) -> RunResult {
    run_chunks(trace.replay(), scheme, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn runs_are_deterministic() {
        let w = by_name("mcf").unwrap();
        let a = run_workload(w, Scheme::Xor, 10_000);
        let b = run_workload(w, Scheme::Xor, 10_000);
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.l2.misses, b.l2.misses);
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
