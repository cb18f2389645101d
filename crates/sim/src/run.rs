//! Run drivers: the source and the L1 on a second thread, the scheme's
//! L2, DRAM and core on the caller's.
//!
//! Every unobserved run — the single-scheme entry points
//! ([`run_trace`], [`run_chunks`], [`run_recorded`], [`run_workload`])
//! and tenant mixes ([`crate::run_tenant_mix`]) — is a two-stage
//! pipeline. The paper rehashes only the L2, and nothing below the L1
//! feeds back into it, so the L1's outcomes do not depend on the run's
//! timing ([`crate::recording`]). The L1 stage — the source (a replay,
//! import or mix cursor, or a live generator) and the paper's live L1 —
//! runs on one scoped thread and writes each chunk the source pushes,
//! with the L1's outcomes over it, into a [`Batch`]. It hands the batch
//! through a bounded channel to the caller's thread, where the engine
//! [`dispatch_replayed`] builds (L2, DRAM and core around an
//! [`L1Replay`], as in a sweep cell) replays it and sends it back for
//! reuse. The engine holds the run's `Rc` observability handles, so it
//! stays on the caller's thread and the source moves: sources are
//! `Send`.
//!
//! A source pushes each chunk with its lane: a tenant mix each quantum
//! with its tenant's index, a single stream every chunk in lane 0. At
//! each lane switch, and once at the end, the outgoing lane is credited
//! with what the statistics gained since the previous switch: the stage
//! credits the L1's, the engine the L2's demand statistics.
//!
//! Observed runs ([`crate::observe`]) keep the live L1 in the engine, on
//! one thread, because they need what a replay cannot give: its clean
//! victims and its time-ordered events. They build their engine with
//! [`dispatch`]. So does a run whose stage would have no core of its
//! own: on a one-core host, or on one of several fan-out workers (a
//! sweep's unshared cells, the registry's parallel cells), which already
//! occupy the cores. That run credits its lanes by the same rule.
//!
//! Both builders go through
//! [`HierarchyConfig::build_around`](primecache_cache::HierarchyConfig::build_around)
//! **once** per run, which picks the L2's concrete cache and
//! index-function types, so the per-event loop ([`Cpu::feed`]) has no
//! `dyn` dispatch; only the call into the engine, once per chunk, is
//! virtual. Before building the engine, and so before any thread
//! starts, every driver runs [`MachineConfig::check_scheme`], in every
//! build profile, and so panics on a scheme the config linter rejects.
//!
//! The `batched_equivalence` integration test and the `sim/machine`,
//! `sim/l1-replay` and `sim/tenants` units of the `check` battery
//! compare these drivers with `OracleMachine`, a naive machine restated
//! from the hierarchy, DRAM and core docs (stats, memory-write order,
//! breakdowns), and a mix's lanes with a per-quantum attribution.

use std::panic;
use std::sync::mpsc;
use std::thread;

use primecache_cache::{Cache, CacheStats, Hierarchy, HierarchyOp, L1Sim, L2Sim};
use primecache_core::index::Traditional;
use primecache_cpu::{Cpu, ExecBreakdown, StallAttribution};
use primecache_mem::{Dram, DramStats};
use primecache_obs::ObsHandle;
use primecache_trace::{EncodedTrace, Event};
use primecache_workloads::{EventChunks, Workload, STREAM_CHUNK};

use crate::recording::{Batch, L1Replay, L1Writer};
use crate::suite::stage_has_a_core;
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

/// One run in progress around a replayed L1: the scheme's L2, DRAM and
/// core, built once by [`dispatch_replayed`] and pushed the run's
/// batches in order.
pub(crate) trait Engine {
    /// Simulates `batch`, continuing where the previous batch stopped,
    /// its L1 outcomes replayed.
    ///
    /// # Panics
    ///
    /// Panics when the batch's references do not use up its outcomes
    /// exactly.
    fn push(&mut self, batch: &Batch);

    /// L2 demand statistics so far.
    fn l2_stats(&self) -> &CacheStats;

    /// Ends the run and packages its results; `l1` is the replayed L1's
    /// statistics over the whole run.
    fn finish(&mut self, l1: CacheStats) -> RunResult;
}

/// One run in progress around a live L1, built once by [`dispatch`] and
/// pushed the trace chunk by chunk. It can also report its L1 statistics
/// mid-run and be observed, which a replayed L1 cannot.
pub(crate) trait LiveEngine {
    /// Simulates `chunk`, continuing where the previous chunk stopped.
    fn push(&mut self, chunk: &[Event]);

    /// Ends the run and packages its results.
    fn finish(&mut self) -> RunResult;

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

    fn feed(&mut self, events: &[Event]) {
        self.cpu
            .feed(events.iter().copied(), &mut self.hierarchy, &mut self.dram);
    }

    fn result(&mut self, l1: CacheStats) -> RunResult {
        RunResult {
            scheme: self.scheme,
            breakdown: self.cpu.finish(),
            l1,
            l2: self.hierarchy.l2_stats().clone(),
            dram: *self.dram.stats(),
        }
    }
}

impl<X: L2Sim> Engine for Machine<X, L1Replay> {
    fn push(&mut self, batch: &Batch) {
        self.hierarchy.replayed_l1_mut().load(batch);
        self.feed(batch.events());
        self.hierarchy.replayed_l1_mut().check_drained();
    }

    fn l2_stats(&self) -> &CacheStats {
        self.hierarchy.l2_stats()
    }

    fn finish(&mut self, l1: CacheStats) -> RunResult {
        self.result(l1)
    }
}

impl<X: L2Sim> LiveEngine for Machine<X> {
    fn push(&mut self, chunk: &[Event]) {
        self.feed(chunk);
    }

    fn finish(&mut self) -> RunResult {
        let l1 = self.hierarchy.l1_stats().clone();
        self.result(l1)
    }

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
/// Panics when the config linter rejects `scheme`.
pub(crate) fn dispatch_replayed(machine: &MachineConfig, scheme: Scheme) -> Box<dyn Engine> {
    machine.check_scheme(scheme);
    let config = machine.hierarchy_config(scheme);
    config.build_around(L1Replay::new(&config.l1), Assemble { machine, scheme })
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

impl HierarchyOp<L1Replay> for Assemble<'_> {
    type Out = Box<dyn Engine>;

    fn run<X: L2Sim + 'static>(self, hierarchy: Hierarchy<X, L1Replay>) -> Box<dyn Engine> {
        Box::new(Machine::new(self.machine, self.scheme, hierarchy))
    }
}

/// Batches the hand-off channel holds at most. With the one the L1
/// stage fills and the one the engine replays, at most `DEPTH + 2`
/// batches (about 265 KB each at [`STREAM_CHUNK`] events) exist per
/// run.
const DEPTH: usize = 2;

/// A run's statistics per lane, credited at switches: before a chunk
/// whose lane differs from the previous chunk's, and when the run ends,
/// the outgoing lane gets what the counters gained since the previous
/// switch.
struct Lanes {
    /// The lane running now, lane 0 at the start.
    current: usize,
    /// The counters at the previous switch.
    mark: CacheStats,
    credited: Vec<CacheStats>,
}

impl Lanes {
    /// `n` lanes over counters that stand at `start`.
    fn new(n: usize, start: &CacheStats) -> Self {
        Self {
            current: 0,
            mark: start.clone(),
            credited: vec![CacheStats::new(start.set_accesses.len()); n],
        }
    }

    /// Makes `lane` current before its chunk runs; `now` are the counters.
    #[inline]
    fn enter(&mut self, lane: usize, now: &CacheStats) {
        if lane != self.current {
            self.credit(now);
            self.current = lane;
        }
    }

    /// Ends the run: credits the current lane and returns every lane.
    fn finish(mut self, now: &CacheStats) -> Vec<CacheStats> {
        self.credit(now);
        self.credited
    }

    /// Adds `now - mark` into the current lane and advances the mark to
    /// `now`, in place, so nothing here allocates.
    fn credit(&mut self, now: &CacheStats) {
        fn step(into: &mut u64, now: u64, prev: &mut u64) {
            *into += now - *prev;
            *prev = now;
        }
        fn steps(into: &mut [u64], now: &[u64], prev: &mut [u64]) {
            for ((into, &now), prev) in into.iter_mut().zip(now).zip(prev) {
                step(into, now, prev);
            }
        }
        let (into, prev) = (&mut self.credited[self.current], &mut self.mark);
        step(&mut into.accesses, now.accesses, &mut prev.accesses);
        step(&mut into.hits, now.hits, &mut prev.hits);
        step(&mut into.misses, now.misses, &mut prev.misses);
        step(&mut into.writes, now.writes, &mut prev.writes);
        step(&mut into.writebacks, now.writebacks, &mut prev.writebacks);
        step(&mut into.evictions, now.evictions, &mut prev.evictions);
        steps(
            &mut into.set_accesses,
            &now.set_accesses,
            &mut prev.set_accesses,
        );
        steps(&mut into.set_misses, &now.set_misses, &mut prev.set_misses);
        // The per-set eviction counts are empty until the first eviction.
        into.set_evictions.resize(now.set_evictions.len(), 0);
        prev.set_evictions.resize(now.set_evictions.len(), 0);
        steps(
            &mut into.set_evictions,
            &now.set_evictions,
            &mut prev.set_evictions,
        );
    }
}

/// Runs `scheme`'s engine on `machine` over the chunks `source` pushes,
/// each with its lane (below `lanes`), and returns the result and each
/// lane's L1 and L2 demand statistics: the source and the L1 stage on a
/// scoped thread, the engine on this one. Where the stage has no core of
/// its own ([`stage_has_a_core`]: a one-core host, or a thread among
/// several fan-out workers), the run keeps its live L1 on this thread
/// instead, because there the stage's batches cost time and win none.
///
/// The stage writes each chunk into a batch — one the engine sent back,
/// or a new one while none has come back — and sends it through a
/// channel of [`DEPTH`] batches, blocking while it is full. The engine
/// replays each batch, in order, and sends it back. When the source
/// ends, the stage drops its sender, which ends the engine's loop; the
/// engine then joins the stage for the L1's statistics. If the source
/// panics, the engine's loop ends the same way and the join re-raises
/// the source's panic here. If the engine panics, its receiver drops:
/// the stage's next send fails, it lets the rest of the source run
/// without work, and the scope joins it before the engine's panic
/// propagates.
pub(crate) fn simulate(
    machine: &MachineConfig,
    scheme: Scheme,
    lanes: usize,
    source: impl FnOnce(&mut dyn FnMut(usize, &[Event])) + Send,
) -> (RunResult, Vec<CacheStats>, Vec<CacheStats>) {
    if !stage_has_a_core() {
        let mut engine = dispatch(machine, scheme);
        let mut l1 = Lanes::new(lanes, engine.l1_stats());
        let mut l2 = Lanes::new(lanes, engine.l2_stats());
        source(&mut |lane, chunk| {
            l1.enter(lane, engine.l1_stats());
            l2.enter(lane, engine.l2_stats());
            engine.push(chunk);
        });
        let (l1, l2) = (l1.finish(engine.l1_stats()), l2.finish(engine.l2_stats()));
        return (engine.finish(), l1, l2);
    }
    let mut engine = dispatch_replayed(machine, scheme);
    let config = machine.hierarchy_config(scheme);
    let (full_tx, full_rx) = mpsc::sync_channel::<Batch>(DEPTH);
    let (empty_tx, empty_rx) = mpsc::channel::<Batch>();
    thread::scope(|scope| {
        let stage = scope.spawn(move || {
            let mut writer = L1Writer::new(&config);
            let mut l1 = Lanes::new(lanes, writer.stats());
            let mut open = true;
            source(&mut |lane, chunk| {
                if open {
                    l1.enter(lane, writer.stats());
                    let mut batch = empty_rx.try_recv().unwrap_or_default();
                    writer.write(chunk, &mut batch);
                    batch.lane = lane;
                    open = full_tx.send(batch).is_ok();
                }
            });
            (writer.stats().clone(), l1.finish(writer.stats()))
        });
        let mut l2 = Lanes::new(lanes, engine.l2_stats());
        for batch in full_rx {
            l2.enter(batch.lane, engine.l2_stats());
            engine.push(&batch);
            // Fails only once the stage has finished; the batch drops.
            let _ = empty_tx.send(batch);
        }
        let (l1, l1_lanes) = stage
            .join()
            .unwrap_or_else(|payload| panic::resume_unwind(payload));
        let l2_lanes = l2.finish(engine.l2_stats());
        (engine.finish(l1), l1_lanes, l2_lanes)
    })
}

/// Runs an explicit event sequence under a scheme.
///
/// Accepts anything iterable that can move to the L1 stage's thread,
/// e.g. a materialized `Vec<Event>` or a slice's copied iterator; the
/// events reach the engine in `STREAM_CHUNK`-event chunks.
#[must_use]
pub fn run_trace<T>(trace: T, scheme: Scheme, machine: &MachineConfig) -> RunResult
where
    T: IntoIterator<Item = Event> + Send,
{
    simulate(machine, scheme, 1, |push| {
        let mut trace = trace.into_iter();
        let mut chunk = Vec::with_capacity(STREAM_CHUNK);
        loop {
            chunk.clear();
            chunk.extend(trace.by_ref().take(STREAM_CHUNK));
            if chunk.is_empty() {
                break;
            }
            push(0, &chunk);
        }
    })
    .0
}

/// Runs a workload under a scheme on the paper's default machine.
///
/// `target_refs` controls the trace length (memory references). The
/// generator pushes each chunk as it fills, so the trace is never
/// materialized.
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
    simulate(&machine, scheme, 1, |push| {
        workload.push_chunks(target_refs, &mut |chunk| push(0, chunk));
    })
    .0
}

/// Runs any [`EventChunks`] source — a recorded [`primecache_trace::ReplayCursor`],
/// an imported trace's cursor, or a multi-tenant
/// [`primecache_workloads::MixCursor`] — through the engine, each chunk
/// as the source pushes it; the source moves to the run's L1-stage
/// thread. Results across sources differ only by their event sequences;
/// `tests/ingest_equivalence.rs` pins a single-tenant mix to the plain
/// replay, bit-exactly.
#[must_use]
pub fn run_chunks<S: EventChunks + Send>(
    mut source: S,
    scheme: Scheme,
    machine: &MachineConfig,
) -> RunResult {
    simulate(machine, scheme, 1, |push| {
        source.push_chunks(&mut |chunk| push(0, chunk));
    })
    .0
}

/// Runs a *recorded* trace from its start: [`run_chunks`] over its
/// replay cursor.
///
/// Decode is bit-identical to live generation (the codec is lossless
/// and a recording encodes the chunks the live generator pushes), so results
/// match [`run_workload`] exactly — stats, writeback order, breakdowns —
/// which the `replay_equivalence` integration test pins for all 23
/// workloads × every scheme. A sweep cell instead replays its
/// workload's shared events and L1 outcomes ([`crate::Recording::run`]).
#[must_use]
pub fn run_recorded(trace: &EncodedTrace, scheme: Scheme, machine: &MachineConfig) -> RunResult {
    run_chunks(trace.replay(), scheme, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use primecache_workloads::by_name;
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;

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

    /// A source that pushes one chunk, then panics on its second; the
    /// `Arc` it holds shows when the stage has dropped it.
    struct PanicsOnSecondChunk {
        _alive: Arc<()>,
    }

    impl EventChunks for PanicsOnSecondChunk {
        fn push_chunks(&mut self, consume: &mut dyn FnMut(&[Event])) {
            consume(&[Event::Load {
                addr: 0x40,
                dep: true,
            }]);
            panic!("the source failed on its second chunk");
        }
    }

    #[test]
    fn a_source_panic_reaches_the_caller_after_the_stage_is_joined() {
        let alive = Arc::new(());
        let source = PanicsOnSecondChunk {
            _alive: Arc::clone(&alive),
        };
        let machine = MachineConfig::paper_default();
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            run_chunks(source, Scheme::Base, &machine)
        }))
        .expect_err("the source's panic reaches the caller");
        assert_eq!(
            err.downcast_ref::<&str>(),
            Some(&"the source failed on its second chunk")
        );
        // The stage thread has ended and dropped its source.
        assert_eq!(Arc::strong_count(&alive), 1);
    }

    #[test]
    fn an_empty_source_returns_the_zero_result() {
        struct Empty;
        impl EventChunks for Empty {
            fn push_chunks(&mut self, _: &mut dyn FnMut(&[Event])) {}
        }
        let machine = MachineConfig::paper_default();
        for r in [
            run_chunks(Empty, Scheme::PrimeModulo, &machine),
            run_trace(Vec::new(), Scheme::PrimeModulo, &machine),
        ] {
            assert_eq!(r.breakdown, ExecBreakdown::default());
            let l1_sets = machine.hierarchy_config(Scheme::Base).l1.n_set_phys();
            assert_eq!(r.l1, CacheStats::new(l1_sets as usize));
            assert_eq!(r.l2.accesses, 0);
            assert_eq!(r.dram, DramStats::default());
        }
    }

    #[test]
    #[should_panic(expected = "non-prime-modulus")]
    fn run_trace_rejects_uncertified_expr_scheme_before_simulation() {
        let id = primecache_core::expr::register_anonymous("a % 2046").expect("valid expression");
        let machine = MachineConfig::paper_default();
        let _ = run_trace(Vec::new(), Scheme::Expr(id), &machine);
    }
}
