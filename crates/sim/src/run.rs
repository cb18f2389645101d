//! Single-run driver: one engine, pushed the trace on the caller's
//! thread.
//!
//! Every entry point ([`run_trace`], [`run_chunks`], [`run_recorded`],
//! [`run_workload`], [`run_workload_warm`], and the observed and tenant
//! drivers) builds its run's [`Engine`] with [`dispatch`] — **once** per
//! run, on the scheme's L2 organization and hash kind — and then pushes
//! the trace into it as `&[Event]` chunks: a replay, mix or import
//! cursor pushes the chunks it decodes, a live generator each full
//! `STREAM_CHUNK` buffer. The engine's caches are monomorphized over
//! their concrete cache and index-function types, so the per-event
//! loop ([`Cpu::feed`]) has no `dyn` dispatch; only the call into the
//! engine, once per chunk, is virtual.
//!
//! All drivers are bit-identical to the dynamically-dispatched
//! reference path, kept as [`run_trace_reference`]; the
//! `batched_equivalence` integration test proves it per workload and
//! scheme (stats, writeback order, fingerprints).

use primecache_cache::{
    bank_disp_factor, Cache, CacheStats, FullyAssociative, Hierarchy, L2Organization, L2Sim,
    SkewHashKind, SkewedCache,
};
use primecache_core::index::{
    Geometry, HashKind, PrimeDisplacement, PrimeModulo, SetIndexer, SkewDispBank, SkewXorBank,
    Traditional, Xor,
};
use primecache_cpu::{Cpu, ExecBreakdown};
use primecache_mem::{Dram, DramStats};
use primecache_trace::{EncodedTrace, Event};
use primecache_workloads::{EventChunks, Workload, STREAM_CHUNK};

#[cfg(feature = "obs")]
use primecache_cpu::StallAttribution;
#[cfg(feature = "obs")]
use primecache_obs::ObsHandle;

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
    /// L2 demand statistics (Figs. 11–13 count these misses).
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
/// built once by [`dispatch`] and pushed the trace chunk by chunk.
pub(crate) trait Engine {
    /// Simulates `chunk`, continuing where the previous chunk stopped.
    fn push(&mut self, chunk: &[Event]);

    /// Starts the measured phase: ends the core's run so far and zeroes
    /// every statistic and clock. Cache contents and open DRAM rows
    /// survive.
    fn reset_stats(&mut self);

    /// L1 statistics so far.
    fn l1_stats(&self) -> &CacheStats;

    /// L2 demand statistics so far.
    fn l2_stats(&self) -> &CacheStats;

    /// Ends the run and packages its results.
    fn finish(&mut self) -> RunResult;

    /// Attaches one recorder to the hierarchy, the DRAM and the core.
    #[cfg(feature = "obs")]
    fn attach_obs(&mut self, handle: ObsHandle);

    /// Stall attribution of the finished run.
    #[cfg(feature = "obs")]
    fn last_stall_attribution(&self) -> StallAttribution;

    /// Valid lines per L2 set, now.
    #[cfg(feature = "obs")]
    fn l2_occupancy(&self) -> Vec<u64>;
}

/// The machine of one run, monomorphized over its L2 (`X`) and its L1
/// index function (`J`).
struct Machine<X: L2Sim, J: SetIndexer> {
    scheme: Scheme,
    hierarchy: Hierarchy<X, J>,
    dram: Dram,
    cpu: Cpu,
}

impl<X: L2Sim, J: SetIndexer> Machine<X, J> {
    fn new(machine: &MachineConfig, scheme: Scheme, hierarchy: Hierarchy<X, J>) -> Self {
        Self {
            scheme,
            hierarchy,
            dram: Dram::new(machine.mem),
            cpu: Cpu::new(machine.cpu),
        }
    }
}

impl<X: L2Sim, J: SetIndexer> Engine for Machine<X, J> {
    fn push(&mut self, chunk: &[Event]) {
        self.cpu
            .feed(chunk.iter().copied(), &mut self.hierarchy, &mut self.dram);
    }

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

    fn finish(&mut self) -> RunResult {
        RunResult {
            scheme: self.scheme,
            breakdown: self.cpu.finish(),
            l1: self.hierarchy.l1_stats().clone(),
            l2: self.hierarchy.l2_stats().clone(),
            dram: *self.dram.stats(),
        }
    }

    #[cfg(feature = "obs")]
    fn attach_obs(&mut self, handle: ObsHandle) {
        self.hierarchy.attach_obs(handle.clone());
        self.dram.attach_obs(handle.clone());
        self.cpu.attach_obs(handle);
    }

    #[cfg(feature = "obs")]
    fn last_stall_attribution(&self) -> StallAttribution {
        self.cpu.last_stall_attribution()
    }

    #[cfg(feature = "obs")]
    fn l2_occupancy(&self) -> Vec<u64> {
        self.hierarchy.l2_occupancy()
    }
}

/// Builds `scheme`'s engine on `machine`, resolving the L2 organization
/// and hash kind to concrete cache and index-function types. This is
/// the once-per-run dispatch that replaces per-reference `Box<dyn
/// SetIndexer>` calls.
pub(crate) fn dispatch(machine: &MachineConfig, scheme: Scheme) -> Box<dyn Engine> {
    #[cfg(any(debug_assertions, feature = "check"))]
    machine.check_scheme(scheme);
    match machine.hierarchy_config(scheme).l2 {
        L2Organization::SetAssoc(cfg) => {
            let geom = Geometry::new(cfg.n_set_phys());
            match cfg.hash() {
                HashKind::Traditional => assemble(
                    machine,
                    scheme,
                    Cache::with_typed(cfg, Traditional::new(geom)),
                ),
                HashKind::Xor => assemble(machine, scheme, Cache::with_typed(cfg, Xor::new(geom))),
                HashKind::PrimeModulo => assemble(
                    machine,
                    scheme,
                    Cache::with_typed(cfg, PrimeModulo::new(geom)),
                ),
                HashKind::PrimeDisplacement => assemble(
                    machine,
                    scheme,
                    Cache::with_typed(cfg, PrimeDisplacement::paper_default(geom)),
                ),
                HashKind::Expr(id) => {
                    assemble(machine, scheme, Cache::with_typed(cfg, id.indexer()))
                }
            }
        }
        L2Organization::Skewed(cfg) => match cfg.hash() {
            SkewHashKind::Xor => assemble(
                machine,
                scheme,
                SkewedCache::with_banks(cfg, |b, g| SkewXorBank::new(g, b)),
            ),
            SkewHashKind::PrimeDisplacement => assemble(
                machine,
                scheme,
                SkewedCache::with_banks(cfg, |b, g| SkewDispBank::new(g, bank_disp_factor(b))),
            ),
        },
        L2Organization::FullyAssociative {
            size_bytes,
            line_bytes,
        } => assemble(
            machine,
            scheme,
            FullyAssociative::new(size_bytes, line_bytes),
        ),
    }
}

/// Builds the engine around a concrete L2: the paper's L1 (always
/// traditional indexing) monomorphized too, any other L1 boxed.
fn assemble<X: L2Sim + 'static>(machine: &MachineConfig, scheme: Scheme, l2: X) -> Box<dyn Engine> {
    let hcfg = machine.hierarchy_config(scheme);
    if hcfg.l1.hash() == HashKind::Traditional {
        let l1 = Cache::with_typed(
            hcfg.l1,
            Traditional::new(Geometry::new(hcfg.l1.n_set_phys())),
        );
        Box::new(Machine::new(
            machine,
            scheme,
            Hierarchy::with_parts(hcfg, l1, l2),
        ))
    } else {
        let l1 = Cache::new(hcfg.l1);
        Box::new(Machine::new(
            machine,
            scheme,
            Hierarchy::with_parts(hcfg, l1, l2),
        ))
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

/// The dynamically-dispatched reference driver: `Box<dyn SetIndexer>`
/// caches behind [`Hierarchy::new`], driven event-at-a-time.
///
/// Kept as the differential baseline for the engine — the
/// `batched_equivalence` integration test asserts bit-identical stats,
/// writeback order, and breakdowns against it. Not intended for
/// performance work.
#[must_use]
pub fn run_trace_reference<T>(trace: T, scheme: Scheme, machine: &MachineConfig) -> RunResult
where
    T: IntoIterator<Item = Event>,
{
    #[cfg(any(debug_assertions, feature = "check"))]
    machine.check_scheme(scheme);
    let mut hierarchy = Hierarchy::new(machine.hierarchy_config(scheme));
    let mut dram = Dram::new(machine.mem);
    let mut cpu = Cpu::new(machine.cpu);
    let breakdown = cpu.run(trace, &mut hierarchy, &mut dram);
    RunResult {
        scheme,
        breakdown,
        l1: hierarchy.l1_stats().clone(),
        l2: hierarchy.l2_stats().clone(),
        dram: *dram.stats(),
    }
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
/// workloads × every scheme. This is the per-cell hot path of
/// [`crate::suite::run_sweep`]: one generation, one replay per scheme.
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
    /// (on the reference dyn driver) and assert the mid-run reset of the
    /// engine is bit-identical. A warm count of 0 means no warm phase.
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

        let mut hierarchy = Hierarchy::new(machine.hierarchy_config(scheme));
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-prime-modulus")]
    fn run_trace_rejects_uncertified_expr_scheme_before_simulation() {
        let id = primecache_core::expr::register_anonymous("a % 2046").expect("valid expression");
        let machine = MachineConfig::paper_default();
        let _ = run_trace(Vec::new(), Scheme::Expr(id), &machine);
    }

    #[test]
    fn batched_drivers_match_reference_quick() {
        // A quick per-scheme smoke of what the root `batched_equivalence`
        // battery proves exhaustively: the monomorphized engine is
        // bit-identical to the dyn reference path.
        let machine = MachineConfig::paper_default();
        let w = by_name("mcf").unwrap();
        for scheme in [
            Scheme::PrimeModulo,
            Scheme::Skewed,
            Scheme::FullyAssociative,
        ] {
            let batched = run_workload(w, scheme, 8_000);
            let reference = run_trace_reference(w.trace(8_000), scheme, &machine);
            assert_eq!(batched.breakdown, reference.breakdown, "{scheme:?}");
            assert_eq!(batched.l1, reference.l1, "{scheme:?}");
            assert_eq!(batched.l2, reference.l2, "{scheme:?}");
            assert_eq!(batched.dram, reference.dram, "{scheme:?}");
        }
    }
}
