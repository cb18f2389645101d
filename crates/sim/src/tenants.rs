//! Multi-tenant interleaved runs: N recorded traces time-sliced through
//! one shared hierarchy, with per-tenant cache attribution.
//!
//! The interleaved stream (a [`primecache_workloads::MixCursor`])
//! drives the one engine every run uses, a scheduling quantum at a
//! time. Timing, DRAM behaviour, and the execution breakdown come from
//! that one continuous simulation; a single-tenant mix is therefore
//! bit-identical to [`crate::run_recorded`] on the plain trace (the
//! namespace tag is the identity for tenant 0), which
//! `tests/ingest_equivalence.rs` pins. After each quantum the run
//! snapshots the L1 and L2 statistics and credits the delta to the
//! tenant that ran it, so the per-tenant deltas sum to the aggregate
//! statistics exactly.
//!
//! The interesting output is interference: comparing a tenant's shared
//! miss count against [`tenant_solo_baseline`] (same tagged address
//! stream, no co-tenants) isolates the misses manufactured purely by
//! contention, per scheme — the multi-programmed cousin of the paper's
//! conflict-miss question.

use primecache_cache::CacheStats;
use primecache_workloads::{MixStats, TenantMix};

use crate::run::{dispatch, run_chunks};
use crate::{MachineConfig, RunResult, Scheme};

/// One tenant's share of an interleaved run.
#[derive(Debug, Clone)]
pub struct TenantLane {
    /// Tenant name (the recorded trace it replays).
    pub name: String,
    /// Events this tenant issued into the mix.
    pub events: u64,
    /// Memory references (loads + stores) this tenant issued.
    pub refs: u64,
    /// Scheduling quanta this tenant received.
    pub quanta: u64,
    /// L1 statistics attributed to this tenant's quanta.
    pub l1: CacheStats,
    /// L2 demand statistics attributed to this tenant's quanta.
    pub l2: CacheStats,
}

/// Everything a multi-tenant simulation produces.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// The shared run: one continuous simulation of the interleaved
    /// stream, identical in kind to any single-stream [`RunResult`].
    pub aggregate: RunResult,
    /// Per-tenant attribution; lane `i` is tenant `i` of the mix. The
    /// lanes' cache statistics sum to `aggregate`'s field-for-field.
    pub lanes: Vec<TenantLane>,
    /// Scheduling statistics of the interleaving itself.
    pub mix: MixStats,
}

/// Runs an interleaved tenant mix under `scheme`: one shared hierarchy,
/// deterministic quantum scheduling, per-tenant attribution.
#[must_use]
pub fn run_tenant_mix(mix: &TenantMix, scheme: Scheme, machine: &MachineConfig) -> TenantRun {
    let mut engine = dispatch(machine, scheme);
    let mut prev_l1 = engine.l1_stats().clone();
    let mut prev_l2 = engine.l2_stats().clone();
    let mut lanes: Vec<TenantLane> = mix
        .names()
        .into_iter()
        .map(|name| TenantLane {
            name: name.to_owned(),
            events: 0,
            refs: 0,
            quanta: 0,
            l1: CacheStats::new(prev_l1.set_accesses.len()),
            l2: CacheStats::new(prev_l2.set_accesses.len()),
        })
        .collect();

    let mut cursor = mix.cursor();
    while let Some((tenant, events)) = cursor.pull_quantum() {
        engine.push(events);
        let lane = &mut lanes[tenant];
        lane.quanta += 1;
        add_delta(&mut lane.l1, engine.l1_stats(), &mut prev_l1);
        add_delta(&mut lane.l2, engine.l2_stats(), &mut prev_l2);
    }
    let mix_stats = cursor.mix_stats().clone();
    for (i, lane) in lanes.iter_mut().enumerate() {
        lane.events = mix_stats.events[i];
        lane.refs = mix_stats.refs[i];
    }

    TenantRun {
        aggregate: engine.finish(),
        lanes,
        mix: mix_stats,
    }
}

/// The no-contention baseline for tenant `idx`: its tagged address
/// stream run *alone* through a fresh machine under the same scheme.
/// Returns `(l1, l2)` statistics; the miss delta against the shared
/// lane in [`run_tenant_mix`] is pure inter-tenant interference (same
/// addresses, same scheme — only the co-tenants differ).
#[must_use]
pub fn tenant_solo_baseline(
    mix: &TenantMix,
    idx: usize,
    scheme: Scheme,
    machine: &MachineConfig,
) -> (CacheStats, CacheStats) {
    let solo = run_chunks(mix.solo_cursor(idx), scheme, machine);
    (solo.l1, solo.l2)
}

/// Adds `now - prev` into `into`, then advances `prev` to `now` in
/// place: after every quantum, so nothing here allocates.
fn add_delta(into: &mut CacheStats, now: &CacheStats, prev: &mut CacheStats) {
    fn step(into: &mut u64, now: u64, prev: &mut u64) {
        *into += now - *prev;
        *prev = now;
    }
    step(&mut into.accesses, now.accesses, &mut prev.accesses);
    step(&mut into.hits, now.hits, &mut prev.hits);
    step(&mut into.misses, now.misses, &mut prev.misses);
    step(&mut into.writes, now.writes, &mut prev.writes);
    step(&mut into.writebacks, now.writebacks, &mut prev.writebacks);
    step(&mut into.evictions, now.evictions, &mut prev.evictions);
    // The per-set eviction counts are empty until the first eviction.
    into.set_evictions.resize(now.set_evictions.len(), 0);
    prev.set_evictions.resize(now.set_evictions.len(), 0);
    let sets = [
        (
            &mut into.set_accesses,
            &now.set_accesses,
            &mut prev.set_accesses,
        ),
        (&mut into.set_misses, &now.set_misses, &mut prev.set_misses),
        (
            &mut into.set_evictions,
            &now.set_evictions,
            &mut prev.set_evictions,
        ),
    ];
    for (into, now, prev) in sets {
        for ((into, &now), prev) in into.iter_mut().zip(now).zip(prev.iter_mut()) {
            step(into, now, prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_recorded;
    use primecache_workloads::{by_name, MixConfig, TenantMix};

    fn mix2(refs: u64) -> TenantMix {
        let a = by_name("tree").unwrap().record(refs);
        let b = by_name("swim").unwrap().record(refs);
        TenantMix::new(
            vec![("tree".into(), a), ("swim".into(), b)],
            MixConfig {
                quantum_instructions: 700,
                ..MixConfig::default()
            },
        )
    }

    #[test]
    fn single_tenant_mix_matches_the_plain_replay() {
        let trace = by_name("mcf").unwrap().record(3_000);
        let machine = MachineConfig::paper_default();
        for scheme in [Scheme::Base, Scheme::PrimeModulo] {
            let plain = run_recorded(&trace, scheme, &machine);
            let mix = TenantMix::with_defaults(vec![("mcf".into(), trace.clone())]);
            let run = run_tenant_mix(&mix, scheme, &machine);
            assert_eq!(run.aggregate.breakdown, plain.breakdown);
            assert_eq!(run.aggregate.l1, plain.l1);
            assert_eq!(run.aggregate.l2, plain.l2);
            assert_eq!(run.aggregate.dram, plain.dram);
            assert_eq!(run.lanes.len(), 1);
            assert_eq!(run.lanes[0].l1, plain.l1);
            assert_eq!(run.lanes[0].l2, plain.l2);
        }
    }

    #[test]
    fn lanes_sum_to_the_aggregate() {
        let mix = mix2(2_000);
        let machine = MachineConfig::paper_default();
        let run = run_tenant_mix(&mix, Scheme::Base, &machine);
        assert_eq!(run.lanes.len(), 2);
        let l2_sum: u64 = run.lanes.iter().map(|l| l.l2.misses).sum();
        assert_eq!(l2_sum, run.aggregate.l2.misses);
        let l1_sum: u64 = run.lanes.iter().map(|l| l.l1.accesses).sum();
        assert_eq!(l1_sum, run.aggregate.l1.accesses);
        let refs: u64 = run.lanes.iter().map(|l| l.refs).sum();
        assert_eq!(refs, run.aggregate.l1.accesses);
        // Evictions too, set by set (each lane's start empty).
        let l1 = &run.aggregate.l1;
        let evictions: u64 = run.lanes.iter().map(|l| l.l1.evictions).sum();
        assert_eq!(evictions, l1.evictions);
        for (set, &n) in l1.set_evictions.iter().enumerate() {
            let lanes: u64 = run.lanes.iter().map(|l| l.l1.set_evictions[set]).sum();
            assert_eq!(lanes, n, "set {set}");
        }
        assert!(l1.evictions > 0, "the L1 must evict");
        assert!(run.mix.switches > 0, "two tenants must actually interleave");
    }

    #[test]
    fn runs_are_deterministic() {
        let mix = mix2(1_500);
        let machine = MachineConfig::paper_default();
        let a = run_tenant_mix(&mix, Scheme::Xor, &machine);
        let b = run_tenant_mix(&mix, Scheme::Xor, &machine);
        assert_eq!(a.aggregate.l2, b.aggregate.l2);
        assert_eq!(a.mix, b.mix);
        for (x, y) in a.lanes.iter().zip(&b.lanes) {
            assert_eq!(x.l2, y.l2);
            assert_eq!(x.quanta, y.quanta);
        }
    }

    #[test]
    fn solo_baseline_is_the_same_stream_without_contention() {
        let mix = mix2(2_000);
        let machine = MachineConfig::paper_default();
        let run = run_tenant_mix(&mix, Scheme::Base, &machine);
        for (i, lane) in run.lanes.iter().enumerate() {
            let (l1, _) = tenant_solo_baseline(&mix, i, Scheme::Base, &machine);
            // Identical address stream: L1 sees one demand access per
            // memory reference regardless of co-tenants.
            assert_eq!(l1.accesses, lane.l1.accesses);
            assert_eq!(l1.accesses, lane.refs);
            // True-LRU inclusion argument: foreign interleavings can
            // only push a tenant's own blocks down the LRU stacks, so
            // its shared L1 misses never drop below its solo misses.
            assert!(
                lane.l1.misses >= l1.misses,
                "tenant {i}: shared L1 misses {} < solo {}",
                lane.l1.misses,
                l1.misses
            );
        }
    }
}
