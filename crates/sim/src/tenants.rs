//! Multi-tenant interleaved runs: N recorded traces time-sliced through
//! one shared hierarchy, with per-tenant cache attribution.
//!
//! The interleaved stream (a [`primecache_workloads::MixCursor`]) is
//! the source of one run of the pipeline every unobserved run uses
//! (the L1 stage and the engine of [`crate::run_workload`]): it pushes
//! each scheduling quantum as one batch, with its tenant's index as the
//! batch's lane. Timing, DRAM behaviour,
//! and the execution breakdown come from that one continuous
//! simulation; a single-tenant mix is therefore bit-identical to
//! [`crate::run_recorded`] on the plain trace (the namespace tag is the
//! identity for tenant 0), which `tests/ingest_equivalence.rs` pins. At
//! each tenant switch, and once at the end, the run credits the
//! outgoing tenant with what the L1 and L2 statistics gained since the
//! previous switch — the sum of the deltas a snapshot after every
//! quantum would credit — so the per-tenant statistics sum to the
//! aggregate exactly.
//!
//! The interesting output is interference: comparing a tenant's shared
//! miss count against [`tenant_solo_baseline`] (same tagged address
//! stream, no co-tenants) isolates the misses manufactured purely by
//! contention, per scheme — the multi-programmed cousin of the paper's
//! conflict-miss question.

use primecache_cache::CacheStats;
use primecache_workloads::{MixStats, TenantMix};

use crate::run::{run_chunks, simulate};
use crate::{MachineConfig, RunResult, Scheme};

/// One tenant's share of an interleaved run.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    let names = mix.names();
    let mut cursor = mix.cursor();
    let mut quanta = vec![0; names.len()];
    let (aggregate, l1, l2) = simulate(machine, scheme, names.len(), |push| {
        while let Some((tenant, events)) = cursor.pull_quantum() {
            quanta[tenant] += 1;
            push(tenant, events);
        }
    });
    let mix_stats = cursor.mix_stats().clone();
    let lanes = (names.into_iter().zip(quanta).zip(l1.into_iter().zip(l2)))
        .enumerate()
        .map(|(i, ((name, quanta), (l1, l2)))| TenantLane {
            name: name.to_owned(),
            events: mix_stats.events[i],
            refs: mix_stats.refs[i],
            quanta,
            l1,
            l2,
        })
        .collect();
    TenantRun {
        aggregate,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_recorded;
    use crate::suite::fan_out;
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
    fn the_stage_and_the_live_l1_credit_the_same_lanes() {
        // On this thread a run takes the L1-stage path (on a host with
        // two or more cores); on a worker of a two-worker fan-out it
        // keeps its live L1 on the worker's thread. Both are one run.
        let record = |name: &str| (name.to_owned(), by_name(name).unwrap().record(20_000));
        let one = TenantMix::with_defaults(vec![record("mcf")]);
        let three = TenantMix::new(
            vec![record("mcf"), record("cg"), record("tree")],
            MixConfig {
                quantum_instructions: 700,
                ..MixConfig::default()
            },
        );
        let machine = MachineConfig::paper_default();
        for mix in [&one, &three] {
            for scheme in [Scheme::Base, Scheme::PrimeModulo, Scheme::Skewed] {
                let staged = run_tenant_mix(mix, scheme, &machine);
                assert_eq!(staged.mix.switches > 0, mix.names().len() > 1);
                for live in fan_out(2, 2, |_, _| run_tenant_mix(mix, scheme, &machine)) {
                    let (a, b) = (&live.aggregate, &staged.aggregate);
                    assert_eq!(a.breakdown, b.breakdown, "{scheme}");
                    assert_eq!(a.l1, b.l1, "{scheme}: L1");
                    assert_eq!(a.l2, b.l2, "{scheme}: L2");
                    assert_eq!(a.dram, b.dram, "{scheme}: DRAM");
                    assert_eq!(live.lanes.len(), staged.lanes.len());
                    for (x, y) in live.lanes.iter().zip(&staged.lanes) {
                        assert_eq!(x, y, "{scheme}: lane {}", x.name);
                    }
                    assert_eq!(live.mix, staged.mix, "{scheme}");
                }
            }
        }
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
