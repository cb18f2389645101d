//! Observed runs and the run report.
//!
//! [`run_workload_observed`] is [`crate::run_workload`] with a
//! `primecache_obs` recorder attached to every model of the run's
//! engine: the hierarchy reports demand accesses and evictions, the
//! DRAM its requests, and the CPU feeds the sim-time clock.
//! [`observe_chunks`] does the same for any [`EventChunks`] source (a
//! recorded or imported trace, a tenant mix). Attaching a recorder never
//! changes the simulation.
//!
//! The metric dump is built once, when the run ends, from the run's
//! own statistics — [`RunResult`]'s cache and DRAM stats, the L2
//! cache's own stats (its evictions), the core's stall attribution, the
//! L2 occupancy, the chunks pushed. The recorder counts nothing, so
//! nothing is counted twice. [`observed_report`] wraps a run in the
//! versioned [`RunReport`] artifact: its provenance and that dump, so
//! each number is stated once.

use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use primecache_obs::{Histogram, Metrics, ObsConfig, Provenance, Recorder, RunReport};
use primecache_trace::Event;
use primecache_workloads::{EventChunks, Workload};

use crate::run::dispatch;
use crate::{MachineConfig, RunResult, Scheme};

/// Everything an observed run produces.
#[derive(Debug)]
pub struct ObservedRun {
    /// The plain run result (identical to the unobserved driver's).
    pub result: RunResult,
    /// The recorder, holding any buffered events.
    pub recorder: Recorder,
    /// Full named-metric dump (names in `OBSERVABILITY.md`).
    pub metrics: Metrics,
}

/// Runs `workload` under `scheme` with a recorder attached.
///
/// Counts are exact regardless of `cfg` (sampling only thins traced
/// `access` events).
#[must_use]
pub fn run_workload_observed(
    workload: &Workload,
    scheme: Scheme,
    target_refs: u64,
    cfg: ObsConfig,
) -> ObservedRun {
    observe(scheme, cfg, |push| workload.push_chunks(target_refs, push))
}

/// Runs any [`EventChunks`] source with a recorder attached — the
/// observed sibling of [`crate::run_chunks`], so imported traces
/// ([`primecache_ingest`](https://docs.rs/primecache-ingest)'s cursors),
/// recorded traces and multi-tenant mixes get the same metrics as
/// native workloads.
#[must_use]
pub fn observe_chunks<S: EventChunks>(
    mut source: S,
    scheme: Scheme,
    cfg: ObsConfig,
) -> ObservedRun {
    observe(scheme, cfg, |push| source.push_chunks(push))
}

/// The engine behind every observed run: `scheme`'s engine on the
/// paper's machine with one recorder attached, over the chunks `feed`
/// pushes.
fn observe(
    scheme: Scheme,
    cfg: ObsConfig,
    feed: impl FnOnce(&mut dyn FnMut(&[Event])),
) -> ObservedRun {
    let handle = Recorder::handle(cfg);
    let mut engine = dispatch(&MachineConfig::paper_default(), scheme);
    engine.attach_obs(handle.clone());
    let (mut chunks, mut widest) = (0u64, 0u64);
    feed(&mut |chunk| {
        chunks += 1;
        widest = widest.max(chunk.len() as u64);
        engine.push(chunk);
    });
    let result = engine.finish();
    let stalls = engine.last_stall_attribution();
    let occupancy = engine.l2_occupancy();
    let l2_cache = engine.l2_cache_stats().clone();
    drop(engine);
    let recorder = Rc::try_unwrap(handle)
        .expect("all instrumented owners dropped")
        .into_inner();

    let (l1, l2, d) = (&result.l1, &result.l2, &result.dram);
    let mut metrics = Metrics::new();
    for (name, unit, help, value) in [
        (
            "cache.l1.accesses",
            "refs",
            "L1 demand accesses",
            l1.accesses,
        ),
        ("cache.l1.hits", "refs", "L1 demand hits", l1.hits),
        ("cache.l1.misses", "refs", "L1 demand misses", l1.misses),
        ("cache.l1.writes", "refs", "L1 store accesses", l1.writes),
        (
            "cache.l1.evictions",
            "blocks",
            "valid blocks evicted from L1",
            l1.evictions,
        ),
        (
            "cache.l1.dirty_evictions",
            "blocks",
            "dirty L1 victims written back to L2",
            l1.writebacks,
        ),
        (
            "cache.l2.demand_accesses",
            "refs",
            "L2 demand accesses (L1 misses)",
            l2.accesses,
        ),
        ("cache.l2.demand_hits", "refs", "L2 demand hits", l2.hits),
        (
            "cache.l2.demand_misses",
            "refs",
            "L2 demand misses",
            l2.misses,
        ),
        (
            "cache.l2.demand_writes",
            "refs",
            "L2 demand stores",
            l2.writes,
        ),
        (
            "cache.l2.evictions",
            "blocks",
            "valid blocks evicted from L2",
            l2_cache.evictions,
        ),
        (
            "cache.l2.dirty_evictions",
            "blocks",
            "dirty L2 victims written back to memory",
            l2_cache.writebacks,
        ),
        ("dram.reads", "requests", "DRAM read requests", d.reads),
        ("dram.writes", "requests", "DRAM write requests", d.writes),
        (
            "dram.row_hits",
            "requests",
            "DRAM requests hitting the open row",
            d.row_hits,
        ),
        (
            "dram.row_misses",
            "requests",
            "DRAM requests missing the open row",
            d.row_misses,
        ),
        (
            "dram.queue_cycles",
            "cycles",
            "total cycles DRAM requests queued on busy banks/buses",
            d.queue_cycles,
        ),
        (
            "cpu.stall.rob_cycles",
            "cycles",
            "stall cycles from the ROB window filling behind a load",
            stalls.rob,
        ),
        (
            "cpu.stall.mlp_cycles",
            "cycles",
            "stall cycles from the in-flight-load (MLP) limit",
            stalls.mlp,
        ),
        (
            "cpu.stall.dep_cycles",
            "cycles",
            "stall cycles exposed by dependent (serializing) loads",
            stalls.dep,
        ),
        (
            "cpu.stall.store_cycles",
            "cycles",
            "stall cycles waiting on a full store buffer",
            stalls.store,
        ),
        (
            "cpu.stall.drain_cycles",
            "cycles",
            "stall cycles draining in-flight loads at program end",
            stalls.drain,
        ),
        (
            "cpu.stall.branch_cycles",
            "cycles",
            "branch-misprediction penalty cycles (other_stall)",
            stalls.branch,
        ),
        (
            "stream.chunks",
            "chunks",
            "trace chunks pushed into the simulation engine",
            chunks,
        ),
        (
            "stream.chunk_events",
            "events",
            "events in the largest chunk pushed into the engine",
            widest,
        ),
        (
            "trace.events_recorded",
            "events",
            "events recorded into the ring buffer",
            recorder.events_recorded(),
        ),
        (
            "trace.events_dropped",
            "events",
            "events dropped by ring overflow",
            recorder.events_dropped(),
        ),
    ] {
        metrics.set_counter(name, unit, help, value);
    }
    if d.reads + d.writes > 0 {
        metrics.set_gauge(
            "dram.row_hit_rate",
            "fraction",
            "row-buffer hit rate",
            d.row_hit_rate(),
        );
    }
    // Every L2 set is a sample, including the sets that never evicted.
    let mut evictions = Histogram::new(vec![0, 1, 4, 16, 64, 256, 1024, 4096]);
    for set in 0..l2.set_accesses.len() {
        evictions.observe(l2_cache.set_evictions.get(set).copied().unwrap_or(0));
    }
    metrics.set_histogram(
        "cache.l2.evictions_per_set",
        "evictions",
        "distribution of eviction counts across L2 sets",
        evictions,
    );
    let mut lines = Histogram::new(vec![0, 1, 2, 3, 4, 6, 8]);
    for n in occupancy {
        lines.observe(n);
    }
    metrics.set_histogram(
        "cache.l2.occupancy_per_set",
        "lines",
        "end-of-run distribution of valid lines across L2 sets",
        lines,
    );

    ObservedRun {
        result,
        recorder,
        metrics,
    }
}

/// Runs `workload` under `scheme` observed and wraps it in a
/// [`RunReport`]: provenance and the full metric dump. Also returns the
/// recorder so callers can drain traced events.
#[must_use]
pub fn observed_report(
    workload: &Workload,
    scheme: Scheme,
    refs: u64,
    cfg: ObsConfig,
) -> (RunReport, Recorder) {
    let started = Instant::now();
    let ObservedRun {
        result,
        recorder,
        metrics,
    } = run_workload_observed(workload, scheme, refs, cfg);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let report = RunReport {
        provenance: Provenance {
            workload: workload.name.to_owned(),
            scheme: scheme.label().to_owned(),
            refs,
            // The bundled generators are deterministic functions of the
            // workload name; there is no RNG seed to record.
            seed: 0,
            config_hash: MachineConfig::paper_default().fingerprint(scheme),
            git_rev: primecache_obs::git_revision(Path::new("."))
                .unwrap_or_else(|| "unknown".to_owned()),
            wall_ms,
            sim_cycles: result.breakdown.total(),
        },
        metrics,
    };
    (report, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_workload;
    use primecache_workloads::by_name;

    #[test]
    fn observation_does_not_perturb_the_simulation() {
        let w = by_name("cg").unwrap();
        let plain = run_workload(w, Scheme::Xor, 15_000);
        let observed = run_workload_observed(
            w,
            Scheme::Xor,
            15_000,
            ObsConfig {
                trace_events: true,
                sample_every: 3,
                ..ObsConfig::default()
            },
        );
        assert_eq!(plain.breakdown, observed.result.breakdown);
        assert_eq!(plain.l2, observed.result.l2);
        assert_eq!(plain.dram, observed.result.dram);
    }

    #[test]
    fn report_mirrors_the_run_result_bit_exactly() {
        let w = by_name("tree").unwrap();
        let (report, _) = observed_report(w, Scheme::PrimeModulo, 10_000, ObsConfig::default());
        let rerun = run_workload(w, Scheme::PrimeModulo, 10_000);
        let m = &report.metrics;
        assert_eq!(m.counter("cache.l2.demand_misses"), Some(rerun.l2.misses));
        assert_eq!(
            m.counter("cache.l2.demand_accesses"),
            Some(rerun.l2.accesses)
        );
        assert_eq!(m.counter("cache.l1.hits"), Some(rerun.l1.hits));
        assert_eq!(report.provenance.sim_cycles, rerun.breakdown.total());
        assert_eq!(report.provenance.scheme, "pMod");
    }

    #[test]
    fn stall_metrics_partition_mem_stall() {
        let run = run_workload_observed(
            by_name("mcf").unwrap(),
            Scheme::Base,
            20_000,
            ObsConfig::default(),
        );
        let m = &run.metrics;
        let mem_sum = ["rob", "mlp", "dep", "store", "drain"]
            .iter()
            .map(|c| m.counter(&format!("cpu.stall.{c}_cycles")).unwrap())
            .sum::<u64>();
        assert_eq!(mem_sum, run.result.breakdown.mem_stall);
        assert_eq!(
            m.counter("cpu.stall.branch_cycles").unwrap(),
            run.result.breakdown.other_stall
        );
    }

    #[test]
    fn evictions_per_set_samples_every_l2_set() {
        for name in ["tree", "cg"] {
            let w = by_name(name).unwrap();
            for scheme in [
                Scheme::Base,
                Scheme::Xor,
                Scheme::PrimeModulo,
                Scheme::FullyAssociative,
            ] {
                let run = run_workload_observed(w, scheme, 20_000, ObsConfig::default());
                let ctx = format!("{name}/{}", scheme.label());
                let hist = run
                    .metrics
                    .histogram("cache.l2.evictions_per_set")
                    .unwrap_or_else(|| panic!("{ctx}: histogram missing"));
                assert_eq!(
                    hist.count(),
                    run.result.l2.set_accesses.len() as u64,
                    "{ctx}"
                );
                assert_eq!(
                    Some(hist.sum()),
                    run.metrics.counter("cache.l2.evictions"),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn tracing_records_timestamped_events() {
        let (report, recorder) = observed_report(
            by_name("tree").unwrap(),
            Scheme::PrimeModulo,
            5_000,
            ObsConfig {
                trace_events: true,
                ..ObsConfig::default()
            },
        );
        let recorded = report.metrics.counter("trace.events_recorded");
        assert!(recorded > Some(0));
        assert_eq!(recorded, Some(recorder.events_recorded()));
        assert_eq!(report.metrics.counter("trace.events_dropped"), Some(0));
        // Timestamps are monotone within the buffered window.
        let times: Vec<u64> = recorder.events().map(|e| e.t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
