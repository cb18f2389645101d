//! Instrumented run drivers (cargo feature `obs`).
//!
//! [`run_workload_observed`] is [`crate::run_workload`] with a
//! `primecache_obs` recorder attached to every model of the run's
//! engine: the hierarchy reports demand accesses, each cache its
//! evictions, the DRAM its requests, and the CPU feeds the sim-time
//! clock. On top of the hot counters, the harvested [`Metrics`] carry
//! the per-cause stall attribution (the Fig. 8 stack, subdivided), the
//! chunks the engine was pushed, and the end-of-run L2 occupancy
//! histogram.
//!
//! [`run_workload_observed_replayed`] is the same instrumented run fed
//! from a recorded trace instead of a live generator: the workload is
//! recorded once into a [`TraceStore`] and simulated from a replay
//! cursor, with `trace_store.*` metrics describing the store and the
//! `stream.*` metrics showing the live chunk cadence.

use std::rc::Rc;
use std::time::Instant;

use primecache_obs::{Histogram, Metrics, ObsConfig, Recorder, RunReport};
use primecache_trace::Event;
use primecache_workloads::{EventChunks, TraceStore, Workload};

use crate::run::dispatch;
use crate::{artifact, MachineConfig, RunResult, Scheme};

/// Everything an instrumented run produces.
#[derive(Debug)]
pub struct ObservedRun {
    /// The plain run result (identical to the uninstrumented driver's).
    pub result: RunResult,
    /// The recorder, holding exact counters and any buffered events.
    pub recorder: Recorder,
    /// Full named-metric dump: the recorder's counters plus the
    /// CPU/chunk/occupancy supplements collected here.
    pub metrics: Metrics,
}

/// Runs `workload` under `scheme` with observability attached.
///
/// Counters are exact regardless of `cfg` (sampling only thins traced
/// `access` events), so `recorder.hot` matches the `stats.rs` aggregates
/// in `result` bit-exactly — an invariant the `obs_layer` integration
/// test pins.
#[must_use]
pub fn run_workload_observed(
    workload: &Workload,
    scheme: Scheme,
    target_refs: u64,
    cfg: ObsConfig,
) -> ObservedRun {
    observe(scheme, cfg, |push| workload.push_chunks(target_refs, push))
}

/// [`run_workload_observed`] fed from a recorded trace: `workload` is
/// recorded once into a single-entry [`TraceStore`] and the simulation
/// consumes a replay cursor. Results are bit-identical to the live run;
/// the metrics additionally carry `trace_store.records`,
/// `trace_store.replays`, and `trace_store.encoded_bytes`, and the
/// `stream.*` family shows the same chunk cadence as the live run.
#[must_use]
pub fn run_workload_observed_replayed(
    workload: &Workload,
    scheme: Scheme,
    target_refs: u64,
    cfg: ObsConfig,
) -> ObservedRun {
    let store = TraceStore::record_all(std::slice::from_ref(workload), target_refs);
    let cursor = store.replay(workload.name).expect("workload just recorded");
    let mut run = observe_chunks(cursor, scheme, cfg);
    let st = store.stats();
    run.metrics.set_counter(
        "trace_store.records",
        "traces",
        "workload traces recorded into the store (one generation each)",
        st.records,
    );
    run.metrics.set_counter(
        "trace_store.replays",
        "cursors",
        "replay cursors served from the store",
        st.replays,
    );
    run.metrics.set_counter(
        "trace_store.encoded_bytes",
        "bytes",
        "compact encoded size of all recorded traces",
        st.encoded_bytes,
    );
    run
}

/// Runs any [`EventChunks`] source with observability attached — the
/// instrumented sibling of [`crate::run_chunks`], so imported traces
/// ([`primecache_ingest`](https://docs.rs/primecache-ingest)'s cursors)
/// and multi-tenant mixes get the same exact counters as native
/// workloads.
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
    let (mut chunks, mut widest) = (0u64, 0usize);
    feed(&mut |chunk| {
        chunks += 1;
        widest = widest.max(chunk.len());
        engine.push(chunk);
    });
    let result = engine.finish();
    let stalls = engine.last_stall_attribution();
    let occupancy = engine.l2_occupancy();
    drop(engine);
    let recorder = Rc::try_unwrap(handle)
        .expect("all instrumented owners dropped")
        .into_inner();

    let mut metrics = recorder.metrics();
    let cycles = |m: &mut Metrics, name: &str, help: &str, v: u64| {
        m.set_counter(name, "cycles", help, v);
    };
    cycles(
        &mut metrics,
        "cpu.stall.rob_cycles",
        "stall cycles from the ROB window filling behind a load",
        stalls.rob,
    );
    cycles(
        &mut metrics,
        "cpu.stall.mlp_cycles",
        "stall cycles from the in-flight-load (MLP) limit",
        stalls.mlp,
    );
    cycles(
        &mut metrics,
        "cpu.stall.dep_cycles",
        "stall cycles exposed by dependent (serializing) loads",
        stalls.dep,
    );
    cycles(
        &mut metrics,
        "cpu.stall.store_cycles",
        "stall cycles waiting on a full store buffer",
        stalls.store,
    );
    cycles(
        &mut metrics,
        "cpu.stall.drain_cycles",
        "stall cycles draining in-flight loads at program end",
        stalls.drain,
    );
    cycles(
        &mut metrics,
        "cpu.stall.branch_cycles",
        "branch-misprediction penalty cycles (other_stall)",
        stalls.branch,
    );
    metrics.set_counter(
        "stream.chunks",
        "chunks",
        "trace chunks pushed into the simulation engine",
        chunks,
    );
    metrics.set_counter(
        "stream.chunk_events",
        "events",
        "events in the largest chunk pushed into the engine",
        widest as u64,
    );
    let mut hist = Histogram::new(vec![0, 1, 2, 3, 4, 6, 8]);
    for n in occupancy {
        hist.observe(n);
    }
    metrics.set_histogram(
        "cache.l2.occupancy_per_set",
        "lines",
        "end-of-run distribution of valid lines across L2 sets",
        hist,
    );

    ObservedRun {
        result,
        recorder,
        metrics,
    }
}

/// Runs an instrumented simulation and wraps it in a [`RunReport`]
/// carrying the full metric dump; also returns the recorder so callers
/// can drain traced events.
#[must_use]
pub fn observed_report(
    workload: &Workload,
    scheme: Scheme,
    refs: u64,
    cfg: ObsConfig,
) -> (RunReport, Recorder) {
    let started = Instant::now();
    let run = run_workload_observed(workload, scheme, refs, cfg);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let report = artifact::build_report(
        &run.result,
        &MachineConfig::paper_default(),
        workload.name,
        refs,
        wall_ms,
        run.metrics,
        run.recorder.events_recorded(),
        run.recorder.events_dropped(),
    );
    (report, run.recorder)
}

/// [`observed_report`] on the record-then-replay path: the wall-clock
/// covers recording plus the replayed simulation, and the metric dump
/// includes the `trace_store.*` family.
#[must_use]
pub fn observed_report_replayed(
    workload: &Workload,
    scheme: Scheme,
    refs: u64,
    cfg: ObsConfig,
) -> (RunReport, Recorder) {
    let started = Instant::now();
    let run = run_workload_observed_replayed(workload, scheme, refs, cfg);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let report = artifact::build_report(
        &run.result,
        &MachineConfig::paper_default(),
        workload.name,
        refs,
        wall_ms,
        run.metrics,
        run.recorder.events_recorded(),
        run.recorder.events_dropped(),
    );
    (report, run.recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_workload;
    use primecache_workloads::by_name;

    #[test]
    fn observed_counters_match_stats_bit_exactly() {
        for name in ["tree", "swim", "mcf"] {
            let w = by_name(name).unwrap();
            let run = run_workload_observed(w, Scheme::PrimeModulo, 20_000, ObsConfig::default());
            let h = &run.recorder.hot;
            assert_eq!(h.l1_accesses, run.result.l1.accesses, "{name}");
            assert_eq!(h.l1_hits, run.result.l1.hits, "{name}");
            assert_eq!(h.l1_misses, run.result.l1.misses, "{name}");
            assert_eq!(h.l1_writes, run.result.l1.writes, "{name}");
            assert_eq!(h.l2_accesses, run.result.l2.accesses, "{name}");
            assert_eq!(h.l2_hits, run.result.l2.hits, "{name}");
            assert_eq!(h.l2_misses, run.result.l2.misses, "{name}");
            assert_eq!(h.l2_writes, run.result.l2.writes, "{name}");
            assert_eq!(h.dram_reads, run.result.dram.reads, "{name}");
            assert_eq!(h.dram_writes, run.result.dram.writes, "{name}");
            assert_eq!(h.dram_row_hits, run.result.dram.row_hits, "{name}");
            assert_eq!(h.dram_queue_cycles, run.result.dram.queue_cycles, "{name}");
        }
    }

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
    fn replayed_observation_matches_live_and_reports_the_store() {
        let w = by_name("mcf").unwrap();
        let live = run_workload_observed(w, Scheme::PrimeModulo, 12_000, ObsConfig::default());
        let replayed =
            run_workload_observed_replayed(w, Scheme::PrimeModulo, 12_000, ObsConfig::default());
        // Bit-identical simulation: breakdown, both cache levels, DRAM.
        assert_eq!(live.result.breakdown, replayed.result.breakdown);
        assert_eq!(live.result.l1, replayed.result.l1);
        assert_eq!(live.result.l2, replayed.result.l2);
        assert_eq!(live.result.dram, replayed.result.dram);
        // The store counters describe one record serving one replay.
        let m = &replayed.metrics;
        assert_eq!(m.counter("trace_store.records"), Some(1));
        assert_eq!(m.counter("trace_store.replays"), Some(1));
        assert!(m.counter("trace_store.encoded_bytes").unwrap() > 0);
        assert!(live.metrics.counter("trace_store.records").is_none());
        // Replay chunk parity: same chunk cadence as the live generator.
        assert_eq!(
            m.counter("stream.chunks"),
            live.metrics.counter("stream.chunks")
        );
        assert_eq!(
            m.counter("stream.chunk_events"),
            live.metrics.counter("stream.chunk_events")
        );
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
        assert!(report.events_recorded > 0);
        assert_eq!(
            report.metrics.counter("cache.l2.demand_misses"),
            Some(report.l2.misses)
        );
        // Timestamps are monotone within the buffered window.
        let times: Vec<u64> = recorder.events().map(|e| e.t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
