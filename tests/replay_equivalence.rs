//! Recorded-replay-vs-live differential battery.
//!
//! Recorded traces and the sweep's shared inputs (each workload's events
//! and its L1's outcomes, built in one pass and replayed into every
//! scheme's cell) must be *bit-identical* to live generation: the same
//! event sequence, the same chunk cadence, the same simulation results
//! for every workload and every scheme, the same observability
//! counters. This battery pins that equivalence so a future codec or
//! recording change that drops, reorders, or corrupts a single event or
//! L1 outcome fails loudly here instead of silently skewing the paper's
//! figures.
//!
//! The `REPLAY_REFS` environment variable scales the per-workload
//! reference count (default 2 500) so CI can run a fast smoke pass
//! (`ci/replay_smoke.sh`) without a separate test body.

use primecache::obs::ObsConfig;
use primecache::sim::observe::{observe_chunks, run_workload_observed};
use primecache::sim::suite::run_sweep;
use primecache::sim::{run_recorded, run_trace, run_workload, MachineConfig, Scheme};
use primecache::trace::{EncodedTrace, Event};
use primecache::workloads::{all, STREAM_CHUNK};

/// References per workload; override with `REPLAY_REFS=N`.
fn replay_refs() -> u64 {
    std::env::var("REPLAY_REFS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_500)
}

/// Every aggregate a run produces must agree between live and replay.
fn assert_results_equal(
    replayed: &primecache::sim::RunResult,
    live: &primecache::sim::RunResult,
    ctx: &str,
) {
    assert_eq!(replayed.breakdown, live.breakdown, "breakdown {ctx}");
    assert_eq!(replayed.l1, live.l1, "L1 stats {ctx}");
    assert_eq!(replayed.l2, live.l2, "L2 stats {ctx}");
    assert_eq!(replayed.dram, live.dram, "DRAM stats {ctx}");
}

#[test]
fn encoded_replay_reproduces_every_live_stream() {
    let refs = replay_refs();
    for w in all() {
        // The live path: the generator hands each chunk to its consumer
        // on this thread. Chunks never exceed STREAM_CHUNK events and
        // concatenate to the materialized trace.
        let mut live: Vec<Event> = Vec::new();
        w.push_chunks(refs, &mut |chunk| {
            assert!(
                chunk.len() <= STREAM_CHUNK,
                "{}: {}-event chunk",
                w.name,
                chunk.len()
            );
            live.extend_from_slice(chunk);
        });
        assert_eq!(live, w.trace(refs), "{}: chunks differ from trace", w.name);
        let trace = w.record(refs);
        let replayed: Vec<Event> = trace.replay().collect();
        assert_eq!(
            replayed, live,
            "{}: replay diverged from live stream",
            w.name
        );
        // The compact encoding actually is compact: well under the raw
        // 16-byte in-memory representation.
        assert!(
            trace.bytes_per_event() < 5.0,
            "{}: {:.2} bytes/event",
            w.name,
            trace.bytes_per_event()
        );
    }
}

#[test]
fn replayed_runs_match_live_on_all_workloads_and_schemes() {
    let refs = replay_refs();
    for w in all() {
        let trace = w.record(refs);
        let decoded: Vec<Event> = trace.replay().collect();
        for &scheme in &Scheme::ALL {
            let live = run_workload(w, scheme, refs);
            let ctx = format!("{}/{}", w.name, scheme.label());
            // One record replayed for every scheme — the sweep's actual
            // shape.
            let replayed = run_recorded(&trace, scheme, &MachineConfig::paper_default());
            assert_results_equal(&replayed, &live, &ctx);
            // The bench's decode-once-per-workload shape drives the
            // slice driver straight off the materialized buffer; that
            // path must be bit-identical too.
            let from_slice = run_trace(
                decoded.iter().copied(),
                scheme,
                &MachineConfig::paper_default(),
            );
            assert_results_equal(&from_slice, &live, &format!("{ctx} (materialized)"));
        }
    }
}

#[test]
fn replay_preserves_observability_counters_and_stream_parity() {
    let refs = replay_refs();
    for name in ["tree", "mcf", "swim"] {
        let w = primecache::workloads::by_name(name).unwrap();
        let live = run_workload_observed(w, Scheme::PrimeModulo, refs, ObsConfig::default());
        let replayed = observe_chunks(
            w.record(refs).replay(),
            Scheme::PrimeModulo,
            ObsConfig::default(),
        );
        assert_results_equal(&replayed.result, &live.result, name);
        // The whole metric dump, not just aggregates: the eviction
        // counts and histograms, and the live chunk cadence.
        assert_eq!(live.metrics, replayed.metrics, "{name}");
    }
}

#[test]
fn sweep_cells_match_live_on_all_workloads_and_schemes() {
    // Every sweep cell replays its workload's shared events and L1
    // outcomes into the scheme's L2; each must equal the live run, L1
    // included.
    let refs = replay_refs();
    let pmod = primecache::core::expr::register_anonymous("a % 2039").expect("valid expression");
    let schemes: Vec<Scheme> = Scheme::ALL
        .into_iter()
        .chain([Scheme::Expr(pmod)])
        .collect();
    let sweep = run_sweep(&schemes, refs);
    let shared = sweep
        .shared
        .expect("the sweep shares its workloads' inputs");
    assert_eq!(shared.prepared, all().len() as u64);
    for w in all() {
        for &scheme in &schemes {
            let ctx = format!("{}/{} (sweep)", w.name, scheme.label());
            let cell = sweep.get(w.name, scheme).expect("cell present");
            assert_results_equal(&cell.result, &run_workload(w, scheme, refs), &ctx);
        }
    }
}

#[test]
fn on_disk_framing_round_trips_a_recorded_workload() {
    let refs = replay_refs();
    let w = primecache::workloads::by_name("equake").unwrap();
    let trace = w.record(refs);
    let bytes = trace.to_bytes();
    let back = EncodedTrace::from_bytes(&bytes).expect("framed trace validates");
    assert_eq!(back.events(), trace.events());
    assert_eq!(back.refs(), trace.refs());
    assert_eq!(back.chunk_events(), trace.chunk_events());
    let original: Vec<Event> = trace.replay().collect();
    let reloaded: Vec<Event> = back.replay().collect();
    assert_eq!(reloaded, original, "framing must be lossless");
    // Corruption is rejected, not misdecoded.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(
        EncodedTrace::from_bytes(&bad).is_err(),
        "bad magic accepted"
    );
    assert!(
        EncodedTrace::from_bytes(&bytes[..bytes.len() - 1]).is_err(),
        "truncated frame accepted"
    );
}
