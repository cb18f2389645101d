//! Pins what an observed run emits: the metric dump and the full traced
//! event stream of a few runs must fingerprint (FNV-1a over their
//! compact JSON) exactly as blessed below. The runs cover the three L2
//! organizations, and all but the pMod one evict from the L2 at this
//! scale (lu's L2 victims are all dirty), so clean and dirty evictions
//! at both levels reach the metrics and the events. The other
//! observability tests check that metrics agree with the run's
//! statistics; this one also fails when a metric, an event, or the
//! order of the events changes.

use primecache_obs::{fnv1a_64, ObsConfig};
use primecache_sim::observe::run_workload_observed;
use primecache_sim::Scheme;
use primecache_workloads::by_name;

/// References each run simulates.
const REFS: u64 = 20_000;

/// `(workload, scheme, metrics fingerprint, events fingerprint, events)`.
type Pin = (&'static str, &'static str, u64, u64, u64);

/// The blessed fingerprints.
const BLESSED: [Pin; 4] = [
    (
        "tree",
        "pMod",
        0x46b1a0d432b547c7,
        0xe835006c1349b39a,
        57817,
    ),
    ("mcf", "SKW", 0x109e51f0c6b66210, 0xdabc2f83397b9127, 74913),
    ("gap", "FA", 0x983bfab73fdc6769, 0xc157669ef2dbf913, 63330),
    ("lu", "Base", 0x2bd705affa699912, 0x6b0e1b1add5fd9ee, 53448),
];

/// The run behind one pin.
fn observe(workload: &'static str, scheme: &'static str) -> Pin {
    let scheme_of = Scheme::ALL
        .into_iter()
        .find(|s| s.label() == scheme)
        .expect("a shipped scheme");
    let run = run_workload_observed(
        by_name(workload).expect("a bundled workload"),
        scheme_of,
        REFS,
        ObsConfig {
            trace_events: true,
            ring_capacity: 1 << 20,
            sample_every: 1,
        },
    );
    assert_eq!(run.recorder.events_dropped(), 0, "{workload}/{scheme}");
    let mut events = String::new();
    for ev in run.recorder.events() {
        events.push_str(&ev.to_json().render());
        events.push('\n');
    }
    (
        workload,
        scheme,
        fnv1a_64(run.metrics.to_json().render().as_bytes()),
        fnv1a_64(events.as_bytes()),
        run.recorder.events_recorded(),
    )
}

#[test]
fn observed_runs_match_their_blessed_fingerprints() {
    let observed: Vec<Pin> = BLESSED.iter().map(|p| observe(p.0, p.1)).collect();
    if observed != BLESSED {
        let moved: Vec<String> = observed
            .iter()
            .zip(&BLESSED)
            .filter(|(got, want)| got != want)
            .map(|(got, _)| format!("{}/{}", got.0, got.1))
            .collect();
        let table: String = observed
            .iter()
            .map(|(w, s, m, e, n)| format!("    (\"{w}\", \"{s}\", {m:#018x}, {e:#018x}, {n}),\n"))
            .collect();
        panic!(
            "what the observed runs {moved:?} emit changed at {REFS} refs.\n\
             If a metric, an event or their order was changed on purpose, re-bless \
             by replacing BLESSED in this file with the table below, and say in \
             CHANGES.md what changed and why (reports and traces read by other \
             tools change with it).\n{table}"
        );
    }
}
