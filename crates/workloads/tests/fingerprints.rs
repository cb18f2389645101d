//! Pins the recorded frame of every workload: each of the 23 generators
//! recorded at [`REFS`] references must fingerprint
//! (`EncodedTrace::fingerprint`, an FNV-1a hash of the PCTE frame)
//! exactly as blessed below. The other tests only check that a
//! recording agrees with its own chunk push and its text re-import, so
//! a change that altered what every path emits, or the chunk cadence,
//! would pass them; this one fails.

use primecache_workloads::all;

/// References each workload records.
const REFS: u64 = 20_000;

/// The blessed fingerprints, in registry order.
const BLESSED: [(&str, u64); 23] = [
    ("bzip2", 0xc8ea0e9e412b3f57),
    ("gap", 0x4734728ada936f4e),
    ("mcf", 0xf75b741ee39bf86d),
    ("parser", 0xd8af8d158a292fd0),
    ("applu", 0xc96f75f638b953c1),
    ("mgrid", 0x820148c4d630187e),
    ("swim", 0x8f7d1336280a9916),
    ("equake", 0x36fd155fe90da497),
    ("tomcatv", 0x7d9e5db3d13b5b5e),
    ("mst", 0x800a44c713f904c8),
    ("bt", 0xa8c75b98e0a9cfd6),
    ("ft", 0x170c1d70e229c57a),
    ("lu", 0x704f6b18328c16d7),
    ("is", 0x6389d0548880bb56),
    ("sp", 0xc225753eb998a948),
    ("cg", 0x2373f70b7d5a2753),
    ("sparse", 0x7a265c6ca494c4dc),
    ("tree", 0xf8894f60e63d411c),
    ("irr", 0xc75cd60249789a27),
    ("charmm", 0x3a457ae70218ea22),
    ("moldyn", 0xb6dea523429cd67c),
    ("nbf", 0x40d98181fa77dbe8),
    ("euler", 0x98c4d11eba4cbe5c),
];

#[test]
fn recorded_frames_match_their_blessed_fingerprints() {
    let recorded: Vec<(&str, u64)> = all()
        .iter()
        .map(|w| (w.name, w.record(REFS).fingerprint()))
        .collect();
    if recorded != BLESSED {
        let moved: Vec<&str> = recorded
            .iter()
            .zip(&BLESSED)
            .filter(|(got, want)| got != want)
            .map(|(got, _)| got.0)
            .collect();
        let table: String = recorded
            .iter()
            .map(|(name, fp)| format!("    (\"{name}\", {fp:#018x}),\n"))
            .collect();
        panic!(
            "the recorded frames of {moved:?} changed at {REFS} refs.\n\
             If a generator or the trace format was changed on purpose, re-bless \
             by replacing BLESSED in this file with the table below, and say in \
             CHANGES.md which generators changed and why (every simulated number \
             downstream moves with them).\n{table}"
        );
    }
}
