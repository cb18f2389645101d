//! External-ingestion differential battery.
//!
//! Two families of invariants:
//!
//! * **Importer equivalence** — exporting a recorded trace to the
//!   TRACE_FORMAT.md text grammar and importing it back must reproduce
//!   the recorded `PCTE` frame *byte-for-byte* (same fingerprint), and
//!   simulating the import must match the direct recorded run on every
//!   aggregate, including the exact observability counters. Malformed
//!   inputs — truncated frames, bad tag bytes, overlong lines — must
//!   all come back as errors, never panics.
//! * **Tenant equivalence** — a single-tenant "mix" is the plain trace
//!   (tenant 0's namespace tag is the identity), so the interleaved
//!   driver must be bit-identical to `run_recorded`; with several
//!   tenants, the per-tenant attributed statistics must sum to the
//!   aggregate run field-for-field.

use primecache::ingest::{import_bytes, text::write_text, ImportError, SourceFormat};
use primecache::obs::ObsConfig;
use primecache::sim::observe::observe_chunks;
use primecache::sim::{
    run_chunks, run_recorded, run_tenant_mix, tenant_solo_baseline, MachineConfig, Scheme,
};
use primecache::trace::{EncodedTrace, TraceCodecError};
use primecache::workloads::{by_name, MixConfig, TenantMix, STREAM_CHUNK};

const APPS: [&str; 3] = ["tree", "mcf", "swim"];
const REFS: u64 = 2_500;

fn recorded(app: &str) -> EncodedTrace {
    by_name(app).expect("battery workload exists").record(REFS)
}

/// Text export of a recording re-imports to the identical frame, and
/// the import simulates identically to the recording, for every battery
/// workload and a scheme from each L2 family.
#[test]
fn text_import_matches_the_recorded_run() {
    let machine = MachineConfig::paper_default();
    for app in APPS {
        let trace = recorded(app);
        let mut text = Vec::new();
        write_text(
            trace.decode_all().expect("fresh recording decodes"),
            &mut text,
        )
        .expect("Vec<u8> write");
        let imported = import_bytes(&text).expect("canonical text imports");

        assert_eq!(imported.stats.format, SourceFormat::Text, "{app}");
        assert_eq!(
            imported.trace.to_bytes(),
            trace.to_bytes(),
            "{app}: frame bytes"
        );
        assert_eq!(
            imported.trace.fingerprint(),
            trace.fingerprint(),
            "{app}: fingerprint"
        );
        assert_eq!(imported.stats.refs(), trace.refs(), "{app}: refs");

        for scheme in [Scheme::Base, Scheme::PrimeModulo, Scheme::Skewed] {
            let direct = run_recorded(&trace, scheme, &machine);
            let via_import = run_chunks(imported.chunks(), scheme, &machine);
            assert_eq!(via_import.breakdown, direct.breakdown, "{app}/{scheme}");
            assert_eq!(via_import.l1, direct.l1, "{app}/{scheme}: L1");
            assert_eq!(via_import.l2, direct.l2, "{app}/{scheme}: L2");
            assert_eq!(via_import.dram, direct.dram, "{app}/{scheme}: DRAM");
        }
    }
}

/// The PCTE reader is the identity on its own output, and a frame is
/// fully validated before any simulation sees it.
#[test]
fn pcte_import_is_the_identity() {
    for app in APPS {
        let trace = recorded(app);
        let imported = import_bytes(&trace.to_bytes()).expect("own frame imports");
        assert_eq!(imported.stats.format, SourceFormat::Pcte, "{app}");
        assert_eq!(imported.trace, trace, "{app}: decoded frame");
    }
}

/// The whole metric dump — not just aggregates — agrees between the
/// direct replay and the imported trace.
#[test]
fn import_preserves_obs_counters() {
    let trace = recorded("tree");
    let mut text = Vec::new();
    write_text(trace.decode_all().expect("decodes"), &mut text).expect("Vec<u8> write");
    let imported = import_bytes(&text).expect("imports");

    let direct = observe_chunks(trace.replay(), Scheme::PrimeModulo, ObsConfig::default());
    let via = observe_chunks(imported.chunks(), Scheme::PrimeModulo, ObsConfig::default());
    assert_eq!(via.metrics, direct.metrics, "metric dump");
    assert_eq!(via.result.l2, direct.result.l2, "L2 stats");
}

/// Every malformed-input class returns an error; none may panic.
#[test]
fn malformed_inputs_error_cleanly() {
    let trace = recorded("swim");
    let frame = trace.to_bytes();

    // Truncations at every prefix length of a real frame (varints and
    // chunk headers get cut mid-field).
    for len in 0..frame.len().min(64) {
        let r = import_bytes(&frame[..len]);
        if len >= 4 && frame.len() > 64 {
            assert!(r.is_err(), "truncated frame (len {len}) must not validate");
        }
    }
    // A corrupted event tag inside the first chunk payload reports a
    // byte offset, not a panic.
    let mut bad_tag = frame.clone();
    bad_tag[48] = 0x07;
    match import_bytes(&bad_tag) {
        Err(ImportError::Frame(e)) => assert!(e.offset >= 48, "offset {} < payload", e.offset),
        other => panic!("bad tag byte must fail as a frame error, got {other:?}"),
    }
    // Trailing garbage after a valid frame.
    let mut long = frame.clone();
    long.extend_from_slice(b"tail");
    assert!(import_bytes(&long).is_err(), "trailing bytes must fail");
    // A 49-byte frame whose one chunk declares u32::MAX events over a
    // 1-byte payload (one `Work(1)`) fails as truncated; the declared
    // count must not size an allocation.
    let mut hostile = b"PCTE\x01\0\0\0".to_vec();
    hostile.extend_from_slice(&u64::from(u32::MAX).to_le_bytes()); // events
    hostile.extend_from_slice(&0u64.to_le_bytes()); // refs
    hostile.extend_from_slice(&1u32.to_le_bytes()); // chunk_events
    hostile.extend_from_slice(&1u32.to_le_bytes()); // chunk count
    hostile.extend_from_slice(&u32::MAX.to_le_bytes()); // chunk events
    hostile.extend_from_slice(&0u64.to_le_bytes()); // base_addr
    hostile.extend_from_slice(&1u32.to_le_bytes()); // payload len
    hostile.push(0x10);
    assert_eq!(hostile.len(), 49);
    match import_bytes(&hostile) {
        Err(ImportError::Frame(e)) => {
            assert_eq!((e.offset, e.error), (49, TraceCodecError::Truncated));
        }
        other => panic!("hostile event count must fail as truncated, got {other:?}"),
    }

    // Text error classes: overlong line, bad address, bad count,
    // unknown tag, trailing field, non-UTF-8.
    let overlong = format!("L {}\n", "f".repeat(8192));
    for bad in [
        overlong.as_str(),
        "L zzz\n",
        "W -3\n",
        "Q 123\n",
        "S 40 d\n",
        "L\n",
    ] {
        let r = import_bytes(bad.as_bytes());
        assert!(
            matches!(r, Err(ImportError::Text(_))),
            "'{bad}' must fail as text"
        );
    }
    assert!(
        matches!(import_bytes(b"L \xff\xfe\n"), Err(ImportError::Text(_))),
        "non-UTF-8 must fail as text"
    );
}

/// A one-tenant mix is the plain trace: the interleaved driver must be
/// bit-identical to `run_recorded` on every aggregate.
#[test]
fn single_tenant_mix_is_bit_identical_to_the_plain_driver() {
    let machine = MachineConfig::paper_default();
    for app in APPS {
        let trace = recorded(app);
        let mix = TenantMix::with_defaults(vec![(app.to_owned(), trace.clone())]);
        for scheme in [Scheme::Base, Scheme::PrimeDisplacement] {
            let plain = run_recorded(&trace, scheme, &machine);
            let tenant = run_tenant_mix(&mix, scheme, &machine);
            assert_eq!(
                tenant.aggregate.breakdown, plain.breakdown,
                "{app}/{scheme}"
            );
            assert_eq!(tenant.aggregate.l1, plain.l1, "{app}/{scheme}: L1");
            assert_eq!(tenant.aggregate.l2, plain.l2, "{app}/{scheme}: L2");
            assert_eq!(tenant.aggregate.dram, plain.dram, "{app}/{scheme}: DRAM");
            assert_eq!(
                tenant.lanes[0].l2, plain.l2,
                "{app}/{scheme}: lane attribution"
            );
            let (solo_l1, solo_l2) = tenant_solo_baseline(&mix, 0, scheme, &machine);
            assert_eq!(solo_l1, plain.l1, "{app}/{scheme}: solo L1");
            assert_eq!(solo_l2, plain.l2, "{app}/{scheme}: solo L2");
        }
    }
}

/// With several tenants the per-lane attribution partitions the
/// aggregate exactly, and the schedule is deterministic.
#[test]
fn tenant_lanes_partition_the_aggregate() {
    let machine = MachineConfig::paper_default();
    let tenants: Vec<(String, EncodedTrace)> = APPS
        .iter()
        .map(|app| ((*app).to_owned(), recorded(app)))
        .collect();
    let mix = TenantMix::new(
        tenants,
        MixConfig {
            quantum_instructions: 900,
            ..MixConfig::default()
        },
    );
    let run = run_tenant_mix(&mix, Scheme::PrimeModulo, &machine);
    let again = run_tenant_mix(&mix, Scheme::PrimeModulo, &machine);
    assert_eq!(run.mix, again.mix, "deterministic schedule");

    let mut l1_accesses = 0u64;
    let mut l2_misses = 0u64;
    let mut l2_writebacks = 0u64;
    for lane in &run.lanes {
        l1_accesses += lane.l1.accesses;
        l2_misses += lane.l2.misses;
        l2_writebacks += lane.l2.writebacks;
        assert_eq!(lane.l1.accesses, lane.refs, "lane refs are its L1 accesses");
    }
    assert_eq!(
        l1_accesses, run.aggregate.l1.accesses,
        "L1 access partition"
    );
    assert_eq!(l2_misses, run.aggregate.l2.misses, "L2 miss partition");
    assert_eq!(
        l2_writebacks, run.aggregate.l2.writebacks,
        "writeback partition"
    );
    assert!(run.mix.switches > 0, "three tenants must interleave");
    assert_eq!(
        run.mix.ns_overflows, 0,
        "workload addresses fit the namespace"
    );
}

/// Imported traces and recorded traces are interchangeable as tenants:
/// importing a tenant's text export changes nothing about the mix.
#[test]
fn imported_tenants_equal_recorded_tenants() {
    let machine = MachineConfig::paper_default();
    let a = recorded("tree");
    let b = recorded("swim");
    let mut text = Vec::new();
    write_text(b.decode_all().expect("decodes"), &mut text).expect("Vec<u8> write");
    let b_imported = import_bytes(&text).expect("imports").trace;

    let native =
        TenantMix::with_defaults(vec![("tree".to_owned(), a.clone()), ("swim".to_owned(), b)]);
    let via_import = TenantMix::with_defaults(vec![
        ("tree".to_owned(), a),
        ("swim".to_owned(), b_imported),
    ]);
    let r1 = run_tenant_mix(&native, Scheme::Base, &machine);
    let r2 = run_tenant_mix(&via_import, Scheme::Base, &machine);
    assert_eq!(r1.aggregate.l2, r2.aggregate.l2);
    assert_eq!(r1.mix, r2.mix);
    for (x, y) in r1.lanes.iter().zip(&r2.lanes) {
        assert_eq!(x.l2, y.l2, "lane {}", x.name);
    }
}

/// The re-encode cadence is pinned: text import cuts chunks exactly at
/// the recording cadence, which is what makes round trips byte-exact.
#[test]
fn import_uses_the_recording_chunk_cadence() {
    let imported = import_bytes(b"L 0x40\nS 0x80\n").expect("imports");
    assert_eq!(imported.trace.chunk_events(), STREAM_CHUNK);
}
