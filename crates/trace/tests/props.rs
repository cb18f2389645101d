//! Property-based tests of the `PCTE` trace codec and the generators.

use primecache_check::prop::{forall, Rng, Shrink};
use primecache_trace::{strided, EncodedTrace, Event, TraceStats};

/// Event wrapper so randomized traces can shrink (toward dropping events).
#[derive(Debug, Clone)]
struct Ev(Event);

impl Shrink for Ev {
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

fn arb_event(rng: &mut Rng) -> Ev {
    Ev(match rng.range_u32(0, 5) {
        0 => Event::Work(rng.next_u64() as u32),
        1 => Event::FpWork(rng.next_u64() as u32),
        2 => Event::Branch {
            mispredict: rng.bool(),
        },
        3 => Event::Load {
            addr: rng.next_u64(),
            dep: rng.bool(),
        },
        _ => Event::Store {
            addr: rng.next_u64(),
        },
    })
}

fn events_of(evs: &[Ev]) -> Vec<Event> {
    evs.iter().map(|e| e.0).collect()
}

/// The serialized `PCTE` frame of `evs`, cut into chunks of 7 events so
/// a frame of a few dozen events spans several chunks.
fn frame_of(evs: &[Ev]) -> Vec<u8> {
    EncodedTrace::encode(&events_of(evs), 7).to_bytes()
}

#[test]
fn codec_roundtrips() {
    forall(
        "codec_roundtrips",
        256,
        |rng| rng.vec(0, 500, arb_event),
        |evs: &Vec<Ev>| {
            let frame = EncodedTrace::from_bytes(&frame_of(evs)).unwrap();
            assert_eq!(frame.decode_all().unwrap(), events_of(evs));
        },
    );
}

#[test]
fn truncated_streams_never_panic() {
    forall(
        "truncated_streams_never_panic",
        256,
        |rng| (rng.vec(1, 50, arb_event), rng.f64()),
        |&(ref evs, cut_fraction)| {
            let bytes = frame_of(evs);
            let cut = (bytes.len() as f64 * cut_fraction.clamp(0.0, 1.0)) as usize;
            // A cut frame must be an error, never a panic.
            if cut < bytes.len() {
                assert!(EncodedTrace::from_bytes(&bytes[..cut]).is_err());
            }
        },
    );
}

#[test]
fn corrupted_bytes_never_panic() {
    forall(
        "corrupted_bytes_never_panic",
        256,
        |rng| (rng.vec(1, 50, arb_event), rng.next_u64(), rng.next_u64()),
        |&(ref evs, pos_seed, value)| {
            if evs.is_empty() {
                return;
            }
            let mut bytes = frame_of(evs);
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] = value as u8;
            if let Ok(frame) = EncodedTrace::from_bytes(&bytes) {
                let _ = frame.decode_all();
            }
        },
    );
}

#[test]
fn strided_generator_counts_add_up() {
    forall(
        "strided_generator_counts_add_up",
        256,
        |rng| {
            (
                rng.range_u64(1, 10_000),
                rng.range_u64(0, 2_000),
                rng.range_u32(0, 50),
            )
        },
        |&(stride, count, work)| {
            if stride == 0 {
                return; // shrinking artifact; strides are generated >= 1
            }
            let stats: TraceStats = strided(stride, count, work).collect();
            assert_eq!(stats.loads, count);
            assert_eq!(stats.stores, 0);
            let expected_work = if work > 0 && count > 1 {
                u64::from(work) * (count - 1)
            } else {
                0
            };
            assert_eq!(stats.instructions, count + expected_work);
        },
    );
}

#[test]
fn strided_addresses_are_unique() {
    forall(
        "strided_addresses_are_unique",
        256,
        |rng| (rng.range_u64(1, 100_000), rng.range_u64(1, 2_000)),
        |&(stride, count)| {
            if stride == 0 {
                return; // shrinking artifact; strides are generated >= 1
            }
            let addrs: Vec<u64> = strided(stride, count, 0).filter_map(|e| e.addr()).collect();
            let set: std::collections::HashSet<u64> = addrs.iter().copied().collect();
            assert_eq!(set.len() as u64, count);
        },
    );
}
