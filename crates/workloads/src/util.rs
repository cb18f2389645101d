//! Generator utilities: deterministic PRNG and trace-emission helpers.

use primecache_trace::{EncodedTrace, Event, TraceEncoder};

/// A 64-bit linear congruential generator (Knuth's MMIX multiplier).
///
/// Every workload derives its randomness from an [`Lcg`] seeded by the
/// workload name, so traces are bit-reproducible across runs and platforms.
///
/// # Examples
///
/// ```
/// use primecache_workloads::Lcg;
///
/// let mut a = Lcg::new(42);
/// let mut b = Lcg::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Creates a generator from a seed.
    #[inline]
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Output mix (xorshift) to decorrelate low bits.
        let mut x = self.state;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// The plain-modulo reduction has the classic modulo bias (values
    /// below `2^64 mod bound` are marginally more likely). That bias is
    /// **intentional and frozen**: every committed workload trace,
    /// fingerprint, and figure derives from this exact draw sequence, and
    /// a "fairer" rejection-sampling loop would consume a
    /// data-dependent number of raw draws — silently re-seeding every
    /// downstream address. At the bounds the workloads use (≤ 2^26) the
    /// bias is < 2^-38 and has no bearing on the set-index distributions
    /// the paper measures. Do not change the reduction.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }

    /// Bernoulli draw with probability `num/denom`.
    #[inline]
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.below(denom) < num
    }

    /// A Zipf-ish skewed draw in `[0, bound)`: smaller values much more
    /// likely (used for hot-node selection in graph workloads).
    #[inline]
    pub fn skewed(&mut self, bound: u64) -> u64 {
        let r = self.next_u64();
        // Square a uniform fraction: density ~ 1/(2*sqrt(x)).
        let f = (r >> 11) as f64 / (1u64 << 53) as f64;
        ((f * f) * bound as f64) as u64
    }
}

/// Events per chunk a live generator hands its consumer
/// ([`crate::Workload::push_chunks`]), and the chunk cadence of every
/// recorded trace ([`record`]).
///
/// Large enough that a consumer's per-chunk work (one call, one stats
/// check) vanishes against the events inside, small enough that the one
/// chunk buffer a live run holds stays well under a megabyte.
///
/// Public because bit-exact trace round trips depend on it: an importer
/// that re-encodes an exported trace must cut chunks at the same cadence
/// to reproduce the recorded frame byte-for-byte (`primecache-ingest`
/// does, and `ci/ingest_smoke.sh` `cmp`s the files).
pub const STREAM_CHUNK: usize = 16384;

/// Where a [`TraceSink`] delivers its events.
enum Output<'a> {
    /// Materialize the whole trace (`Workload::trace`, tests).
    Buffer(Vec<Event>),
    /// Same-thread push: events fill one `STREAM_CHUNK` buffer, which is
    /// handed to `consume` each time it fills and once more, partial, at
    /// the end. Memory stays O(1) in trace length.
    Chunks {
        chunk: Vec<Event>,
        consume: &'a mut dyn FnMut(&[Event]),
    },
    /// Same-thread recording: events go straight into a delta/varint
    /// [`TraceEncoder`], producing the compact [`EncodedTrace`] that
    /// trace files and recorded runs replay.
    Record(TraceEncoder),
}

/// Builder that appends events while tracking how many memory references
/// have been emitted — generators loop until [`TraceSink::done`].
///
/// The generator contract: a generator is a `fn(&mut TraceSink)` that
/// emits a deterministic event sequence (independent of the output
/// mode) and polls `done()` at least once per bounded number of events.
/// The same generator therefore serves the materialized
/// `Workload::trace` path, the chunk-pushing `Workload::push_chunks`
/// path and `Workload::record`, all on the calling thread.
pub struct TraceSink<'a> {
    out: Output<'a>,
    refs: u64,
    target: u64,
}

impl std::fmt::Debug for TraceSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("refs", &self.refs)
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

impl<'a> TraceSink<'a> {
    /// Creates a buffering sink, pre-allocating for `target_refs`
    /// references.
    #[must_use]
    pub(crate) fn with_target(target_refs: u64) -> Self {
        Self {
            out: Output::Buffer(Vec::with_capacity(
                (target_refs as usize).saturating_mul(2).min(1 << 26),
            )),
            refs: 0,
            target: target_refs,
        }
    }

    /// Creates a sink that hands `consume` every full
    /// [`STREAM_CHUNK`]-event chunk as it fills (used by
    /// [`crate::Workload::push_chunks`]); [`TraceSink::finish`] hands
    /// over the last, partial one.
    pub(crate) fn for_chunks(target_refs: u64, consume: &'a mut dyn FnMut(&[Event])) -> Self {
        Self {
            out: Output::Chunks {
                chunk: Vec::with_capacity(STREAM_CHUNK),
                consume,
            },
            refs: 0,
            target: target_refs,
        }
    }

    /// Creates a recording sink that encodes events on the calling
    /// thread in `chunk_events`-sized encoded chunks (used by
    /// [`record`] / [`crate::Workload::record`]).
    pub(crate) fn for_recording(target_refs: u64, chunk_events: usize) -> Self {
        Self {
            out: Output::Record(TraceEncoder::new(chunk_events)),
            refs: 0,
            target: target_refs,
        }
    }

    /// Memory references emitted so far.
    #[must_use]
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// The reference target the generator should run to.
    #[must_use]
    pub fn target(&self) -> u64 {
        self.target
    }

    /// True once the generator should stop: the reference target is met.
    #[must_use]
    pub fn done(&self) -> bool {
        self.refs >= self.target
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        match &mut self.out {
            Output::Buffer(events) => events.push(ev),
            Output::Chunks { chunk, consume } => push_chunked(chunk, *consume, ev),
            Output::Record(enc) => enc.push(ev),
        }
    }

    /// Emits an independent load.
    #[inline]
    pub fn load(&mut self, addr: u64) {
        self.push(Event::load(addr));
        self.refs += 1;
    }

    /// Emits a serializing (pointer-chase) load.
    #[inline]
    pub fn chase(&mut self, addr: u64) {
        self.push(Event::chase(addr));
        self.refs += 1;
    }

    /// Emits a store.
    #[inline]
    pub fn store(&mut self, addr: u64) {
        self.push(Event::Store { addr });
        self.refs += 1;
    }

    /// Emits `n` instructions of integer compute.
    #[inline]
    pub fn work(&mut self, n: u32) {
        if n > 0 {
            self.push(Event::Work(n));
        }
    }

    /// Emits `n` instructions of floating-point compute (issued through
    /// the 4-wide FP units of Table 3).
    #[inline]
    pub fn fp_work(&mut self, n: u32) {
        if n > 0 {
            self.push(Event::FpWork(n));
        }
    }

    /// Emits a branch.
    #[inline]
    pub fn branch(&mut self, mispredict: bool) {
        self.push(Event::Branch { mispredict });
    }

    /// Hands the last, partial chunk of a chunk-pushing sink to its
    /// consumer (no-op when it is empty, and when buffering or recording
    /// — the encoder flushes in `into_recorded`).
    pub(crate) fn finish(&mut self) {
        if let Output::Chunks { chunk, consume } = &mut self.out {
            if !chunk.is_empty() {
                consume(chunk);
                chunk.clear();
            }
        }
    }

    /// Finishes a buffered trace.
    ///
    /// # Panics
    ///
    /// Panics when called on a chunk-pushing or recording sink; pushed
    /// events have already been handed to the consumer, recorded ones to
    /// the encoder.
    #[must_use]
    pub(crate) fn into_events(self) -> Vec<Event> {
        match self.out {
            Output::Buffer(events) => events,
            Output::Chunks { .. } | Output::Record(_) => {
                panic!("into_events on a non-buffering TraceSink")
            }
        }
    }

    /// Finishes a recorded trace, sealing the final encoded chunk.
    ///
    /// # Panics
    ///
    /// Panics when called on a sink that is not in recording mode.
    #[must_use]
    pub(crate) fn into_recorded(self) -> EncodedTrace {
        match self.out {
            Output::Record(enc) => enc.finish(),
            Output::Buffer(_) | Output::Chunks { .. } => {
                panic!("into_recorded on a non-recording TraceSink")
            }
        }
    }
}

/// Appends `ev` to `chunk`, handing the chunk to `consume` (and
/// emptying it) once it holds `STREAM_CHUNK` events. Kept out of line
/// so the push inlined into every generator stays small enough to
/// inline.
#[inline(never)]
fn push_chunked(chunk: &mut Vec<Event>, consume: &mut dyn FnMut(&[Event]), ev: Event) {
    chunk.push(ev);
    if chunk.len() == STREAM_CHUNK {
        consume(chunk);
        chunk.clear();
    }
}

/// Runs a generator to completion into a materialized `Vec`.
///
/// This is the legacy-compatible path: `materialize(f, n)` produces
/// exactly the event sequence the pre-streaming `fn(u64) -> Vec<Event>`
/// generators returned.
#[must_use]
pub fn materialize(generator: fn(&mut TraceSink), target_refs: u64) -> Vec<Event> {
    let mut sink = TraceSink::with_target(target_refs);
    generator(&mut sink);
    sink.into_events()
}

/// Runs a generator to completion on the calling thread,
/// encoding its events into a compact [`EncodedTrace`].
///
/// It produces exactly the event sequence [`materialize`] and
/// [`crate::Workload::push_chunks`] deliver (generators are
/// deterministic and output-mode-blind), stored at a few bytes per event
/// instead of 16.
#[must_use]
pub fn record(generator: fn(&mut TraceSink), target_refs: u64) -> EncodedTrace {
    let mut sink = TraceSink::for_recording(target_refs, STREAM_CHUNK);
    generator(&mut sink);
    sink.into_recorded()
}

/// Runs a generator to completion on the calling thread, handing
/// `consume` its events in order, [`STREAM_CHUNK`] at a time (the last
/// chunk may be shorter; none is empty). Memory is one chunk buffer,
/// whatever `target_refs` is.
pub(crate) fn push_chunks(
    generator: fn(&mut TraceSink),
    target_refs: u64,
    consume: &mut dyn FnMut(&[Event]),
) {
    let mut sink = TraceSink::for_chunks(target_refs, consume);
    generator(&mut sink);
    sink.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic_and_varied() {
        let mut g = Lcg::new(7);
        let vals: Vec<u64> = (0..100).map(|_| g.below(1000)).collect();
        let distinct: std::collections::HashSet<u64> = vals.iter().copied().collect();
        assert!(
            distinct.len() > 50,
            "only {} distinct values",
            distinct.len()
        );
    }

    #[test]
    fn below_respects_bound() {
        let mut g = Lcg::new(1);
        for _ in 0..1000 {
            assert!(g.below(17) < 17);
        }
    }

    #[test]
    fn skewed_prefers_small_values() {
        let mut g = Lcg::new(3);
        let n = 10_000;
        let small = (0..n).filter(|_| g.skewed(1000) < 250).count();
        // P(x < 250) = sqrt(0.25) = 0.5 under the squared-uniform law.
        assert!(small > n * 4 / 10, "{small} of {n} draws below 25%");
    }

    #[test]
    fn sink_counts_only_memory_refs() {
        let mut sink = TraceSink::with_target(10);
        sink.load(0);
        sink.work(5);
        sink.store(64);
        sink.branch(false);
        sink.chase(128);
        assert_eq!(sink.refs(), 3);
        assert_eq!(sink.into_events().len(), 5);
    }

    #[test]
    fn work_zero_is_elided() {
        let mut sink = TraceSink::with_target(1);
        sink.work(0);
        assert!(sink.into_events().is_empty());
    }

    #[test]
    fn done_tracks_target() {
        let mut sink = TraceSink::with_target(2);
        assert!(!sink.done());
        sink.load(0);
        assert!(!sink.done());
        sink.load(64);
        assert!(sink.done());
    }

    fn counting(t: &mut TraceSink) {
        let mut i = 0u64;
        while !t.done() {
            t.load(i * 64);
            if i.is_multiple_of(7) {
                t.work(3);
            }
            i += 1;
        }
    }

    #[test]
    fn pushed_chunks_concatenate_to_the_materialized_trace() {
        for target in [0, 1, 10_000, 3 * STREAM_CHUNK as u64] {
            let mut chunks: Vec<Vec<Event>> = Vec::new();
            push_chunks(counting, target, &mut |c| chunks.push(c.to_vec()));
            // None is empty, and every chunk but the last is full.
            for (i, c) in chunks.iter().enumerate() {
                assert!(!c.is_empty() && c.len() <= STREAM_CHUNK, "{target}");
                assert!(i + 1 == chunks.len() || c.len() == STREAM_CHUNK, "{target}");
            }
            assert_eq!(chunks.concat(), materialize(counting, target), "{target}");
        }
    }

    #[test]
    fn recorded_trace_matches_materialized() {
        fn tiny(t: &mut TraceSink) {
            let mut g = Lcg::new(99);
            while !t.done() {
                t.load(g.below(1 << 20) * 64);
                t.work(3);
                t.branch(g.chance(1, 10));
            }
        }
        let recorded = record(tiny, 40_000);
        let buffered = materialize(tiny, 40_000);
        assert_eq!(recorded.decode_all().unwrap(), buffered);
        assert_eq!(recorded.events(), buffered.len() as u64);
        assert_eq!(recorded.refs(), 40_000);
        // Chunk boundaries mirror the live push path's STREAM_CHUNK.
        assert_eq!(recorded.chunk_events(), STREAM_CHUNK);
        // The compactness target the format exists for.
        assert!(
            recorded.bytes_per_event() < 5.0,
            "{} B/event",
            recorded.bytes_per_event()
        );
    }

    #[test]
    fn materialize_matches_handwritten_generator() {
        fn tiny(t: &mut TraceSink) {
            let mut a = 0u64;
            while !t.done() {
                t.load(a);
                a += 64;
            }
        }
        let trace = materialize(tiny, 5);
        assert_eq!(
            trace,
            (0..5).map(|i| Event::load(i * 64)).collect::<Vec<_>>()
        );
    }
}
