//! Generator utilities: deterministic PRNG and trace-emission helpers.

use primecache_trace::Event;

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

/// Events per chunk a generator pushes ([`crate::Workload::push_chunks`]),
/// and so the chunk cadence of every recorded trace
/// ([`crate::Workload::record`] encodes one chunk per pushed chunk).
///
/// Large enough that a consumer's per-chunk work (one call, one stats
/// check) vanishes against the events inside, small enough that the one
/// chunk buffer a generator holds stays well under a megabyte.
///
/// Public because bit-exact trace round trips depend on it: an importer
/// that re-encodes an exported trace must cut chunks at the same cadence
/// to reproduce the recorded frame byte-for-byte (`primecache-ingest`
/// does, and `ci/ingest_smoke.sh` `cmp`s the files).
pub const STREAM_CHUNK: usize = 16384;

/// What a generator emits its events through: one [`STREAM_CHUNK`]-event
/// buffer, handed to the sink's consumer each time it fills, and a count
/// of the memory references emitted — generators loop until
/// [`TraceSink::done`].
///
/// The generator contract: a generator is a `fn(&mut TraceSink)` that
/// emits a deterministic event sequence and polls `done()` at least once
/// per bounded number of events. Pushing chunks is all a sink does, so
/// every way of running a workload — the live chunk push
/// ([`crate::Workload::push_chunks`]), the materialized trace
/// ([`crate::Workload::trace`]) and the recording
/// ([`crate::Workload::record`]) — consumes the same pushed chunks, on
/// the calling thread.
pub struct TraceSink<'a> {
    chunk: Vec<Event>,
    consume: &'a mut dyn FnMut(&[Event]),
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
    /// Creates a sink that hands `consume` every full [`STREAM_CHUNK`]-event
    /// chunk as it fills; [`TraceSink::finish`] hands over the last,
    /// partial one.
    pub(crate) fn new(target_refs: u64, consume: &'a mut dyn FnMut(&[Event])) -> Self {
        Self {
            chunk: Vec::with_capacity(STREAM_CHUNK),
            consume,
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

    /// Appends `ev`, flushing the chunk once it holds [`STREAM_CHUNK`]
    /// events. Small enough to inline into every generator loop; the
    /// flush is the one out-of-line call.
    #[inline]
    fn push(&mut self, ev: Event) {
        self.chunk.push(ev);
        if self.chunk.len() == STREAM_CHUNK {
            self.flush();
        }
    }

    /// Hands the chunk to the consumer and empties it.
    #[cold]
    #[inline(never)]
    fn flush(&mut self) {
        (self.consume)(&self.chunk);
        self.chunk.clear();
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

    /// Hands the last, partial chunk to the consumer (nothing when it is
    /// empty, so no pushed chunk is).
    pub(crate) fn finish(mut self) {
        if !self.chunk.is_empty() {
            self.flush();
        }
    }
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
    let mut sink = TraceSink::new(target_refs, consume);
    generator(&mut sink);
    sink.finish();
}

/// Collects a generator's pushed chunks into one `Vec`: the generator
/// unit tests' view of a trace.
#[cfg(test)]
pub(crate) fn materialize(generator: fn(&mut TraceSink), target_refs: u64) -> Vec<Event> {
    let mut events = Vec::new();
    push_chunks(generator, target_refs, &mut |c| events.extend_from_slice(c));
    events
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

    /// Runs `emit` on a sink with a `target` of references, then
    /// finishes it, and returns the events the sink pushed.
    fn pushed(target: u64, emit: impl FnOnce(&mut TraceSink)) -> Vec<Event> {
        let mut events = Vec::new();
        let mut consume = |c: &[Event]| events.extend_from_slice(c);
        let mut sink = TraceSink::new(target, &mut consume);
        emit(&mut sink);
        sink.finish();
        events
    }

    #[test]
    fn sink_counts_only_memory_refs() {
        let events = pushed(10, |sink| {
            sink.load(0);
            sink.work(5);
            sink.store(64);
            sink.branch(false);
            sink.chase(128);
            assert_eq!(sink.refs(), 3);
        });
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn work_zero_is_elided() {
        assert!(pushed(1, |sink| sink.work(0)).is_empty());
    }

    #[test]
    fn done_tracks_target() {
        pushed(2, |sink| {
            assert!(!sink.done());
            sink.load(0);
            assert!(!sink.done());
            sink.load(64);
            assert!(sink.done());
        });
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
    fn pushed_chunks_concatenate_to_the_emitted_sequence() {
        for target in [0, 1, 10_000, 3 * STREAM_CHUNK as u64] {
            let mut chunks: Vec<Vec<Event>> = Vec::new();
            push_chunks(counting, target, &mut |c| chunks.push(c.to_vec()));
            // None is empty, and every chunk but the last is full.
            for (i, c) in chunks.iter().enumerate() {
                assert!(!c.is_empty() && c.len() <= STREAM_CHUNK, "{target}");
                assert!(i + 1 == chunks.len() || c.len() == STREAM_CHUNK, "{target}");
            }
            let emitted: Vec<Event> = (0..target)
                .flat_map(|i| {
                    let work = i.is_multiple_of(7).then_some(Event::Work(3));
                    std::iter::once(Event::load(i * 64)).chain(work)
                })
                .collect();
            assert_eq!(chunks.concat(), emitted, "{target}");
        }
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
