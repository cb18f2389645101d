//! The [`EventChunks`] abstraction through which recorded sources push
//! their events into a simulation, chunk by chunk, on the caller's
//! thread. A replay's chunk push costs more per reference than
//! generating the trace live (DESIGN.md §7 has both costs).

use primecache_trace::{Event, ReplayCursor};

/// A source of trace events that pushes them, in order, into a consumer
/// on the caller's thread, one chunk at a time: a recorded or imported
/// trace's [`ReplayCursor`] (one chunk per encoded chunk) or a tenant
/// [`crate::MixCursor`] (one chunk per scheduling quantum). A live
/// generator pushes the same way through
/// [`Workload::push_chunks`](crate::Workload::push_chunks).
pub trait EventChunks {
    /// Hands every remaining event to `consume`, in order, in non-empty
    /// chunks (the remainder of a partially iterated chunk first).
    fn push_chunks(&mut self, consume: &mut dyn FnMut(&[Event]));
}

impl EventChunks for ReplayCursor<'_> {
    /// One slice per encoded chunk, straight from the cursor's buffer.
    fn push_chunks(&mut self, consume: &mut dyn FnMut(&[Event])) {
        loop {
            let events = self.fill_buf();
            if events.is_empty() {
                return;
            }
            let n = events.len();
            consume(events);
            self.consume(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    #[test]
    fn replay_pushes_the_live_chunks() {
        // A replay must push the events, and the chunk cadence, of the
        // live generator it recorded.
        let w = by_name("tree").unwrap();
        let trace = w.record(20_000);
        let mut live: Vec<Vec<Event>> = Vec::new();
        w.push_chunks(20_000, &mut |c| live.push(c.to_vec()));
        let mut replayed: Vec<Vec<Event>> = Vec::new();
        trace
            .replay()
            .push_chunks(&mut |c| replayed.push(c.to_vec()));
        assert!(live.len() > 1, "the trace spans several chunks");
        assert_eq!(replayed, live);
    }
}
