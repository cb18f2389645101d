//! The in-memory recorded-trace store behind generate-once sweeps, and
//! the [`EventChunks`] abstraction through which recorded sources push
//! their events into a simulation, chunk by chunk, on the caller's
//! thread.
//!
//! A design-space sweep runs every scheme over the *identical* 23
//! traces; generating them once per scheme makes the sweep
//! generator-bound. A [`TraceStore`] records each workload exactly once
//! (same-thread, straight into the compact delta/varint encoding) and
//! then hands out any number of read-only [`ReplayCursor`]s, so the 8×
//! redundant generation cost collapses to 1× + cheap decodes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use primecache_trace::{EncodedTrace, Event, ReplayCursor};

use crate::registry::Workload;

/// A source of trace events that pushes them, in order, into a consumer
/// on the caller's thread, one chunk at a time: a recorded or imported
/// trace's [`ReplayCursor`] (one chunk per encoded chunk) or a tenant
/// [`crate::MixCursor`] (one chunk per scheduling quantum). A live
/// generator pushes the same way through
/// [`Workload::push_chunks`].
pub trait EventChunks {
    /// Hands every remaining event to `consume`, in order, in non-empty
    /// chunks (the remainder of a partially iterated chunk first).
    fn push_chunks(&mut self, consume: &mut dyn FnMut(&[Event]));
}

impl EventChunks for ReplayCursor<'_> {
    fn push_chunks(&mut self, consume: &mut dyn FnMut(&[Event])) {
        while let Some(chunk) = self.next_chunk() {
            consume(&chunk);
        }
    }
}

/// Counters a [`TraceStore`] exposes to observability and sweep reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Workload traces recorded (one generation each).
    pub records: u64,
    /// Replay cursors handed out (generations *avoided*, after the
    /// first, for every record replayed more than once).
    pub replays: u64,
    /// Total encoded bytes held across all records.
    pub encoded_bytes: u64,
    /// Total events across all records.
    pub events: u64,
    /// The reference target every record was generated to.
    pub target_refs: u64,
}

/// An in-memory map of workload name → recorded [`EncodedTrace`].
///
/// Records are written once (single generation per workload per sweep)
/// and replayed many times; `replay` takes `&self`, so a parallel sweep
/// shares one store across all workers with no locking on the replay
/// path.
#[derive(Debug)]
pub struct TraceStore {
    target_refs: u64,
    entries: BTreeMap<&'static str, EncodedTrace>,
    replays: AtomicU64,
}

impl TraceStore {
    /// Creates an empty store whose records will target `target_refs`
    /// memory references each.
    #[must_use]
    pub fn new(target_refs: u64) -> Self {
        Self {
            target_refs,
            entries: BTreeMap::new(),
            replays: AtomicU64::new(0),
        }
    }

    /// Records every workload in `workloads` (serially, on the calling
    /// thread). Sweep drivers that want parallel recording insert
    /// per-worker results via [`TraceStore::insert`] instead.
    #[must_use]
    pub fn record_all(workloads: &[Workload], target_refs: u64) -> Self {
        let mut store = Self::new(target_refs);
        for w in workloads {
            store.record(w);
        }
        store
    }

    /// Generates and stores `workload`'s trace at the store's target.
    pub fn record(&mut self, workload: &Workload) {
        self.insert(workload.name, workload.record(self.target_refs));
    }

    /// Stores an already-recorded trace under `name` (replacing any
    /// previous record).
    pub fn insert(&mut self, name: &'static str, trace: EncodedTrace) {
        self.entries.insert(name, trace);
    }

    /// A replay cursor over `name`'s record, or `None` when the
    /// workload was never recorded. Each call counts one served replay.
    #[must_use]
    pub fn replay(&self, name: &str) -> Option<ReplayCursor<'_>> {
        let trace = self.entries.get(name)?;
        self.replays.fetch_add(1, Ordering::Relaxed);
        Some(trace.replay())
    }

    /// The recorded trace for `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&EncodedTrace> {
        self.entries.get(name)
    }

    /// The reference target each record was generated to.
    #[must_use]
    pub fn target_refs(&self) -> u64 {
        self.target_refs
    }

    /// Number of workloads recorded.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Replay cursors handed out so far.
    #[must_use]
    pub fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// Total encoded bytes held.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        self.entries.values().map(EncodedTrace::encoded_bytes).sum()
    }

    /// Total events held.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.entries.values().map(EncodedTrace::events).sum()
    }

    /// Total memory references held.
    #[must_use]
    pub fn refs(&self) -> u64 {
        self.entries.values().map(EncodedTrace::refs).sum()
    }

    /// Snapshot of the store's counters.
    #[must_use]
    pub fn stats(&self) -> TraceStoreStats {
        TraceStoreStats {
            records: self.records(),
            replays: self.replays(),
            encoded_bytes: self.encoded_bytes(),
            events: self.events(),
            target_refs: self.target_refs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    #[test]
    fn store_replays_the_recorded_sequence() {
        let w = by_name("swim").unwrap();
        let mut store = TraceStore::new(5_000);
        store.record(w);
        let live: Vec<Event> = w.trace(5_000);
        let replayed: Vec<Event> = store.replay("swim").unwrap().collect();
        assert_eq!(replayed, live);
        // Replays are repeatable and independent.
        let again: Vec<Event> = store.replay("swim").unwrap().collect();
        assert_eq!(again, live);
        assert_eq!(store.replays(), 2);
        assert_eq!(store.records(), 1);
        assert!(store.encoded_bytes() > 0);
    }

    #[test]
    fn missing_workload_yields_none() {
        let store = TraceStore::new(100);
        assert!(store.replay("nope").is_none());
        assert_eq!(store.replays(), 0);
    }

    #[test]
    fn concurrent_replays_share_one_record() {
        let w = by_name("mcf").unwrap();
        let mut store = TraceStore::new(2_000);
        store.record(w);
        let expect: Vec<Event> = w.trace(2_000);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = &store;
                let expect = &expect;
                scope.spawn(move || {
                    let got: Vec<Event> = store.replay("mcf").unwrap().collect();
                    assert_eq!(&got, expect);
                });
            }
        });
        assert_eq!(store.stats().replays, 4);
    }

    #[test]
    fn replay_pushes_the_live_chunks() {
        // A replay must push the events, and the chunk cadence, of the
        // live generator it recorded.
        let w = by_name("tree").unwrap();
        let store = TraceStore::record_all(&[*w], 20_000);
        let mut live: Vec<Vec<Event>> = Vec::new();
        w.push_chunks(20_000, &mut |c| live.push(c.to_vec()));
        let mut replayed: Vec<Vec<Event>> = Vec::new();
        store
            .replay("tree")
            .unwrap()
            .push_chunks(&mut |c| replayed.push(c.to_vec()));
        assert!(live.len() > 1, "the trace spans several chunks");
        assert_eq!(replayed, live);
    }
}
