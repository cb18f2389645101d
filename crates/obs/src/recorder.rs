//! The per-run recorder the simulators share.
//!
//! One [`Recorder`] lives for the duration of one observed run. The
//! cache hierarchy, DRAM model, and CPU each hold a clone of the same
//! [`ObsHandle`] (`Rc<RefCell<Recorder>>` — a run is single-threaded)
//! and call the `#[inline]` hook methods from their hot paths. The
//! recorder keeps only the sim-time clock, the sampling tick and the
//! event ring; it counts nothing, and every metric is read from the
//! run's stats at the end (`primecache_sim::observe`). Event tracing is
//! gated by [`ObsConfig::trace_events`] and thinned by
//! [`ObsConfig::sample_every`].

use std::cell::RefCell;
use std::rc::Rc;

use crate::events::{EventKind, EventSink, Level, ObsEvent, RingBuffer};

/// Shared handle to a run's [`Recorder`].
///
/// Cheap to clone; instrumented structures store `Option<ObsHandle>` so
/// the un-attached cost is a single branch per access.
pub type ObsHandle = Rc<RefCell<Recorder>>;

/// Runtime observability knobs: what an attached recorder does. A run
/// with no recorder attached pays one `Option` check per hook site.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Record every Nth cache-access event (1 = all). Evictions and DRAM
    /// events are rarer and always recorded. The metrics ignore sampling:
    /// they are read from the run's statistics.
    pub sample_every: u64,
    /// Ring-buffer bound in events; the oldest are dropped (and counted)
    /// beyond this. The ring grows as events arrive, so a large bound
    /// reserves nothing up front.
    pub ring_capacity: usize,
    /// Master switch for event tracing. Off: the recorder records
    /// nothing, and the run reports only its metrics.
    pub trace_events: bool,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            sample_every: 1,
            ring_capacity: 65_536,
            trace_events: false,
        }
    }
}

/// One run's traced events, stamped with its sim-time clock.
#[derive(Debug)]
pub struct Recorder {
    cfg: ObsConfig,
    now: u64,
    tick: u64,
    ring: RingBuffer,
}

impl Recorder {
    /// Creates a recorder with the given runtime config.
    #[must_use]
    pub fn new(cfg: ObsConfig) -> Recorder {
        let ring = RingBuffer::new(cfg.ring_capacity);
        Recorder {
            cfg,
            now: 0,
            tick: 0,
            ring,
        }
    }

    /// Creates a shareable handle (the form instrumented structures
    /// attach).
    #[must_use]
    pub fn handle(cfg: ObsConfig) -> ObsHandle {
        Rc::new(RefCell::new(Recorder::new(cfg)))
    }

    /// Updates the sim-time clock stamped onto subsequent events. The
    /// CPU model calls this as it retires trace events.
    #[inline]
    pub fn set_now(&mut self, t: u64) {
        self.now = t;
    }

    /// Current sim-time clock.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The runtime config this recorder was built with.
    #[must_use]
    pub fn config(&self) -> &ObsConfig {
        &self.cfg
    }

    /// Hook: a demand access probed `level`. Records an `access` event
    /// every [`ObsConfig::sample_every`]th call when tracing is on.
    #[inline]
    pub fn cache_access(&mut self, level: Level, set: u32, hit: bool, write: bool) {
        if self.cfg.trace_events {
            self.tick += 1;
            if self.tick.is_multiple_of(self.cfg.sample_every.max(1)) {
                self.ring.push(ObsEvent {
                    t: self.now,
                    kind: EventKind::Access {
                        level,
                        set,
                        hit,
                        write,
                    },
                });
            }
        }
    }

    /// Hook: a valid block was evicted from `level` by an access that
    /// counts in statistics set `set`. Traced un-sampled when tracing is
    /// on (evictions are the signal per-set conflict analysis needs
    /// complete); the caches count them in their own statistics.
    #[inline]
    pub fn eviction(&mut self, level: Level, set: u32, dirty: bool) {
        if self.cfg.trace_events {
            self.ring.push(ObsEvent {
                t: self.now,
                kind: EventKind::Eviction { level, set, dirty },
            });
        }
    }

    /// Hook: DRAM serviced a request; `queue` is the cycles it waited on
    /// busy bank/bus resources before service began. Recorded as a
    /// `dram` event when tracing is on.
    #[inline]
    pub fn dram_request(
        &mut self,
        channel: u32,
        bank: u32,
        row_hit: bool,
        write: bool,
        queue: u64,
    ) {
        if self.cfg.trace_events {
            self.ring.push(ObsEvent {
                t: self.now,
                kind: EventKind::Dram {
                    channel,
                    bank,
                    row_hit,
                    write,
                    queue,
                },
            });
        }
    }

    /// Records an arbitrary event (used for sweep-task scheduling, which
    /// bypasses counters and sampling).
    pub fn record(&mut self, ev: ObsEvent) {
        self.ring.push(ev);
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.ring.iter()
    }

    /// Total events recorded (including any later dropped by the ring).
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Events lost to ring overflow.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Drains buffered events into `sink` (oldest first).
    pub fn drain_events(&mut self, sink: &mut dyn EventSink) {
        self.ring.drain_to(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::MemorySink;

    #[test]
    fn sampling_thins_access_events() {
        let mut r = Recorder::new(ObsConfig {
            sample_every: 10,
            trace_events: true,
            ..ObsConfig::default()
        });
        for i in 0..100u32 {
            r.cache_access(Level::L2, i % 8, i % 3 == 0, false);
        }
        assert_eq!(r.events_recorded(), 10);
    }

    #[test]
    fn evictions_are_traced_unsampled() {
        let mut r = Recorder::new(ObsConfig {
            sample_every: 10,
            trace_events: true,
            ..ObsConfig::default()
        });
        r.eviction(Level::L2, 3, true);
        r.eviction(Level::L1, 1, false);
        let mut sink = MemorySink::default();
        r.drain_events(&mut sink);
        let kinds: Vec<EventKind> = sink.events.into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::Eviction {
                    level: Level::L2,
                    set: 3,
                    dirty: true
                },
                EventKind::Eviction {
                    level: Level::L1,
                    set: 1,
                    dirty: false
                },
            ]
        );
    }

    #[test]
    fn events_carry_the_sim_clock() {
        let mut r = Recorder::new(ObsConfig {
            trace_events: true,
            ..ObsConfig::default()
        });
        r.set_now(41);
        r.dram_request(0, 5, true, false, 7);
        let mut sink = MemorySink::default();
        r.drain_events(&mut sink);
        assert_eq!(sink.events[0].t, 41);
        assert_eq!(r.events_recorded(), 1);
    }

    #[test]
    fn tracing_off_records_no_events() {
        let mut r = Recorder::new(ObsConfig::default());
        r.cache_access(Level::L1, 0, true, true);
        r.dram_request(0, 0, false, true, 0);
        r.eviction(Level::L1, 0, false);
        assert_eq!(r.events_recorded(), 0);
    }
}
