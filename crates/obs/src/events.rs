//! Sim-time-stamped trace events, the bounded ring they buffer in, and
//! pluggable sinks.
//!
//! Event tracing answers the questions aggregate counters cannot: *which
//! sets* thrash under a given index function (the per-set eviction
//! streams used by the randomized-cache literature to explain index
//! behaviour), *when* DRAM banks conflict, and *how* the sweep scheduler
//! packed its tasks. Events are recorded into a bounded [`RingBuffer`] —
//! it grows as events arrive, and a full ring drops the oldest events
//! and counts the drops, so memory never exceeds the bound — then
//! drained to an [`EventSink`]: [`JsonlSink`] for files, [`MemorySink`]
//! for tests.

use std::collections::VecDeque;
use std::io::Write;

use crate::json::Json;

/// Which cache level an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// First-level (16 KB 2-way in the paper's Table 3 machine).
    L1,
    /// Second-level (512 KB, the level whose indexing the paper studies).
    L2,
}

impl Level {
    /// Stable lowercase name used in serialized events and metric names.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::L1 => "l1",
            Level::L2 => "l2",
        }
    }
}

/// One trace event: sim-time timestamp plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Simulation time in CPU cycles (0 for events outside a run, e.g.
    /// sweep-task scheduling).
    pub t: u64,
    /// The event payload.
    pub kind: EventKind,
}

/// Payload of one trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A demand access probed a cache level.
    Access {
        /// Level probed.
        level: Level,
        /// Set index the address mapped to (statistics set for skewed).
        set: u32,
        /// Whether the probe hit.
        hit: bool,
        /// Whether the access was a store.
        write: bool,
    },
    /// A valid block was evicted to make room.
    Eviction {
        /// Level the victim left.
        level: Level,
        /// Set index the victim occupied.
        set: u32,
        /// Whether the victim was dirty (becomes a writeback).
        dirty: bool,
    },
    /// DRAM serviced a request.
    Dram {
        /// Channel the address mapped to.
        channel: u32,
        /// Bank within the channel.
        bank: u32,
        /// Whether the open row matched (row-buffer hit).
        row_hit: bool,
        /// Whether the request was a write.
        write: bool,
        /// Cycles the request waited on busy bank/bus resources.
        queue: u64,
    },
    /// The sweep scheduler ran one (workload, scheme) task.
    Task {
        /// Workload name.
        workload: String,
        /// Scheme label.
        scheme: String,
        /// Cost estimate that ordered the workload's cells.
        cost: u64,
        /// Worker thread index that executed the task.
        worker: u32,
        /// Wall-clock microseconds from sweep start when the task began.
        start_us: u64,
        /// Wall-clock microseconds from sweep start when it finished.
        end_us: u64,
        /// Microseconds of the task spent waiting for its workload's
        /// shared input (0 when it was ready).
        wait_us: u64,
    },
}

impl ObsEvent {
    /// Serializes the event as one JSON object (`"ev"` is the
    /// discriminator; see OBSERVABILITY.md for the schema).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![("t", Json::U64(self.t))];
        match &self.kind {
            EventKind::Access {
                level,
                set,
                hit,
                write,
            } => {
                members.push(("ev", Json::Str("access".to_owned())));
                members.push(("level", Json::Str(level.as_str().to_owned())));
                members.push(("set", Json::U64(u64::from(*set))));
                members.push(("hit", Json::Bool(*hit)));
                members.push(("write", Json::Bool(*write)));
            }
            EventKind::Eviction { level, set, dirty } => {
                members.push(("ev", Json::Str("eviction".to_owned())));
                members.push(("level", Json::Str(level.as_str().to_owned())));
                members.push(("set", Json::U64(u64::from(*set))));
                members.push(("dirty", Json::Bool(*dirty)));
            }
            EventKind::Dram {
                channel,
                bank,
                row_hit,
                write,
                queue,
            } => {
                members.push(("ev", Json::Str("dram".to_owned())));
                members.push(("channel", Json::U64(u64::from(*channel))));
                members.push(("bank", Json::U64(u64::from(*bank))));
                members.push(("row_hit", Json::Bool(*row_hit)));
                members.push(("write", Json::Bool(*write)));
                members.push(("queue", Json::U64(*queue)));
            }
            EventKind::Task {
                workload,
                scheme,
                cost,
                worker,
                start_us,
                end_us,
                wait_us,
            } => {
                members.push(("ev", Json::Str("task".to_owned())));
                members.push(("workload", Json::Str(workload.clone())));
                members.push(("scheme", Json::Str(scheme.clone())));
                members.push(("cost", Json::U64(*cost)));
                members.push(("worker", Json::U64(u64::from(*worker))));
                members.push(("start_us", Json::U64(*start_us)));
                members.push(("end_us", Json::U64(*end_us)));
                members.push(("wait_us", Json::U64(*wait_us)));
            }
        }
        Json::obj(members)
    }
}

/// Anything that can receive drained trace events.
pub trait EventSink {
    /// Receives one event. Order of delivery is recording order.
    fn emit(&mut self, ev: &ObsEvent);
}

/// Collects events in memory — the sink tests use.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Events received, in order.
    pub events: Vec<ObsEvent>,
}

impl EventSink for MemorySink {
    fn emit(&mut self, ev: &ObsEvent) {
        self.events.push(ev.clone());
    }
}

/// Writes one compact JSON object per line (JSONL) to any writer,
/// until the first write error, which [`JsonlSink::finish`] returns.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    w: W,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `w`; every event becomes one line.
    pub fn new(w: W) -> JsonlSink<W> {
        JsonlSink { w, error: None }
    }

    /// Flushes and returns the inner writer.
    ///
    /// # Errors
    ///
    /// The first write error, or the flush failure.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn emit(&mut self, ev: &ObsEvent) {
        // An I/O error must not abort a simulation: the sink keeps the
        // first one for `finish` and writes nothing after it.
        if self.error.is_none() {
            self.error = writeln!(self.w, "{}", ev.to_json().render()).err();
        }
    }
}

/// Bounded event buffer: overwrites oldest on overflow and counts the
/// drops. Storage grows as events arrive, up to the bound.
#[derive(Debug)]
pub struct RingBuffer {
    buf: VecDeque<ObsEvent>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

impl RingBuffer {
    /// Creates a ring holding at most `capacity` events (min 1). Nothing
    /// is allocated until the first push.
    #[must_use]
    pub fn new(capacity: usize) -> RingBuffer {
        RingBuffer {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            recorded: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, ev: ObsEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
        self.recorded += 1;
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever pushed (including later-dropped ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to overflow.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates buffered events oldest-first without draining.
    pub fn iter(&self) -> impl Iterator<Item = &ObsEvent> {
        self.buf.iter()
    }

    /// Sends every buffered event to `sink` (oldest first) and empties
    /// the ring. Drop/recorded totals are kept.
    pub fn drain_to(&mut self, sink: &mut dyn EventSink) {
        for ev in self.buf.drain(..) {
            sink.emit(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(t: u64, set: u32) -> ObsEvent {
        ObsEvent {
            t,
            kind: EventKind::Access {
                level: Level::L2,
                set,
                hit: false,
                write: false,
            },
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = RingBuffer::new(2);
        for i in 0..5 {
            ring.push(access(i, 0));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 3);
        let ts: Vec<u64> = ring.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![3, 4]);
    }

    #[test]
    fn unbounded_capacity_reserves_nothing_and_still_works() {
        let mut ring = RingBuffer::new(usize::MAX);
        for i in 0..3 {
            ring.push(access(i, 0));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.recorded(), 3);
        assert_eq!(ring.dropped(), 0);
        let ts: Vec<u64> = ring.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![0, 1, 2]);
        drop(ring);
    }

    #[test]
    fn drain_preserves_order_into_memory_sink() {
        let mut ring = RingBuffer::new(8);
        ring.push(access(1, 7));
        ring.push(ObsEvent {
            t: 2,
            kind: EventKind::Dram {
                channel: 1,
                bank: 3,
                row_hit: true,
                write: false,
                queue: 12,
            },
        });
        let mut sink = MemorySink::default();
        ring.drain_to(&mut sink);
        assert!(ring.is_empty());
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].t, 1);
    }

    #[test]
    fn jsonl_sink_writes_one_parsable_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&access(9, 4));
        sink.emit(&ObsEvent {
            t: 0,
            kind: EventKind::Task {
                workload: "mcf".into(),
                scheme: "pMod".into(),
                cost: 10,
                worker: 1,
                start_us: 5,
                end_us: 25,
                wait_us: 3,
            },
        });
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = Json::parse(line).unwrap();
            assert!(v.get("ev").is_some(), "{line}");
        }
    }

    #[test]
    fn jsonl_sink_stops_at_its_first_write_error_and_returns_it() {
        /// Takes two writes, then fails every one after.
        #[derive(Debug)]
        struct Breaks {
            calls: u32,
        }
        impl Write for Breaks {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.calls += 1;
                if self.calls <= 2 {
                    Ok(buf.len())
                } else {
                    Err(std::io::ErrorKind::BrokenPipe.into())
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Breaks { calls: 0 });
        for t in 0..5 {
            sink.emit(&access(t, 0));
        }
        assert_eq!(sink.w.calls, 3, "no write after the first error");
        let err = sink.finish().expect_err("the write error comes back");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }
}
