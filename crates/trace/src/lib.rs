//! Memory-trace infrastructure: event types, synthetic strided generators,
//! statistics, and a compact binary format.
//!
//! The reproduction is trace-driven: a workload is an iterator of
//! [`Event`]s — non-memory work, branches, loads, stores — consumed by the
//! timing model in `primecache-cpu`. The [`strided`] generator produces the
//! pure strided access patterns of the paper's §5.1 balance/concentration
//! study (Figs. 5 and 6).
//!
//! # Examples
//!
//! ```
//! use primecache_trace::{strided, Event};
//!
//! let mut trace = strided(64, 4, 3);
//! assert!(matches!(trace.next(), Some(Event::Load { addr: 0, .. })));
//! assert!(matches!(trace.next(), Some(Event::Work(3))));
//! assert!(matches!(trace.next(), Some(Event::Load { addr: 64, .. })));
//! ```

pub mod encode;
mod event;
mod gen;
mod stats;
mod transforms;

pub use encode::{
    EncodedChunk, EncodedTrace, FrameError, ReplayCursor, TraceCodecError, TraceEncoder,
    FRAME_MAGIC, WIRE_VERSION,
};
pub use event::Event;
pub use gen::{strided, strided_bytes, Strided};
pub use stats::TraceStats;
pub use transforms::{interleave, offset_addresses};
