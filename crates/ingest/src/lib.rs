//! External trace ingestion: parse foreign trace files into the
//! workspace's recorded-trace format.
//!
//! Two input shapes, one output (`TRACE_FORMAT.md` is the normative
//! spec for both):
//!
//! * **Line-oriented text** — a cachegrind/ChampSim-style subset
//!   (`I addr`, `L addr`, `S addr`, `W n`, plus `F n` and `B` so the
//!   format is lossless for this simulator's own events), parsed
//!   streaming with line-precise errors ([`text`]).
//! * **`PCTE` binary frames** — the recorded-trace wire format of
//!   [`primecache_trace::EncodedTrace::to_bytes`], loaded with
//!   byte-offset-precise errors
//!   ([`primecache_trace::EncodedTrace::from_bytes_diagnose`]).
//!
//! Ingestion follows the validate-then-replay idiom of the trace codec:
//! an [`Imported`] trace only exists fully validated, and
//! [`Imported::chunks`] then hands the unchanged simulation drivers a
//! panic-free [`primecache_trace::ReplayCursor`] (an `EventChunks`
//! implementation). Text parsing itself is streaming — O(1) memory in
//! decoded events; only the compact delta/varint encoding (≲5 bytes per
//! event) accumulates. Re-encoding cuts chunks at the recording cadence
//! ([`primecache_workloads::STREAM_CHUNK`]), so importing a text export
//! of a recorded trace reproduces the recorded frame **byte-for-byte**
//! (same fingerprint) — pinned by `tests/ingest_equivalence.rs` and
//! `ci/ingest_smoke.sh`.
//!
//! # Examples
//!
//! ```
//! use primecache_ingest::{import_bytes, SourceFormat};
//!
//! let imported = import_bytes(b"# two loads and a store\nL 0x1a40\nW 3\nS 1a80,8\n").unwrap();
//! assert_eq!(imported.stats.format, SourceFormat::Text);
//! assert_eq!(imported.trace.refs(), 2);
//! assert_eq!(imported.trace.events(), 3);
//! ```

mod import;
pub mod text;

pub use import::{import_bytes, import_path, ImportError, ImportStats, Imported, SourceFormat};
pub use text::{TextError, TextErrorKind, TextEvents, MAX_LINE_BYTES};
