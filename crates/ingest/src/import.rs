//! Format sniffing, validation, and conversion to [`EncodedTrace`],
//! plus the provenance stats `pcache import` prints.

use std::io::{BufRead, Read};
use std::path::Path;

use primecache_trace::{EncodedTrace, Event, FrameError, ReplayCursor, TraceEncoder, FRAME_MAGIC};
use primecache_workloads::STREAM_CHUNK;

use crate::text::{TextError, TextEvents};

/// Which on-disk shape an import consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceFormat {
    /// Line-oriented text (TRACE_FORMAT.md §text grammar).
    Text,
    /// A `PCTE` v1 frame (TRACE_FORMAT.md §wire format).
    Pcte,
}

impl std::fmt::Display for SourceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SourceFormat::Text => "text",
            SourceFormat::Pcte => "pcte",
        })
    }
}

/// Why an import failed. Each variant keeps the precise location its
/// source format can offer: text errors carry line numbers, frame
/// errors carry byte offsets.
#[derive(Debug)]
pub enum ImportError {
    /// The text grammar was violated.
    Text(TextError),
    /// A `PCTE` frame failed validation.
    Frame(FrameError),
    /// The source could not be read at all.
    Io(std::io::Error),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Text(e) => write!(f, "text trace: {e}"),
            ImportError::Frame(e) => write!(f, "PCTE frame: {e}"),
            ImportError::Io(e) => write!(f, "read failed: {e}"),
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Text(e) => Some(e),
            ImportError::Frame(e) => Some(e),
            ImportError::Io(e) => Some(e),
        }
    }
}

/// Provenance of one import: what was read and what it contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportStats {
    /// The source shape that was sniffed.
    pub format: SourceFormat,
    /// Text only: total lines consumed (0 for binary sources).
    pub lines: u64,
    /// Text only: blank/comment lines among them.
    pub silent_lines: u64,
    /// Events imported.
    pub events: u64,
    /// Loads imported.
    pub loads: u64,
    /// Stores imported.
    pub stores: u64,
    /// Branches imported.
    pub branches: u64,
    /// Instructions across all events ([`Event::instructions`]).
    pub instructions: u64,
    /// Smallest and largest memory address touched, when any memory
    /// event exists.
    pub addr_range: Option<(u64, u64)>,
}

impl ImportStats {
    fn new(format: SourceFormat) -> Self {
        Self {
            format,
            lines: 0,
            silent_lines: 0,
            events: 0,
            loads: 0,
            stores: 0,
            branches: 0,
            instructions: 0,
            addr_range: None,
        }
    }

    /// Memory references (loads + stores).
    #[must_use]
    pub fn refs(&self) -> u64 {
        self.loads + self.stores
    }

    fn count(&mut self, ev: Event) {
        self.events += 1;
        self.instructions += ev.instructions();
        match ev {
            Event::Load { .. } => self.loads += 1,
            Event::Store { .. } => self.stores += 1,
            Event::Branch { .. } => self.branches += 1,
            Event::Work(_) | Event::FpWork(_) => {}
        }
        if let Some(addr) = ev.addr() {
            self.addr_range = Some(match self.addr_range {
                None => (addr, addr),
                Some((lo, hi)) => (lo.min(addr), hi.max(addr)),
            });
        }
    }
}

/// A fully validated import: the converted trace plus its provenance.
///
/// The trace is in the same [`EncodedTrace`] form a recorded workload
/// produces — same chunk cadence, same framing — so everything
/// downstream (replay drivers, sweeps, tenant mixes, `to_bytes`
/// export) treats imported and generated traces identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Imported {
    /// The validated, converted trace.
    pub trace: EncodedTrace,
    /// What the source contained.
    pub stats: ImportStats,
}

impl Imported {
    /// An `EventChunks` cursor over the imported trace, ready for the
    /// simulation drivers (`run_chunks`, `observe_chunks`).
    /// Validation already happened at import, so replay cannot fail.
    #[must_use]
    pub fn chunks(&self) -> ReplayCursor<'_> {
        self.trace.replay()
    }
}

/// Imports a text trace from a buffered reader, streaming: lines are
/// parsed and delta/varint-encoded as they arrive; only the compact
/// encoding accumulates.
///
/// # Errors
///
/// The first [`TextError`] (with its line number), or the reader's I/O
/// failure.
fn import_text<R: BufRead>(reader: R) -> Result<Imported, ImportError> {
    let mut src = TextEvents::new(reader);
    let mut enc = TraceEncoder::new(STREAM_CHUNK);
    let mut stats = ImportStats::new(SourceFormat::Text);
    for ev in &mut src {
        let ev = ev.map_err(ImportError::Text)?;
        stats.count(ev);
        enc.push(ev);
    }
    stats.lines = src.lines();
    stats.silent_lines = src.silent_lines();
    Ok(Imported {
        trace: enc.finish(),
        stats,
    })
}

/// Provenance stats of an already-validated binary trace.
fn binary_stats(trace: &EncodedTrace, format: SourceFormat) -> ImportStats {
    let mut stats = ImportStats::new(format);
    for ev in trace.replay() {
        stats.count(ev);
    }
    stats
}

/// Imports a trace from bytes, sniffing the format by magic: `PCTE`
/// frames by their 4-byte prefix, anything else parsed as text.
///
/// # Errors
///
/// [`ImportError`] with the source format's most precise location: byte
/// offsets for `PCTE`, line numbers for text.
pub fn import_bytes(data: &[u8]) -> Result<Imported, ImportError> {
    if data.starts_with(FRAME_MAGIC) {
        let trace = EncodedTrace::from_bytes_diagnose(data).map_err(ImportError::Frame)?;
        let stats = binary_stats(&trace, SourceFormat::Pcte);
        Ok(Imported { trace, stats })
    } else {
        import_text(data)
    }
}

/// Imports a trace file ([`import_bytes`] semantics). A `PCTE` frame
/// is read whole (it is decoded in place); text streams through a
/// buffered reader without ever materializing the decoded events.
///
/// # Errors
///
/// [`ImportError::Io`] when the file cannot be opened or read, else as
/// [`import_bytes`].
pub fn import_path<P: AsRef<Path>>(path: P) -> Result<Imported, ImportError> {
    let file = std::fs::File::open(path).map_err(ImportError::Io)?;
    let mut reader = std::io::BufReader::new(file);
    let head = reader.fill_buf().map_err(ImportError::Io)?;
    if head.starts_with(FRAME_MAGIC) {
        let mut data = Vec::new();
        reader.read_to_end(&mut data).map_err(ImportError::Io)?;
        import_bytes(&data)
    } else {
        import_text(reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::load(0x1a40),
            Event::Work(3),
            Event::chase(0x2000),
            Event::FpWork(2),
            Event::Branch { mispredict: true },
            Event::Store { addr: 0x1a80 },
        ]
    }

    #[test]
    fn text_import_counts_provenance() {
        let mut buf = Vec::new();
        crate::text::write_text(sample_events(), &mut buf).unwrap();
        let imported = import_bytes(&buf).unwrap();
        assert_eq!(imported.stats.format, SourceFormat::Text);
        assert_eq!(imported.stats.events, 6);
        assert_eq!(imported.stats.loads, 2);
        assert_eq!(imported.stats.stores, 1);
        assert_eq!(imported.stats.branches, 1);
        assert_eq!(imported.stats.refs(), 3);
        assert_eq!(imported.stats.instructions, 3 + 2 + 1 + 3);
        assert_eq!(imported.stats.addr_range, Some((0x1a40, 0x2000)));
        assert_eq!(imported.stats.lines, 7); // header comment + 6 events
        assert_eq!(imported.stats.silent_lines, 1);
        assert_eq!(imported.trace.decode_all().unwrap(), sample_events());
    }

    #[test]
    fn pcte_import_round_trips_bit_exactly() {
        let trace = EncodedTrace::encode(&sample_events(), STREAM_CHUNK);
        let imported = import_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(imported.stats.format, SourceFormat::Pcte);
        assert_eq!(imported.trace, trace);
        assert_eq!(imported.trace.fingerprint(), trace.fingerprint());
        assert_eq!(imported.stats.events, 6);
        assert_eq!(imported.stats.lines, 0);
    }

    #[test]
    fn text_reencode_matches_the_recorded_frame() {
        // Export → import must reproduce the original encoding exactly,
        // chunk cadence included — the fingerprint is the witness.
        let trace = EncodedTrace::encode(&sample_events(), STREAM_CHUNK);
        let mut text = Vec::new();
        crate::text::write_text(trace.replay(), &mut text).unwrap();
        let imported = import_bytes(&text).unwrap();
        assert_eq!(imported.trace, trace);
        assert_eq!(imported.trace.fingerprint(), trace.fingerprint());
        assert_eq!(imported.trace.to_bytes(), trace.to_bytes());
    }

    #[test]
    fn a_retired_flat_dump_is_a_located_text_error() {
        // The flat `PCT1` dump is no longer a format: its bytes are read
        // as text and rejected at the line that breaks the grammar.
        let mut bytes = b"PCT1".to_vec();
        bytes.extend_from_slice(&6u64.to_le_bytes());
        bytes.extend_from_slice(&[2, 0x40, 0x1a, 0, 0, 0, 0, 0, 0, 0]);
        let err = import_bytes(&bytes).unwrap_err();
        let ImportError::Text(text) = err else {
            panic!("expected a text error, got {err}");
        };
        assert_eq!(text.line, 1);
    }

    #[test]
    fn corrupt_pcte_reports_byte_offset() {
        let trace = EncodedTrace::encode(&sample_events(), 4);
        let mut bytes = trace.to_bytes();
        bytes[48] = 0x07; // first event tag → invalid kind
        let err = import_bytes(&bytes).unwrap_err();
        let ImportError::Frame(frame) = err else {
            panic!("expected a frame error");
        };
        assert_eq!(frame.offset, 48);
    }

    #[test]
    fn malformed_text_reports_line() {
        let err = import_bytes(b"L 40\nQ 80\n").unwrap_err();
        let ImportError::Text(text) = err else {
            panic!("expected a text error");
        };
        assert_eq!(text.line, 2);
        assert!(import_bytes(b"L 40\nQ 80\n")
            .unwrap_err()
            .to_string()
            .contains("line 2"));
    }

    #[test]
    fn import_path_streams_text_and_loads_binary() {
        let dir = std::env::temp_dir().join(format!("primecache-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("t.trace");
        let mut text = Vec::new();
        crate::text::write_text(sample_events(), &mut text).unwrap();
        std::fs::write(&text_path, &text).unwrap();
        let via_file = import_path(&text_path).unwrap();
        assert_eq!(via_file, import_bytes(&text).unwrap());

        let pcte_path = dir.join("t.pcte");
        std::fs::write(&pcte_path, via_file.trace.to_bytes()).unwrap();
        let reloaded = import_path(&pcte_path).unwrap();
        assert_eq!(reloaded.trace, via_file.trace);

        assert!(matches!(
            import_path(dir.join("missing.trace")).unwrap_err(),
            ImportError::Io(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_input_is_an_empty_text_trace() {
        let imported = import_bytes(b"").unwrap();
        assert_eq!(imported.stats.format, SourceFormat::Text);
        assert_eq!(imported.trace.events(), 0);
    }
}
