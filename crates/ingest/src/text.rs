//! The line-oriented text trace grammar: parser, formatter, and
//! streaming reader.
//!
//! One record per line (full grammar, error classes, and examples in
//! `TRACE_FORMAT.md`):
//!
//! | line | event |
//! |---|---|
//! | `I addr` | instruction fetch → `Work(1)` (no I-cache is modelled; the address is validated, then dropped) |
//! | `L addr` / `L addr d` | `Load { dep: false / true }` |
//! | `S addr` | `Store` |
//! | `W n` / `F n` | `Work(n)` / `FpWork(n)` |
//! | `B` / `B m` | `Branch { mispredict: false / true }` |
//!
//! Addresses are hexadecimal (optional `0x` prefix, optional
//! cachegrind-style `,size` suffix — parsed, then ignored); counts are
//! decimal; neither takes a sign. `#` starts a comment; blank lines are
//! skipped. Every error carries the 1-based line number it occurred on.
//!
//! [`parse_line`] works on bytes, one field at a time, and reads
//! numbers in place; [`TextEvents`] hands it each line straight from the
//! reader's buffer. Only lines holding a byte ≥ 0x80 are checked for
//! UTF-8.

use primecache_trace::Event;

/// Longest accepted line, in bytes (excluding the newline). Lines past
/// this are rejected as [`TextErrorKind::LineTooLong`] without being
/// buffered, so a malformed gigabyte-long "line" cannot balloon memory.
pub const MAX_LINE_BYTES: usize = 4096;

/// What went wrong on a line. The variants are the normative error
/// classes of `TRACE_FORMAT.md` §text-grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextErrorKind {
    /// The line exceeds [`MAX_LINE_BYTES`] (payload: bytes seen before
    /// giving up).
    LineTooLong(usize),
    /// The line is not valid UTF-8.
    NotUtf8,
    /// The first field is not one of `I L S W F B`.
    UnknownTag(String),
    /// A required field is absent (payload: what was expected).
    MissingField(&'static str),
    /// An address field did not parse as hexadecimal (with optional
    /// `0x` prefix and `,size` suffix).
    BadAddress(String),
    /// A count field did not parse as a decimal `u32`.
    BadCount(String),
    /// The optional marker field was not `d` (dependent load) or `m`
    /// (mispredicted branch).
    BadMarker(String),
    /// Extra field after a complete record.
    TrailingField(String),
    /// The underlying reader failed (payload: the I/O error text).
    Io(String),
}

impl std::fmt::Display for TextErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextErrorKind::LineTooLong(n) => {
                write!(f, "line exceeds {MAX_LINE_BYTES} bytes ({n}+ read)")
            }
            TextErrorKind::NotUtf8 => write!(f, "line is not valid UTF-8"),
            TextErrorKind::UnknownTag(t) => write!(
                f,
                "unknown record tag `{}` (expected I, L, S, W, F, or B)",
                Payload(t)
            ),
            TextErrorKind::MissingField(what) => write!(f, "missing {what} field"),
            TextErrorKind::BadAddress(t) => {
                write!(f, "bad hexadecimal address `{}`", Payload(t))
            }
            TextErrorKind::BadCount(t) => write!(f, "bad decimal count `{}`", Payload(t)),
            TextErrorKind::BadMarker(t) => write!(
                f,
                "bad marker `{}` (expected `d` on L or `m` on B)",
                Payload(t)
            ),
            TextErrorKind::TrailingField(t) => write!(f, "trailing field `{}`", Payload(t)),
            TextErrorKind::Io(e) => write!(f, "read failed: {}", Payload(e)),
        }
    }
}

/// Longest payload, in characters, an error message shows.
const PAYLOAD_CHARS: usize = 64;

/// An error payload as a message shows it: escaped, so the control
/// bytes of a binary input never reach a terminal, and cut to
/// [`PAYLOAD_CHARS`] characters plus `…`.
struct Payload<'a>(&'a str);

impl std::fmt::Display for Payload<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cut = self
            .0
            .char_indices()
            .nth(PAYLOAD_CHARS)
            .map_or(self.0.len(), |(i, _)| i);
        write!(f, "{}", self.0[..cut].escape_debug())?;
        if cut < self.0.len() {
            write!(f, "…")?;
        }
        Ok(())
    }
}

/// A text-import failure located at a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line the error occurred on.
    pub line: u64,
    /// The error class.
    pub kind: TextErrorKind,
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for TextError {}

/// A field as error payload text. [`parse_line`] returns such an error
/// only for a line that is valid UTF-8, and fields end at ASCII bytes,
/// so the conversion is exact.
fn text(field: &[u8]) -> String {
    String::from_utf8_lossy(field).into_owned()
}

/// Ends a field: ASCII whitespace, or `#`, which starts a comment.
fn is_delimiter(b: u8) -> bool {
    b.is_ascii_whitespace() || b == b'#'
}

/// Each byte's value as a hex digit, or `u8::MAX` for a byte that is not
/// one (a lookup, where a digit test would branch on every byte).
const DIGIT_VALUE: [u8; 256] = {
    let mut table = [u8::MAX; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        table[b"0123456789ABCDEF"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Reads the longest run of `radix` digits that starts `bytes`: its
/// value (`None` past `u64`) and the bytes after it. No sign is taken.
fn read_digits(bytes: &[u8], radix: u32) -> (Option<u64>, &[u8]) {
    let mut value = Some(0u64);
    let mut rest = bytes;
    while let Some((&b, tail)) = rest.split_first() {
        let digit = u32::from(DIGIT_VALUE[usize::from(b)]);
        if digit >= radix {
            break;
        }
        value = value.and_then(|v| v.checked_mul(radix.into())?.checked_add(digit.into()));
        rest = tail;
    }
    (value, rest)
}

/// The unread rest of a line. Fields are runs of bytes that end at a
/// delimiter; a `#` where a field would start begins the comment, which
/// ends the fields. Numeric fields are read in place, in one pass.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    /// Skips whitespace; returns the rest when a field starts there.
    fn start(&mut self) -> Option<&'a [u8]> {
        let at = self
            .0
            .iter()
            .position(|b| !b.is_ascii_whitespace())
            .unwrap_or(self.0.len());
        self.0 = &self.0[at..];
        match self.0 {
            [] | [b'#', ..] => None,
            rest => Some(rest),
        }
    }

    /// Takes the next field.
    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = self.start()?;
        let end = rest
            .iter()
            .position(|&b| is_delimiter(b))
            .unwrap_or(rest.len());
        let (field, tail) = rest.split_at(end);
        self.0 = tail;
        Some(field)
    }

    /// Ends the numeric field that starts here and whose digits end at
    /// `rest`: it is `value` if the field ends there too, else `bad`
    /// of the whole field.
    fn end_field<T>(
        &mut self,
        value: Option<T>,
        rest: &'a [u8],
        bad: fn(String) -> TextErrorKind,
    ) -> Result<T, TextErrorKind> {
        match value {
            Some(v) if rest.first().is_none_or(|&b| is_delimiter(b)) => {
                self.0 = rest;
                Ok(v)
            }
            _ => Err(bad(text(self.next().unwrap_or_default()))),
        }
    }

    /// Takes an `addr` field: hex digits with optional `0x`/`0X` prefix
    /// and optional `,size` decimal suffix (accepted for cachegrind
    /// compatibility, then discarded — the simulator derives line-sized
    /// blocks from the address alone).
    fn addr(&mut self) -> Result<u64, TextErrorKind> {
        let field = self.start().ok_or(TextErrorKind::MissingField("address"))?;
        let digits = match field {
            [b'0', b'x' | b'X', digits @ ..] => digits,
            _ => field,
        };
        let (mut value, mut rest) = read_digits(digits, 16);
        if rest.len() == digits.len() {
            value = None; // no digits
        }
        if let [b',', size @ ..] = rest {
            (_, rest) = read_digits(size, 10);
            if rest.len() == size.len() {
                value = None; // no size digits
            }
        }
        self.end_field(value, rest, TextErrorKind::BadAddress)
    }

    /// Takes a `count` field: decimal digits that fit `u32`.
    fn count(&mut self) -> Result<u32, TextErrorKind> {
        let field = self.start().ok_or(TextErrorKind::MissingField("count"))?;
        let (value, rest) = read_digits(field, 10);
        let value = value
            .and_then(|v| u32::try_from(v).ok())
            .filter(|_| rest.len() < field.len());
        self.end_field(value, rest, TextErrorKind::BadCount)
    }

    /// Takes an optional marker field: absent is `false`, `want` is `true`.
    fn marker(&mut self, want: u8) -> Result<bool, TextErrorKind> {
        match self.next() {
            None => Ok(false),
            Some(&[b]) if b == want => Ok(true),
            Some(other) => Err(TextErrorKind::BadMarker(text(other))),
        }
    }
}

/// Parses one line (its bytes, without the terminator). `Ok(None)`
/// means the line carries no event (blank, or comment-only). The `#`
/// comment strip happens here, so trailing comments after a record are
/// legal. A line holding a byte ≥ 0x80 must be valid UTF-8 as a whole,
/// comment included; [`TextErrorKind::NotUtf8`] comes before any other
/// error.
pub fn parse_line(line: &[u8]) -> Result<Option<Event>, TextErrorKind> {
    let mut fields = Fields(line);
    let parsed = parse_record(&mut fields);
    // A parsed record is ASCII up to its comment, so only what is left
    // can hold other bytes.
    let unchecked = if parsed.is_ok() { fields.0 } else { line };
    if !unchecked.is_ascii() && std::str::from_utf8(line).is_err() {
        return Err(TextErrorKind::NotUtf8);
    }
    parsed
}

/// The grammar of one line, read field by field.
fn parse_record(fields: &mut Fields<'_>) -> Result<Option<Event>, TextErrorKind> {
    let Some(tag) = fields.next() else {
        return Ok(None);
    };
    let event = match tag {
        // Instruction fetch: one instruction of pipeline work. The
        // machine models no instruction cache (see TRACE_FORMAT.md),
        // so the address is validated and then dropped.
        b"I" => {
            fields.addr()?;
            Event::Work(1)
        }
        b"L" => Event::Load {
            addr: fields.addr()?,
            dep: fields.marker(b'd')?,
        },
        b"S" => Event::Store {
            addr: fields.addr()?,
        },
        b"W" => Event::Work(fields.count()?),
        b"F" => Event::FpWork(fields.count()?),
        b"B" => Event::Branch {
            mispredict: fields.marker(b'm')?,
        },
        other => return Err(TextErrorKind::UnknownTag(text(other))),
    };
    if let Some(extra) = fields.next() {
        return Err(TextErrorKind::TrailingField(text(extra)));
    }
    Ok(Some(event))
}

/// Formats one event as its canonical text line (no trailing newline).
/// Total inverse of [`parse_line`]: `parse_line(format_event(ev).as_bytes())
/// == Ok(Some(ev))` for every event — the `ingest/text-roundtrip`
/// differential unit in `primecache-check` proves it on adversarial
/// streams.
#[must_use]
pub fn format_event(ev: Event) -> String {
    match ev {
        Event::Work(n) => format!("W {n}"),
        Event::FpWork(n) => format!("F {n}"),
        Event::Branch { mispredict: false } => "B".to_string(),
        Event::Branch { mispredict: true } => "B m".to_string(),
        Event::Load { addr, dep: false } => format!("L {addr:#x}"),
        Event::Load { addr, dep: true } => format!("L {addr:#x} d"),
        Event::Store { addr } => format!("S {addr:#x}"),
    }
}

/// Writes `events` as a text trace (one canonical line per event,
/// preceded by a comment header). The output re-imports losslessly.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_text<W: std::io::Write, I: IntoIterator<Item = Event>>(
    events: I,
    mut w: W,
) -> std::io::Result<()> {
    writeln!(w, "# primecache text trace (see TRACE_FORMAT.md)")?;
    for ev in events {
        writeln!(w, "{}", format_event(ev))?;
    }
    Ok(())
}

/// Bytes of one line, terminator included, gathered before giving up
/// on it: a line of exactly [`MAX_LINE_BYTES`] plus `\r\n` still fits,
/// and anything longer is rejected once this many bytes are seen.
const LINE_BUDGET: usize = MAX_LINE_BYTES + 2;

/// Streaming line-by-line event reader: an iterator of
/// `Result<Event, TextError>` over any `BufRead` source. Stops at the
/// first error (the error is yielded once, then the iterator ends).
///
/// Each line is parsed in place in the reader's buffer. Only a line
/// that straddles the end of that buffer is copied, into a line buffer
/// bounded by [`MAX_LINE_BYTES`], so memory stays O(1) in the input. A
/// read interrupted by a signal is retried.
#[derive(Debug)]
pub struct TextEvents<R> {
    reader: R,
    buf: Vec<u8>,
    line: u64,
    event_lines: u64,
    done: bool,
}

impl<R: std::io::BufRead> TextEvents<R> {
    /// Wraps a buffered reader positioned at the start of a text trace.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            buf: Vec::new(),
            line: 0,
            event_lines: 0,
            done: false,
        }
    }

    /// Lines consumed so far (including blank and comment lines).
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.line
    }

    /// Lines that carried no event (blank or comment-only).
    #[must_use]
    pub fn silent_lines(&self) -> u64 {
        self.line - self.event_lines
    }

    /// Reads and parses the next line: `Ok(None)` at end of input, else
    /// what [`parse_line`] made of it.
    fn read_line(&mut self) -> Result<Option<Option<Event>>, TextErrorKind> {
        self.buf.clear();
        loop {
            let avail = match self.reader.fill_buf() {
                Ok(avail) => avail,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TextErrorKind::Io(e.to_string())),
            };
            if avail.is_empty() {
                // End of input: the last line had no terminator.
                if self.buf.is_empty() {
                    return Ok(None);
                }
                return finish_line(&self.buf, false).map(Some);
            }
            let window = &avail[..avail.len().min(LINE_BUDGET - self.buf.len())];
            if let Some(end) = find_newline(window) {
                let parsed = if self.buf.is_empty() {
                    finish_line(&window[..end], true)
                } else {
                    self.buf.extend_from_slice(&window[..end]);
                    finish_line(&self.buf, true)
                };
                self.reader.consume(end + 1);
                return parsed.map(Some);
            }
            let taken = window.len();
            self.buf.extend_from_slice(window);
            self.reader.consume(taken);
            if self.buf.len() == LINE_BUDGET {
                return Err(TextErrorKind::LineTooLong(LINE_BUDGET));
            }
        }
    }
}

/// Index of the first `\n` in `bytes`, tested a word at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let (words, tail) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let x = u64::from_le_bytes(*word) ^ NEWLINES;
        // The lowest high bit set here marks the first zero byte of `x`,
        // that is, the first newline.
        let zero = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if zero != 0 {
            return Some(i * 8 + zero.trailing_zeros() as usize / 8);
        }
    }
    let at = bytes.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// Enforces the length cap on a line, then parses it. A `terminated`
/// line loses one `\r` before its `\n`.
fn finish_line(line: &[u8], terminated: bool) -> Result<Option<Event>, TextErrorKind> {
    let line = match line {
        [body @ .., b'\r'] if terminated => body,
        _ => line,
    };
    if line.len() > MAX_LINE_BYTES {
        return Err(TextErrorKind::LineTooLong(line.len()));
    }
    parse_line(line)
}

impl<R: std::io::BufRead> Iterator for TextEvents<R> {
    type Item = Result<Event, TextError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            self.line += 1;
            match self.read_line() {
                Ok(None) => {
                    self.line -= 1; // nothing was read
                    self.done = true;
                }
                Ok(Some(None)) => {}
                Ok(Some(Some(ev))) => {
                    self.event_lines += 1;
                    return Some(Ok(ev));
                }
                Err(kind) => {
                    self.done = true;
                    return Some(Err(TextError {
                        line: self.line,
                        kind,
                    }));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_accepts_the_documented_forms() {
        for (line, want) in [
            ("I 0x4006f0", Event::Work(1)),
            ("L 1a40", Event::load(0x1a40)),
            ("L 0x1a40,8", Event::load(0x1a40)),
            ("L 1a40 d", Event::chase(0x1a40)),
            ("S 0X2000", Event::Store { addr: 0x2000 }),
            ("W 12", Event::Work(12)),
            ("W 0", Event::Work(0)),
            ("F 4", Event::FpWork(4)),
            ("B", Event::Branch { mispredict: false }),
            ("B m", Event::Branch { mispredict: true }),
            ("  L 40  # trailing comment", Event::load(0x40)),
        ] {
            assert_eq!(parse_line(line.as_bytes()), Ok(Some(want)), "{line:?}");
        }
        for silent in ["", "   ", "# whole-line comment", "\t"] {
            assert_eq!(parse_line(silent.as_bytes()), Ok(None), "{silent:?}");
        }
    }

    #[test]
    fn grammar_rejects_each_error_class() {
        use TextErrorKind as K;
        for (line, want) in [
            ("X 123", K::UnknownTag("X".into())),
            ("L", K::MissingField("address")),
            ("W", K::MissingField("count")),
            ("L zz", K::BadAddress("zz".into())),
            ("L 0x", K::BadAddress("0x".into())),
            ("L 40,xy", K::BadAddress("40,xy".into())),
            (
                "L 10000000000000000",
                K::BadAddress("10000000000000000".into()),
            ),
            ("W 1f", K::BadCount("1f".into())),
            ("W 4294967296", K::BadCount("4294967296".into())),
            ("W -3", K::BadCount("-3".into())),
            ("L +40", K::BadAddress("+40".into())),
            ("L 0x+40", K::BadAddress("0x+40".into())),
            ("S +ff", K::BadAddress("+ff".into())),
            ("I +4006f0", K::BadAddress("+4006f0".into())),
            ("W +5", K::BadCount("+5".into())),
            ("F +0", K::BadCount("+0".into())),
            ("L 40 x", K::BadMarker("x".into())),
            ("B d", K::BadMarker("d".into())),
            ("S 40 d", K::TrailingField("d".into())),
            ("L 40 d d", K::TrailingField("d".into())),
            ("B m 7", K::TrailingField("7".into())),
        ] {
            assert_eq!(parse_line(line.as_bytes()), Err(want), "{line:?}");
        }
    }

    #[test]
    fn error_messages_escape_and_cap_their_payloads() {
        // A binary file read as text: the error keeps the raw bytes, its
        // message shows them escaped.
        let raw = "PCT1\0\x01\x02\x1b[31m";
        let kind = parse_line(raw.as_bytes()).unwrap_err();
        assert_eq!(kind, TextErrorKind::UnknownTag(raw.into()));
        let del = parse_line(b"L 4\x7f").unwrap_err();
        let long = TextErrorKind::TrailingField("z".repeat(100));
        for kind in [kind, del, long] {
            let shown = TextError { line: 1, kind }.to_string();
            assert!(shown.bytes().all(|b| b >= 0x20 && b != 0x7F), "{shown:?}");
        }
        let shown = TextErrorKind::BadCount("z".repeat(100)).to_string();
        assert!(shown.contains(&format!("`{}…`", "z".repeat(64))), "{shown}");
        assert!(TextErrorKind::UnknownTag(raw.into())
            .to_string()
            .contains(r"`PCT1\0\u{1}\u{2}\u{1b}[31m`"));
    }

    #[test]
    fn format_parse_round_trip() {
        for ev in [
            Event::Work(0),
            Event::Work(1),
            Event::Work(u32::MAX),
            Event::FpWork(7),
            Event::Branch { mispredict: false },
            Event::Branch { mispredict: true },
            Event::load(0),
            Event::chase(u64::MAX),
            Event::Store { addr: 0xDEAD_BEEF },
        ] {
            assert_eq!(
                parse_line(format_event(ev).as_bytes()),
                Ok(Some(ev)),
                "{ev:?}"
            );
        }
    }

    #[test]
    fn reader_streams_events_with_line_numbers() {
        let src = "# header\nL 40\n\nS 80\nW 3\n";
        let events: Vec<_> = TextEvents::new(src.as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(
            events,
            vec![
                Event::load(0x40),
                Event::Store { addr: 0x80 },
                Event::Work(3)
            ]
        );
        let mut reader = TextEvents::new(src.as_bytes());
        assert_eq!(reader.by_ref().count(), 3);
        assert_eq!(reader.lines(), 5);
        assert_eq!(reader.silent_lines(), 2);
    }

    #[test]
    fn reader_reports_the_failing_line_and_stops() {
        let src = "L 40\nL 80\nbogus line\nL c0\n";
        let mut reader = TextEvents::new(src.as_bytes());
        assert_eq!(reader.next(), Some(Ok(Event::load(0x40))));
        assert_eq!(reader.next(), Some(Ok(Event::load(0x80))));
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.kind, TextErrorKind::UnknownTag("bogus".into()));
        assert!(err.to_string().starts_with("line 3:"));
        assert_eq!(reader.next(), None, "errors end the stream");
    }

    #[test]
    fn overlong_line_rejected_without_buffering_it() {
        let mut src = b"L 40\n".to_vec();
        src.extend(std::iter::repeat_n(b'a', MAX_LINE_BYTES + 100));
        let mut reader = TextEvents::new(&src[..]);
        assert_eq!(reader.next(), Some(Ok(Event::load(0x40))));
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, TextErrorKind::LineTooLong(_)));
        // The cap bounds what was read: budget, not the whole line.
        if let TextErrorKind::LineTooLong(n) = err.kind {
            assert!(n <= MAX_LINE_BYTES + 2, "buffered {n} bytes");
        }
    }

    #[test]
    fn max_length_line_is_accepted() {
        // "W 7" padded with trailing spaces to exactly MAX_LINE_BYTES.
        let mut line = "W 7".to_string();
        line.push_str(&" ".repeat(MAX_LINE_BYTES - line.len()));
        let src = format!("{line}\nL 40\n");
        let events: Vec<_> = TextEvents::new(src.as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(events, vec![Event::Work(7), Event::load(0x40)]);
    }

    #[test]
    fn non_utf8_line_rejected() {
        let src = b"L 40\n\xFF\xFE bogus\n";
        let mut reader = TextEvents::new(&src[..]);
        assert_eq!(reader.next(), Some(Ok(Event::load(0x40))));
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.kind, TextErrorKind::NotUtf8);
    }

    #[test]
    fn reader_retries_interrupted_reads() {
        // Every other read is interrupted; a 3-byte buffer makes lines
        // straddle it, so the retry happens mid-line too.
        struct Interrupting<'a>(&'a [u8], bool);
        impl std::io::Read for Interrupting<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                self.0.read(out)
            }
        }
        let src = b"L 40\nW 12 # work\nS 0x80";
        let reader = std::io::BufReader::with_capacity(3, Interrupting(src, false));
        let events: Vec<_> = TextEvents::new(reader)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(
            events,
            vec![
                Event::load(0x40),
                Event::Work(12),
                Event::Store { addr: 0x80 }
            ]
        );
    }

    #[test]
    fn missing_final_newline_still_parses() {
        let events: Vec<_> = TextEvents::new(&b"L 40\nS 80"[..])
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(events, vec![Event::load(0x40), Event::Store { addr: 0x80 }]);
    }
}
