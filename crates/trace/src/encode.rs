//! Compact delta/varint event encoding: the recorded-trace wire format.
//!
//! An in-memory [`Event`] is 16 bytes; a suite-size trace at hundreds of
//! millions of references would not fit in memory. This module packs
//! an event stream into independently decodable [`EncodedChunk`]s at a
//! few bytes per event, so a trace can be generated **once** and
//! replayed for any number of runs ([`ReplayCursor`]), and so external
//! traces can be imported through the same framing
//! ([`EncodedTrace::to_bytes`] / [`EncodedTrace::from_bytes`]).
//!
//! # Wire layout (version 1)
//!
//! Every event starts with one tag byte:
//!
//! ```text
//! bit 7 6 5 4 | 3    | 2 1 0
//!     payload | flag | kind
//! ```
//!
//! `kind` is `0` Work, `1` FpWork, `2` Branch, `3` Load, `4` Store
//! (`5..=7` are invalid). `flag` carries `Load::dep` / `Branch::mispredict`
//! and must be zero for the other kinds. The 4-bit `payload` nibble is
//! kind-specific:
//!
//! * **Work/FpWork** — instruction counts `0..=14` are stored inline in
//!   the nibble; `15` escapes to a LEB128 varint of the full count.
//! * **Branch** — the nibble must be zero; the tag byte is the whole event.
//! * **Load/Store** — addresses are delta-coded: with `delta =
//!   addr.wrapping_sub(prev_addr)` (`prev_addr` = the previous memory
//!   event's address, starting from the chunk's `base_addr`) and `z =
//!   zigzag(delta)`, the nibble holds the low 4 bits of `z` and a varint
//!   of `z >> 4` follows. Wrapping arithmetic makes the delta lossless
//!   for *any* pair of `u64` addresses.
//!
//! Varints are LEB128: little-endian 7-bit groups, high bit = continue.
//! A strided access pattern (delta fits 11 bits zigzagged) costs 2 bytes
//! per memory event; compute and branch events cost 1. The
//! `encoded_chunks_stay_compact` test pins the ≲5 bytes/event target on
//! real workload traffic.
//!
//! Chunks are self-contained: each records the `prev_addr` context at
//! its start (`base_addr`), so a chunk decodes without touching its
//! predecessors and replay hands out one decoded chunk at a time —
//! exactly the shape the batched simulation drivers consume.

use crate::Event;

/// Version byte written into [`EncodedTrace::to_bytes`] frames.
pub const WIRE_VERSION: u8 = 1;

/// Magic prefix of a serialized [`EncodedTrace`] frame ("prime cache
/// trace, encoded").
pub const FRAME_MAGIC: &[u8; 4] = b"PCTE";

/// Errors produced when decoding an encoded trace: a chunk's payload
/// or a serialized `PCTE` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCodecError {
    /// The magic header was wrong or missing.
    BadMagic,
    /// The stream ended mid-record.
    Truncated,
    /// An unknown record tag was found.
    BadTag(u8),
    /// The frame declares a wire version this decoder does not speak.
    BadVersion(u8),
    /// The byte stream is internally inconsistent (overlong varint,
    /// trailing garbage, a count field that contradicts the payload).
    Corrupt(&'static str),
}

impl std::fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCodecError::BadMagic => write!(f, "bad trace magic"),
            TraceCodecError::Truncated => write!(f, "truncated trace stream"),
            TraceCodecError::BadTag(t) => write!(f, "unknown trace record tag {t}"),
            TraceCodecError::BadVersion(v) => write!(f, "unsupported trace wire version {v}"),
            TraceCodecError::Corrupt(what) => write!(f, "corrupt trace stream: {what}"),
        }
    }
}

impl std::error::Error for TraceCodecError {}

const KIND_WORK: u8 = 0;
const KIND_FP_WORK: u8 = 1;
const KIND_BRANCH: u8 = 2;
const KIND_LOAD: u8 = 3;
const KIND_STORE: u8 = 4;
const KIND_MASK: u8 = 0x07;
const FLAG_BIT: u8 = 0x08;
/// Tag low nibble (kind and flag) of a mispredicted branch.
const BRANCH_MISPREDICT: u8 = KIND_BRANCH | FLAG_BIT;
/// Tag low nibble (kind and flag) of a dependent load.
const LOAD_DEP: u8 = KIND_LOAD | FLAG_BIT;
/// Work/FpWork nibble value that escapes to a full varint count.
const INLINE_ESCAPE: u8 = 15;

/// Appends `v` as a LEB128 varint (7 bits per byte, low group first,
/// high bit set on every byte but the last; at most 10 bytes).
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint starting at `*pos`, advancing `*pos` past it.
///
/// # Errors
///
/// [`TraceCodecError::Truncated`] when the buffer ends mid-varint;
/// [`TraceCodecError::Corrupt`] when the encoding overflows 64 bits.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceCodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(TraceCodecError::Truncated)?;
        *pos += 1;
        let group = u64::from(byte & 0x7F);
        // The 10th byte may only contribute the top bit of a u64.
        if shift == 63 && group > 1 || shift > 63 {
            return Err(TraceCodecError::Corrupt("varint overflows 64 bits"));
        }
        v |= group << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed delta to an unsigned varint-friendly value:
/// small magnitudes of either sign become small codes.
#[must_use]
pub fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
#[allow(clippy::cast_possible_wrap)]
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Encodes one event, updating the address-delta context.
///
/// Always inlined, so that [`TraceEncoder::push_slice`]'s loop keeps the
/// output buffer in registers: called out of line, recording a workload
/// through its pushed chunks measured 15–30% slower than encoding inside
/// the generator, as recording did before it consumed the chunk push.
#[inline(always)]
#[allow(clippy::cast_possible_truncation)]
fn encode_event(buf: &mut Vec<u8>, prev_addr: &mut u64, ev: Event) {
    let addr_event = |buf: &mut Vec<u8>, prev: &mut u64, kind: u8, flag: u8, addr: u64| {
        let z = zigzag(addr.wrapping_sub(*prev) as i64);
        buf.push(kind | flag | (((z & 0xF) as u8) << 4));
        write_varint(buf, z >> 4);
        *prev = addr;
    };
    match ev {
        Event::Work(n) | Event::FpWork(n) => {
            let kind = if matches!(ev, Event::Work(_)) {
                KIND_WORK
            } else {
                KIND_FP_WORK
            };
            if n < u32::from(INLINE_ESCAPE) {
                buf.push(kind | ((n as u8) << 4));
            } else {
                buf.push(kind | (INLINE_ESCAPE << 4));
                write_varint(buf, u64::from(n));
            }
        }
        Event::Branch { mispredict } => {
            buf.push(KIND_BRANCH | if mispredict { FLAG_BIT } else { 0 });
        }
        Event::Load { addr, dep } => {
            addr_event(
                buf,
                prev_addr,
                KIND_LOAD,
                if dep { FLAG_BIT } else { 0 },
                addr,
            );
        }
        Event::Store { addr } => addr_event(buf, prev_addr, KIND_STORE, 0, addr),
    }
}

/// One independently decodable span of encoded events.
///
/// `base_addr` is the delta context (the previous memory event's
/// address, or 0 at trace start) in force when the chunk began, so
/// decoding never needs the preceding chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedChunk {
    events: u32,
    base_addr: u64,
    bytes: Vec<u8>,
}

impl EncodedChunk {
    /// Number of events in the chunk.
    #[must_use]
    pub fn events(&self) -> usize {
        self.events as usize
    }

    /// Decodes the chunk back into a new `Vec` of events; a thin wrapper
    /// of the one chunk decoder (`decode_into`).
    ///
    /// # Errors
    ///
    /// Returns the [`TraceCodecError`] of the first failure: the payload
    /// is truncated, carries an invalid tag or varint, overflows a field,
    /// or has bytes after the declared event count.
    pub fn decode(&self) -> Result<Vec<Event>, TraceCodecError> {
        let mut out = Vec::new();
        self.decode_into(&mut out).map_err(|(_, e)| e)?;
        Ok(out)
    }

    /// Decodes the chunk into `out`, replacing its contents and keeping
    /// its capacity: the one decoder behind replay, import validation
    /// and [`EncodedTrace::decode_all`].
    ///
    /// # Errors
    ///
    /// Returns the payload offset and [`TraceCodecError`] of the first
    /// failure: the start of the offending event when the payload is
    /// truncated, carries an invalid tag or varint, or overflows a field;
    /// the end of the last event when bytes trail the declared event
    /// count. `out` then holds the events before the failure.
    fn decode_into(&self, out: &mut Vec<Event>) -> Result<(), (usize, TraceCodecError)> {
        out.clear();
        // Every event encodes to at least one byte, so the payload bounds
        // the reservation whatever event count a frame declares.
        out.reserve((self.events as usize).min(self.bytes.len()));
        let bytes = &self.bytes[..];
        let mut prev = self.base_addr;
        let mut pos = 0usize;
        for _ in 0..self.events {
            let at = pos;
            let fail = |e| (at, e);
            let &tag = bytes.get(pos).ok_or(fail(TraceCodecError::Truncated))?;
            pos += 1;
            let nibble = tag >> 4;
            // The low nibble is the kind and the flag: one arm per valid
            // pattern, every other pattern is reserved.
            let ev = match tag & (KIND_MASK | FLAG_BIT) {
                KIND_WORK => Event::Work(read_count(bytes, &mut pos, nibble).map_err(fail)?),
                KIND_FP_WORK => Event::FpWork(read_count(bytes, &mut pos, nibble).map_err(fail)?),
                KIND_BRANCH if nibble == 0 => Event::Branch { mispredict: false },
                BRANCH_MISPREDICT if nibble == 0 => Event::Branch { mispredict: true },
                KIND_LOAD => Event::Load {
                    addr: read_addr(bytes, &mut pos, nibble, &mut prev).map_err(fail)?,
                    dep: false,
                },
                LOAD_DEP => Event::Load {
                    addr: read_addr(bytes, &mut pos, nibble, &mut prev).map_err(fail)?,
                    dep: true,
                },
                KIND_STORE => Event::Store {
                    addr: read_addr(bytes, &mut pos, nibble, &mut prev).map_err(fail)?,
                },
                _ => return Err(fail(TraceCodecError::BadTag(tag))),
            };
            out.push(ev);
        }
        if pos != bytes.len() {
            return Err((
                pos,
                TraceCodecError::Corrupt("trailing bytes after last event"),
            ));
        }
        Ok(())
    }
}

/// [`read_varint`] with the one-byte case, which most varints of real
/// traces are, ahead of the general loop.
#[inline(always)]
fn read_short_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceCodecError> {
    match bytes.get(*pos) {
        Some(&b) if b < 0x80 => {
            *pos += 1;
            Ok(u64::from(b))
        }
        _ => read_varint(bytes, pos),
    }
}

/// A Work/FpWork count: the tag nibble, or the varint it escapes to.
#[inline(always)]
fn read_count(bytes: &[u8], pos: &mut usize, nibble: u8) -> Result<u32, TraceCodecError> {
    if nibble < INLINE_ESCAPE {
        return Ok(u32::from(nibble));
    }
    let n = read_short_varint(bytes, pos)?;
    u32::try_from(n).map_err(|_| TraceCodecError::Corrupt("work count exceeds u32"))
}

/// A Load/Store address: the zigzag delta's high bits from the varint,
/// its low 4 bits from the tag nibble, applied to the delta context.
#[inline(always)]
fn read_addr(
    bytes: &[u8],
    pos: &mut usize,
    nibble: u8,
    prev: &mut u64,
) -> Result<u64, TraceCodecError> {
    let hi = read_short_varint(bytes, pos)?;
    if hi >> 60 != 0 {
        return Err(TraceCodecError::Corrupt("address delta overflows 64 bits"));
    }
    let z = (hi << 4) | u64::from(nibble);
    *prev = prev.wrapping_add(unzigzag(z) as u64);
    Ok(*prev)
}

/// A frame-decoding failure located at a byte offset.
///
/// [`EncodedTrace::from_bytes_diagnose`] returns this instead of a bare
/// [`TraceCodecError`] so importers can point at the exact offending byte
/// of an external file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// Byte offset into the frame where decoding failed: the start of
    /// the field (or encoded event) that could not be read.
    pub offset: usize,
    /// What went wrong there.
    pub error: TraceCodecError,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte offset {}: {}", self.offset, self.error)
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Streaming encoder: push events, get an [`EncodedTrace`] of
/// `chunk_events`-sized [`EncodedChunk`]s back.
///
/// A workload's recording (`Workload::record`) hands it each chunk the
/// generator pushes, on the generator's thread, through
/// [`TraceEncoder::push_slice`]; the text importer pushes its events one
/// at a time.
#[derive(Debug)]
pub struct TraceEncoder {
    chunk_events: usize,
    chunks: Vec<EncodedChunk>,
    buf: Vec<u8>,
    in_chunk: u32,
    chunk_base: u64,
    prev_addr: u64,
    events: u64,
    refs: u64,
}

impl TraceEncoder {
    /// Creates an encoder cutting chunks every `chunk_events` events.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_events` is zero or exceeds `u32::MAX`.
    #[must_use]
    pub fn new(chunk_events: usize) -> Self {
        assert!(chunk_events > 0, "chunk_events must be positive");
        assert!(
            u32::try_from(chunk_events).is_ok(),
            "chunk_events must fit u32"
        );
        Self {
            chunk_events,
            chunks: Vec::new(),
            buf: Vec::with_capacity(chunk_events * 3),
            in_chunk: 0,
            chunk_base: 0,
            prev_addr: 0,
            events: 0,
            refs: 0,
        }
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        encode_event(&mut self.buf, &mut self.prev_addr, ev);
        if ev.is_memory() {
            self.refs += 1;
        }
        self.events += 1;
        self.in_chunk += 1;
        if self.in_chunk as usize == self.chunk_events {
            self.flush_chunk();
        }
    }

    /// Appends every event of `events`, in order: the same bytes as
    /// [`TraceEncoder::push`] on each, with the encoder's state held in
    /// locals across each run of events that fits the current chunk.
    #[allow(clippy::cast_possible_truncation)]
    pub fn push_slice(&mut self, mut events: &[Event]) {
        while !events.is_empty() {
            let room = self.chunk_events - self.in_chunk as usize;
            let (now, rest) = events.split_at(room.min(events.len()));
            let mut buf = std::mem::take(&mut self.buf);
            let mut prev_addr = self.prev_addr;
            let mut refs = 0;
            for &ev in now {
                encode_event(&mut buf, &mut prev_addr, ev);
                refs += u64::from(ev.is_memory());
            }
            self.buf = buf;
            self.prev_addr = prev_addr;
            self.refs += refs;
            self.events += now.len() as u64;
            // `now` fits the chunk's room, which fits `u32`.
            self.in_chunk += now.len() as u32;
            if self.in_chunk as usize == self.chunk_events {
                self.flush_chunk();
            }
            events = rest;
        }
    }

    fn flush_chunk(&mut self) {
        if self.in_chunk == 0 {
            return;
        }
        let cap = self.buf.capacity();
        self.chunks.push(EncodedChunk {
            events: self.in_chunk,
            base_addr: self.chunk_base,
            bytes: std::mem::replace(&mut self.buf, Vec::with_capacity(cap)),
        });
        self.in_chunk = 0;
        self.chunk_base = self.prev_addr;
    }

    /// Seals the trace, flushing any partially filled final chunk.
    #[must_use]
    pub fn finish(mut self) -> EncodedTrace {
        self.flush_chunk();
        EncodedTrace {
            chunks: self.chunks,
            events: self.events,
            refs: self.refs,
            chunk_events: self.chunk_events,
        }
    }
}

/// A complete recorded trace: encoded chunks plus totals.
///
/// Replay never re-decodes from the start: [`EncodedTrace::replay`]
/// hands out a borrowing cursor that decodes one chunk at a time, so any
/// number of simultaneous replays share the single encoded copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedTrace {
    chunks: Vec<EncodedChunk>,
    events: u64,
    refs: u64,
    chunk_events: usize,
}

impl EncodedTrace {
    /// Encodes a materialized event slice (tests, importers). The
    /// recording hot path streams through [`TraceEncoder`] instead.
    #[must_use]
    pub fn encode(events: &[Event], chunk_events: usize) -> Self {
        let mut enc = TraceEncoder::new(chunk_events);
        enc.push_slice(events);
        enc.finish()
    }

    /// Total events recorded.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Memory references (loads + stores) recorded.
    #[must_use]
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// The encoder's chunk size (events per full chunk).
    #[must_use]
    pub fn chunk_events(&self) -> usize {
        self.chunk_events
    }

    /// The encoded chunks.
    #[must_use]
    pub fn chunks(&self) -> &[EncodedChunk] {
        &self.chunks
    }

    /// Total encoded payload bytes across all chunks.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.bytes.len() as u64).sum()
    }

    /// Mean encoded bytes per event (the ≲5 B/event compactness metric).
    #[must_use]
    pub fn bytes_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.encoded_bytes() as f64 / self.events as f64
        }
    }

    /// A zero-copy replay cursor over the encoded chunks.
    #[must_use]
    pub fn replay(&self) -> ReplayCursor<'_> {
        ReplayCursor {
            chunks: self.chunks.iter(),
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Decodes the whole trace into one `Vec` (tests, importers); a thin
    /// wrapper of the chunk decoder.
    ///
    /// # Errors
    ///
    /// Returns the first chunk's [`TraceCodecError`], if any.
    pub fn decode_all(&self) -> Result<Vec<Event>, TraceCodecError> {
        let mut out = Vec::with_capacity(self.events as usize);
        let mut chunk = Vec::new();
        for c in &self.chunks {
            c.decode_into(&mut chunk).map_err(|(_, e)| e)?;
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    /// Serializes the trace with the on-disk framing:
    ///
    /// ```text
    /// "PCTE" | version u8 | 3 reserved zero bytes
    /// events u64 le | refs u64 le | chunk_events u32 le | chunk count u32 le
    /// then per chunk: events u32 le | base_addr u64 le | len u32 le | payload
    /// ```
    ///
    /// This framing is the contract the `primecache-ingest` importer and
    /// `pcache import` consume; TRACE_FORMAT.md is the normative
    /// description.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(32 + self.encoded_bytes() as usize + self.chunks.len() * 16);
        out.extend_from_slice(FRAME_MAGIC);
        out.push(WIRE_VERSION);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&self.events.to_le_bytes());
        out.extend_from_slice(&self.refs.to_le_bytes());
        out.extend_from_slice(&(self.chunk_events as u32).to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.events.to_le_bytes());
            out.extend_from_slice(&c.base_addr.to_le_bytes());
            out.extend_from_slice(&(c.bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&c.bytes);
        }
        out
    }

    /// Deserializes and *fully validates* a frame written by
    /// [`EncodedTrace::to_bytes`]: every chunk is decoded once, so a
    /// trace accepted here can never fail during replay.
    ///
    /// # Errors
    ///
    /// Returns [`TraceCodecError`] on a bad magic or version, truncation,
    /// trailing bytes, totals that contradict the chunks, or any invalid
    /// chunk payload.
    pub fn from_bytes(data: &[u8]) -> Result<Self, TraceCodecError> {
        Self::from_bytes_diagnose(data).map_err(|e| e.error)
    }

    /// [`EncodedTrace::from_bytes`] with byte-offset error reporting: a
    /// failure carries the offset of the header field, chunk header, or
    /// encoded event that could not be decoded. This is what `pcache
    /// import` prints for a corrupt `PCTE` file.
    ///
    /// # Errors
    ///
    /// The same rejections as [`EncodedTrace::from_bytes`], as
    /// [`FrameError`]s.
    pub fn from_bytes_diagnose(data: &[u8]) -> Result<Self, FrameError> {
        let at = |offset: usize, error: TraceCodecError| FrameError { offset, error };
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], FrameError> {
            let s = data
                .get(*pos..*pos + n)
                .ok_or(at(*pos, TraceCodecError::Truncated))?;
            *pos += n;
            Ok(s)
        };
        if data.len() < 4 || &data[..4] != FRAME_MAGIC {
            return Err(at(0, TraceCodecError::BadMagic));
        }
        let mut pos = 4usize;
        let version = take(&mut pos, 1)?[0];
        if version != WIRE_VERSION {
            return Err(at(4, TraceCodecError::BadVersion(version)));
        }
        if take(&mut pos, 3)? != [0u8; 3] {
            return Err(at(
                5,
                TraceCodecError::Corrupt("nonzero reserved header bytes"),
            ));
        }
        let le64 = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8-byte slice"));
        let le32 = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4-byte slice"));
        let events = le64(take(&mut pos, 8)?);
        let refs = le64(take(&mut pos, 8)?);
        let chunk_events_at = pos;
        let chunk_events = le32(take(&mut pos, 4)?) as usize;
        let n_chunks = le32(take(&mut pos, 4)?) as usize;
        if chunk_events == 0 {
            return Err(at(
                chunk_events_at,
                TraceCodecError::Corrupt("zero chunk_events"),
            ));
        }
        // Each chunk takes a 16-byte header, so the input bounds the
        // reservation whatever chunk count the frame declares.
        let mut chunks = Vec::with_capacity(n_chunks.min((data.len() - pos) / 16));
        let (mut seen_events, mut seen_refs) = (0u64, 0u64);
        let mut decoded = Vec::new();
        for _ in 0..n_chunks {
            let c_events = le32(take(&mut pos, 4)?);
            let base_addr = le64(take(&mut pos, 8)?);
            let len = le32(take(&mut pos, 4)?) as usize;
            let payload_at = pos;
            let bytes = take(&mut pos, len)?.to_vec();
            let chunk = EncodedChunk {
                events: c_events,
                base_addr,
                bytes,
            };
            // Validate up front: decode once, count the memory refs.
            chunk
                .decode_into(&mut decoded)
                .map_err(|(off, e)| at(payload_at + off, e))?;
            seen_refs += decoded.iter().filter(|e| e.is_memory()).count() as u64;
            seen_events += u64::from(c_events);
            chunks.push(chunk);
        }
        if pos != data.len() {
            return Err(at(
                pos,
                TraceCodecError::Corrupt("trailing bytes after last chunk"),
            ));
        }
        if seen_events != events {
            return Err(at(
                8,
                TraceCodecError::Corrupt("event count contradicts chunks"),
            ));
        }
        if seen_refs != refs {
            return Err(at(
                16,
                TraceCodecError::Corrupt("ref count contradicts chunks"),
            ));
        }
        Ok(Self {
            chunks,
            events,
            refs,
            chunk_events,
        })
    }

    /// A 64-bit FNV-1a fingerprint of the serialized frame — exactly the
    /// hash of the [`EncodedTrace::to_bytes`] output, computed without
    /// materializing it. Two traces fingerprint equal iff their framed
    /// bytes are equal (same events *and* same chunk cadence), so this is
    /// the cheap bit-exactness check `pcache import`, `pcache inspect`,
    /// and `ci/ingest_smoke.sh` compare.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        };
        feed(FRAME_MAGIC);
        feed(&[WIRE_VERSION, 0, 0, 0]);
        feed(&self.events.to_le_bytes());
        feed(&self.refs.to_le_bytes());
        feed(&(self.chunk_events as u32).to_le_bytes());
        feed(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            feed(&c.events.to_le_bytes());
            feed(&c.base_addr.to_le_bytes());
            feed(&(c.bytes.len() as u32).to_le_bytes());
            feed(&c.bytes);
        }
        h
    }
}

/// Iterator/chunk cursor over a borrowed [`EncodedTrace`].
///
/// Replay is read-only: any number of cursors can replay the same
/// recording concurrently. Each decodes one chunk at a time into one
/// buffer it owns and reuses, so peak decoded memory is one chunk, as in
/// the live generator path, and no chunk allocates.
///
/// [`ReplayCursor::fill_buf`] and [`ReplayCursor::consume`] read the
/// buffer a slice at a time, the remainder of a partially iterated chunk
/// first: interleaving item and slice reads still yields the recorded
/// sequence exactly once.
#[derive(Debug)]
pub struct ReplayCursor<'a> {
    chunks: std::slice::Iter<'a, EncodedChunk>,
    /// The current chunk, decoded.
    buf: Vec<Event>,
    /// Events of `buf` already delivered.
    pos: usize,
}

impl ReplayCursor<'_> {
    /// The undelivered rest of the current chunk, after decoding the next
    /// non-empty chunk if it is used up; empty at the end of the trace.
    /// Mark what was taken with [`ReplayCursor::consume`].
    pub fn fill_buf(&mut self) -> &[Event] {
        if self.pos == self.buf.len() {
            self.refill();
        }
        &self.buf[self.pos..]
    }

    /// Marks the first `n` events of [`ReplayCursor::fill_buf`] as
    /// delivered (at most all of them).
    pub fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.buf.len());
    }

    /// Decodes chunks into the buffer until it holds an undelivered
    /// event or the trace ends.
    #[inline(never)]
    fn refill(&mut self) {
        while self.pos == self.buf.len() {
            let Some(chunk) = self.chunks.next() else {
                return;
            };
            // Traces only exist validated: the encoder produced these
            // bytes, or `from_bytes` already decoded them once.
            chunk
                .decode_into(&mut self.buf)
                .expect("validated chunk decodes");
            self.pos = 0;
        }
    }
}

impl Iterator for ReplayCursor<'_> {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        if self.pos == self.buf.len() {
            self.refill();
        }
        let ev = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(ev)
    }

    /// Runs `f` over each decoded chunk as a slice loop, which the
    /// default `fold` (a `next` call per event) does not compile to.
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Event) -> B,
    {
        let mut acc = init;
        loop {
            let events = self.fill_buf();
            if events.is_empty() {
                return acc;
            }
            acc = events.iter().copied().fold(acc, &mut f);
            self.pos = self.buf.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_events() -> Vec<Event> {
        vec![
            Event::Work(0),
            Event::Work(14),
            Event::Work(15),
            Event::Work(u32::MAX),
            Event::FpWork(7),
            Event::FpWork(40_000),
            Event::Branch { mispredict: false },
            Event::Branch { mispredict: true },
            Event::load(0),
            Event::load(64),
            Event::chase(u64::MAX),
            Event::Store { addr: 0 },
            Event::Store { addr: 0xDEAD_BEEF },
            Event::load(1),
        ]
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes: too many bits for a u64.
        let buf = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7F];
        let mut pos = 0;
        assert_eq!(
            read_varint(&buf, &mut pos),
            Err(TraceCodecError::Corrupt("varint overflows 64 bits"))
        );
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for d in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d, "{d}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn all_event_variants_round_trip() {
        let events = mixed_events();
        for chunk_events in [1usize, 3, 16, 1024] {
            let trace = EncodedTrace::encode(&events, chunk_events);
            assert_eq!(trace.decode_all().unwrap(), events, "chunk={chunk_events}");
            assert_eq!(trace.events(), events.len() as u64);
            assert_eq!(
                trace.refs(),
                events.iter().filter(|e| e.is_memory()).count() as u64
            );
        }
    }

    /// The cursor's next slice, marked delivered: what the chunk push
    /// hands its consumer.
    fn next_slice(cur: &mut ReplayCursor<'_>) -> Option<Vec<Event>> {
        let events = cur.fill_buf().to_vec();
        cur.consume(events.len());
        (!events.is_empty()).then_some(events)
    }

    #[test]
    fn replay_cursor_matches_decode_all() {
        let events = mixed_events();
        let trace = EncodedTrace::encode(&events, 4);
        let replayed: Vec<Event> = trace.replay().collect();
        assert_eq!(replayed, events);
        let folded = trace.replay().fold(Vec::new(), |mut v, ev| {
            v.push(ev);
            v
        });
        assert_eq!(folded, events);
        let mut chunked = Vec::new();
        let mut cur = trace.replay();
        while let Some(c) = next_slice(&mut cur) {
            assert_eq!(c.len(), 4.min(events.len() - chunked.len()));
            chunked.extend(c);
        }
        assert_eq!(chunked, events);
    }

    #[test]
    fn interleaved_item_and_chunk_pulls_preserve_order() {
        let events: Vec<Event> = (0..100u64).map(|i| Event::load(i * 64)).collect();
        let trace = EncodedTrace::encode(&events, 16);
        let mut cur = trace.replay();
        let mut got = Vec::new();
        for _ in 0..7 {
            got.push(cur.next().unwrap());
        }
        let rest = next_slice(&mut cur).unwrap();
        assert_eq!(rest.len(), 9, "the remainder of chunk 1");
        got.extend(rest);
        got.push(cur.next().unwrap());
        // A fold after partial iteration starts at the remainder.
        got.extend(cur.fold(Vec::new(), |mut v, ev| {
            v.push(ev);
            v
        }));
        assert_eq!(got, events);
    }

    #[test]
    fn decode_into_reuses_its_buffer() {
        let events: Vec<Event> = (0..64u64).map(|i| Event::load(i * 8)).collect();
        let trace = EncodedTrace::encode(&events, 32);
        let mut buf = Vec::new();
        trace.chunks()[0].decode_into(&mut buf).unwrap();
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        trace.chunks()[1].decode_into(&mut buf).unwrap();
        assert_eq!(buf, events[32..]);
        assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
    }

    #[test]
    fn empty_chunks_push_no_slice() {
        // A frame may declare a chunk of zero events; replay skips it.
        let trace = EncodedTrace::encode(&[Event::Work(1)], 4);
        let mut bytes = trace.to_bytes();
        bytes[28] = 2; // two chunks, the second one empty
        bytes.extend_from_slice(&[0u8; 16]);
        let back = EncodedTrace::from_bytes(&bytes).unwrap();
        let mut cur = back.replay();
        assert_eq!(next_slice(&mut cur), Some(vec![Event::Work(1)]));
        assert_eq!(next_slice(&mut cur), None);
        assert_eq!(back.replay().count(), 1);
    }

    #[test]
    fn decode_into_locates_every_rejection() {
        let chunk = |events: u32, bytes: Vec<u8>| EncodedChunk {
            events,
            base_addr: 0,
            bytes,
        };
        // Every reserved pattern is an error, so a set flag on a
        // flagless kind never aliases another event.
        let cases: [(EncodedChunk, (usize, TraceCodecError)); 10] = [
            (chunk(2, vec![0x10]), (1, TraceCodecError::Truncated)),
            (
                chunk(2, vec![0x10, 0x05]),
                (1, TraceCodecError::BadTag(0x05)),
            ),
            (chunk(1, vec![0x18]), (0, TraceCodecError::BadTag(0x18))),
            (chunk(1, vec![0x09]), (0, TraceCodecError::BadTag(0x09))),
            (
                chunk(1, vec![0x0C, 0x00]),
                (0, TraceCodecError::BadTag(0x0C)),
            ),
            (chunk(1, vec![0x22]), (0, TraceCodecError::BadTag(0x22))),
            (
                chunk(2, vec![0x00, 0xF0, 0x80, 0x80, 0x80, 0x80, 0x10]),
                (1, TraceCodecError::Corrupt("work count exceeds u32")),
            ),
            (
                chunk(1, {
                    let mut b = vec![KIND_LOAD];
                    write_varint(&mut b, 1 << 60);
                    b
                }),
                (
                    0,
                    TraceCodecError::Corrupt("address delta overflows 64 bits"),
                ),
            ),
            (
                chunk(1, [&[KIND_STORE][..], &[0x80; 10], &[0x00]].concat()),
                (0, TraceCodecError::Corrupt("varint overflows 64 bits")),
            ),
            (
                chunk(1, vec![0x10, 0x00]),
                (
                    1,
                    TraceCodecError::Corrupt("trailing bytes after last event"),
                ),
            ),
        ];
        let mut buf = Vec::new();
        for (c, want) in cases {
            assert_eq!(c.decode_into(&mut buf), Err(want.clone()), "{c:?}");
            assert_eq!(c.decode(), Err(want.1));
        }
    }

    #[test]
    fn chunks_decode_independently() {
        // Decoding chunk k alone must not need chunks 0..k.
        let events: Vec<Event> = (0..50u64)
            .map(|i| Event::load(i.wrapping_mul(0x9E37_79B9) << 6))
            .collect();
        let trace = EncodedTrace::encode(&events, 8);
        let mut all = Vec::new();
        for c in trace.chunks().iter().rev() {
            let mut decoded = c.decode().unwrap();
            decoded.extend(all);
            all = decoded;
        }
        assert_eq!(all, events);
    }

    #[test]
    fn max_magnitude_address_jumps_round_trip() {
        let events = vec![
            Event::load(0),
            Event::load(u64::MAX),
            Event::load(0),
            Event::load(1 << 63),
            Event::Store {
                addr: (1 << 63) - 1,
            },
            Event::load(u64::MAX / 3),
        ];
        let trace = EncodedTrace::encode(&events, 2);
        assert_eq!(trace.decode_all().unwrap(), events);
    }

    #[test]
    fn strided_traffic_stays_compact() {
        // Strided loads with small work events: the dominant trace shape.
        let mut events = Vec::new();
        for i in 0..10_000u64 {
            events.push(Event::load(i * 64));
            events.push(Event::Work(3));
        }
        let trace = EncodedTrace::encode(&events, 4096);
        assert!(
            trace.bytes_per_event() < 2.0,
            "{} B/event",
            trace.bytes_per_event()
        );
    }

    #[test]
    fn frame_round_trips() {
        let events = mixed_events();
        let trace = EncodedTrace::encode(&events, 4);
        let bytes = trace.to_bytes();
        let back = EncodedTrace::from_bytes(&bytes).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.decode_all().unwrap(), events);
    }

    #[test]
    fn empty_trace_frame_round_trips() {
        let trace = EncodedTrace::encode(&[], 16);
        assert_eq!(trace.events(), 0);
        assert_eq!(trace.replay().count(), 0);
        let back = EncodedTrace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn frame_rejects_bad_magic_and_version() {
        let trace = EncodedTrace::encode(&mixed_events(), 4);
        let mut bytes = trace.to_bytes();
        assert_eq!(
            EncodedTrace::from_bytes(b"PCT1"),
            Err(TraceCodecError::BadMagic)
        );
        bytes[4] = 9;
        assert_eq!(
            EncodedTrace::from_bytes(&bytes),
            Err(TraceCodecError::BadVersion(9))
        );
    }

    #[test]
    fn frame_rejects_truncation_everywhere() {
        let trace = EncodedTrace::encode(&mixed_events(), 4);
        let bytes = trace.to_bytes();
        for cut in 4..bytes.len() {
            let err = EncodedTrace::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceCodecError::Truncated | TraceCodecError::Corrupt(_)
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn frame_rejects_trailing_garbage_and_count_lies() {
        let trace = EncodedTrace::encode(&mixed_events(), 4);
        let mut bytes = trace.to_bytes();
        bytes.push(0);
        assert_eq!(
            EncodedTrace::from_bytes(&bytes),
            Err(TraceCodecError::Corrupt("trailing bytes after last chunk"))
        );
        let mut lied = trace.to_bytes();
        lied[8] ^= 1; // flip a bit of the total event count
        assert_eq!(
            EncodedTrace::from_bytes(&lied),
            Err(TraceCodecError::Corrupt("event count contradicts chunks"))
        );
    }

    #[test]
    fn corrupt_chunk_payload_rejected_at_frame_load() {
        let trace = EncodedTrace::encode(&[Event::Work(3), Event::load(64)], 16);
        let mut bytes = trace.to_bytes();
        let payload_at = bytes.len() - trace.encoded_bytes() as usize;
        bytes[payload_at] = 0x07; // invalid kind 7
        assert!(matches!(
            EncodedTrace::from_bytes(&bytes),
            Err(TraceCodecError::BadTag(_) | TraceCodecError::Corrupt(_))
        ));
    }

    #[test]
    fn fingerprint_hashes_the_framed_bytes() {
        let trace = EncodedTrace::encode(&mixed_events(), 4);
        // Reference: FNV-1a over the materialized frame.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &trace.to_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(trace.fingerprint(), h);
        // Same events, different chunk cadence → different frame bytes.
        let rechunked = EncodedTrace::encode(&mixed_events(), 5);
        assert_ne!(trace.fingerprint(), rechunked.fingerprint());
        // A frame round trip preserves the fingerprint.
        let back = EncodedTrace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back.fingerprint(), trace.fingerprint());
    }

    #[test]
    fn diagnose_reports_the_failing_offset() {
        let trace = EncodedTrace::encode(&mixed_events(), 4);
        let bytes = trace.to_bytes();

        // Truncation: the reported offset is where the missing field
        // began, which is always within the truncated prefix.
        for cut in 4..bytes.len() {
            let err = EncodedTrace::from_bytes_diagnose(&bytes[..cut]).unwrap_err();
            assert!(err.offset <= cut, "cut {cut}: offset {}", err.offset);
        }

        // Bad version sits at byte 4.
        let mut v = bytes.clone();
        v[4] = 9;
        let err = EncodedTrace::from_bytes_diagnose(&v).unwrap_err();
        assert_eq!((err.offset, err.error), (4, TraceCodecError::BadVersion(9)));

        // A corrupt event tag is located exactly: first chunk's payload
        // starts after the 32-byte header and a 16-byte chunk header.
        let mut c = bytes.clone();
        c[48] = 0x07; // invalid kind 7 on the first encoded event
        let err = EncodedTrace::from_bytes_diagnose(&c).unwrap_err();
        assert_eq!(err.offset, 48, "{err}");
        assert_eq!(err.error, TraceCodecError::BadTag(0x07));

        // Display carries the offset for human-facing importer messages.
        assert!(err.to_string().contains("byte offset 48"));
    }

    #[test]
    fn diagnose_matches_from_bytes_verdict() {
        let trace = EncodedTrace::encode(&mixed_events(), 4);
        let mut bytes = trace.to_bytes();
        bytes.push(0xAA);
        assert_eq!(
            EncodedTrace::from_bytes(&bytes).unwrap_err(),
            EncodedTrace::from_bytes_diagnose(&bytes).unwrap_err().error
        );
        assert_eq!(
            EncodedTrace::from_bytes_diagnose(&trace.to_bytes()).unwrap(),
            trace
        );
    }
}
