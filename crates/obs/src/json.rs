//! Minimal JSON document model: a writer and a strict parser.
//!
//! The workspace has no external dependencies, so this module is its one
//! JSON model: the run, analyze and attack reports and the event traces
//! are all built as [`Json`] values and rendered here, and the parser
//! loads them back so they can be diffed and round-trip-tested. Every
//! report opens with the same head, its `schema` and then its `version`:
//! [`Json::document`] writes it and [`Json::check_head`] checks it.
//!
//! Integers are kept exact: `U64`/`I64` variants survive a
//! render → parse round trip bit-for-bit, which the run-report equality
//! test relies on. Floats render through Rust's shortest-round-trip
//! `{:?}` formatting, so finite `f64` values round-trip exactly too.

use std::fmt::Write as _;

/// A JSON value. Object members keep insertion order so rendered
/// artifacts are stable and diffable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact.
    U64(u64),
    /// A negative integer, kept exact.
    I64(i64),
    /// A floating-point number (anything with a `.`, `e`, or `E`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered `(key, value)` members.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset into the input plus a static message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What the parser expected or rejected.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl Json {
    /// Convenience constructor for an object from ordered members.
    #[must_use]
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// A versioned artifact: an object that opens with its `schema` and
    /// its `version`, then `body`'s members in order.
    #[must_use]
    pub fn document(schema: &str, version: u64, body: Vec<(&str, Json)>) -> Json {
        let mut members = vec![
            ("schema", Json::Str(schema.to_owned())),
            ("version", Json::U64(version)),
        ];
        members.extend(body);
        Json::obj(members)
    }

    /// Checks the head [`Json::document`] writes: the document's
    /// `schema` must be `schema` and its `version` at most `supported`,
    /// the newest version this build reads. Returns the version.
    ///
    /// # Errors
    ///
    /// Returns a message when either field is missing, the schema
    /// differs, or the version is newer than `supported`.
    pub fn check_head(&self, schema: &str, supported: u64) -> Result<u64, String> {
        let found = self
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing string field \"schema\"")?;
        if found != schema {
            return Err(format!("unknown schema {found:?}, expected {schema:?}"));
        }
        let version = self
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("missing integer field \"version\"")?;
        if version > supported {
            return Err(format!(
                "{schema} version {version} is newer than supported {supported}"
            ));
        }
        Ok(version)
    }

    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `f64` if numeric (integers widen losslessly up to
    /// 2^53, which covers every counter this workspace emits).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as ordered object members.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders compact JSON (no insignificant whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders indented JSON (two spaces per level), trailing newline.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` is Rust's shortest round-trip float repr and
                    // always includes a '.' or exponent — valid JSON.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf.
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first
    /// violation.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            s: s.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.s.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if n == 0 {
        out.push(close);
        return;
    }
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError {
            offset: self.i,
            msg,
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, lit: &str, msg: &'static str) -> Result<(), JsonError> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat("null", "expected null").map(|()| Json::Null),
            Some(b't') => self.eat("true", "expected true").map(|()| Json::Bool(true)),
            Some(b'f') => self
                .eat("false", "expected false")
                .map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.i += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.i += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.i += 1;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let rest = &self.s[self.i..];
            let Some(&c) = rest.first() else {
                return Err(self.err("unterminated string"));
            };
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest.get(1).copied().ok_or_else(|| self.err("bad escape"))?;
                    self.i += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Surrogate pairs are not needed for our
                            // ASCII artifact vocabulary; reject them.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("unsupported \\u code point"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let tail = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = tail.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.s[start..self.i]).map_err(|_| self.err("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|_| self.err("invalid float literal"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_exactly() {
        let v = Json::Arr(vec![
            Json::U64(u64::MAX),
            Json::I64(-42),
            Json::U64(0),
            Json::F64(0.125),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn object_order_and_lookup() {
        let v = Json::obj(vec![("b", Json::U64(1)), ("a", Json::Bool(true))]);
        assert_eq!(v.render(), "{\"b\":1,\"a\":true}");
        assert_eq!(v.get("a"), Some(&Json::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn documents_open_with_their_checked_head() {
        let doc = Json::document("x.report", 2, vec![("a", Json::U64(1))]);
        assert_eq!(doc.render(), r#"{"schema":"x.report","version":2,"a":1}"#);
        assert_eq!(doc.check_head("x.report", 2), Ok(2));
        assert_eq!(doc.check_head("x.report", 3), Ok(2));
        assert!(doc.check_head("x.report", 1).unwrap_err().contains("newer"));
        assert!(doc.check_head("y.report", 2).is_err());
        assert!(Json::obj(vec![("schema", Json::Str("x.report".into()))])
            .check_head("x.report", 2)
            .is_err());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nquote\" tab\t back\\ unicode μ";
        let v = Json::Str(s.to_owned());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_docs() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, -2, 3.5, {"b": null}], "c": "x"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }
}
