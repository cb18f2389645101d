//! Hand-rolled recursive-descent parser for the index-expression DSL.
//!
//! Zero dependencies, spans on every error. The grammar (loosest to
//! tightest binding; every binary level is left-associative):
//!
//! ```text
//! expr  := or
//! or    := xor  ( "|" xor )*
//! xor   := and  ( "^" and )*
//! and   := shift ( "&" shift )*
//! shift := add  ( ("<<" | ">>") add )*
//! add   := mul  ( "+" mul )*
//! mul   := post ( ("*" | "%") post )*
//! post  := prim ( "[" NUM ":" NUM "]" )*
//! prim  := "a" | "addr" | NUM | "(" expr ")"
//! NUM   := decimal or 0x-prefixed hexadecimal u64 literal
//! ```
//!
//! The slice `e[hi:lo]` (bit `hi` down to bit `lo`, inclusive) desugars to
//! `(e >> lo) & mask(hi - lo + 1)` at parse time. The parser climbs
//! precedence (one loop over binding powers, not one function per
//! level), and a tree may nest at most [`MAX_PARSE_DEPTH`] levels.

use std::fmt;

use super::ast::{BinOp, Expr};

/// A half-open byte range into the source string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first offending character.
    pub start: usize,
    /// Byte offset one past the last offending character.
    pub end: usize,
}

/// A parse failure pointing at the offending span of the source.
///
/// Malformed input is always reported this way — the parser never panics
/// (pinned by a property test over mutated sources).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong / what was expected instead.
    pub message: String,
    /// Where in the source it went wrong.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at byte {}..{}: {}",
            self.span.start, self.span.end, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>, start: usize, end: usize) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
        span: Span { start, end },
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok {
    Addr,
    Num(u64),
    Or,
    Xor,
    And,
    Shl,
    Shr,
    Add,
    Mul,
    Mod,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Colon,
}

fn lex(src: &str) -> Result<Vec<(Tok, Span)>, ParseError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let start = i;
        let tok = match b[i] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'|' => Tok::Or,
            b'^' => Tok::Xor,
            b'&' => Tok::And,
            b'+' => Tok::Add,
            b'*' => Tok::Mul,
            b'%' => Tok::Mod,
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b':' => Tok::Colon,
            b'<' => {
                if b.get(i + 1) == Some(&b'<') {
                    i += 1;
                    Tok::Shl
                } else {
                    return err("expected `<<`", start, start + 1);
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'>') {
                    i += 1;
                    Tok::Shr
                } else {
                    return err("expected `>>`", start, start + 1);
                }
            }
            b'0'..=b'9' => {
                let (radix, digits_at) =
                    if b[i] == b'0' && matches!(b.get(i + 1), Some(b'x' | b'X')) {
                        (16, i + 2)
                    } else {
                        (10, i)
                    };
                let mut j = digits_at;
                while j < b.len() && (b[j] as char).is_ascii_alphanumeric() {
                    j += 1;
                }
                let text = &src[digits_at..j];
                if text.is_empty() {
                    return err("expected hex digits after `0x`", start, j.max(start + 2));
                }
                let value = u64::from_str_radix(text, radix);
                let n = match value {
                    Ok(v) => v,
                    Err(_) => {
                        return err(
                            format!("invalid u64 literal `{}`", &src[start..j]),
                            start,
                            j,
                        )
                    }
                };
                i = j;
                out.push((Tok::Num(n), Span { start, end: j }));
                continue;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut j = i;
                while j < b.len() && ((b[j] as char).is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                let word = &src[i..j];
                if word != "a" && word != "addr" {
                    return err(
                        format!("unknown identifier `{word}`; the block address is `a`"),
                        i,
                        j,
                    );
                }
                i = j;
                out.push((Tok::Addr, Span { start, end: j }));
                continue;
            }
            _ => {
                // Every token is ASCII, so `start` is a char boundary.
                let c = src[start..].chars().next().unwrap_or_default();
                return err(
                    format!("unexpected character `{c}`"),
                    start,
                    start + c.len_utf8(),
                );
            }
        };
        i += 1;
        out.push((tok, Span { start, end: i }));
    }
    Ok(out)
}

/// How deep one expression may nest: at most this many parentheses open
/// at once, and at most this many binary operators (a slice counts as the
/// one or two it desugars to) on any path from the root of its tree to a
/// leaf. The first token past either bound is a [`ParseError`].
///
/// The bound keeps `parse` and the recursive passes over its tree
/// (folding, compiling, lowering, printing, dropping) within a 2 MB
/// thread stack in a debug build, and the printed form of any tree
/// `parse` accepts parses back. The deepest source the repo builds,
/// [`xor_folded_src`](super::builtins::xor_folded_src) at two sets (a
/// 64-term XOR chain), is 65 operators deep.
pub const MAX_PARSE_DEPTH: usize = 128;

/// A parsed subtree and its depth in binary operators.
type Parsed = Result<(Expr, usize), ParseError>;

/// Passes `count` levels of nesting through, or fails at the token `at`
/// that took it past [`MAX_PARSE_DEPTH`].
fn within_bound(count: usize, at: Span) -> Result<usize, ParseError> {
    if count > MAX_PARSE_DEPTH {
        return err(
            format!("the expression nests deeper than {MAX_PARSE_DEPTH} levels"),
            at.start,
            at.end,
        );
    }
    Ok(count)
}

/// The binary operator `t` spells and its binding power (higher binds
/// tighter), or `None` when `t` is not a binary operator.
fn binary_op(t: Tok) -> Option<(BinOp, u8)> {
    Some(match t {
        Tok::Or => (BinOp::Or, 0),
        Tok::Xor => (BinOp::Xor, 1),
        Tok::And => (BinOp::And, 2),
        Tok::Shl => (BinOp::Shl, 3),
        Tok::Shr => (BinOp::Shr, 3),
        Tok::Add => (BinOp::Add, 4),
        Tok::Mul => (BinOp::Mul, 5),
        Tok::Mod => (BinOp::Mod, 5),
        _ => return None,
    })
}

struct Parser<'a> {
    toks: &'a [(Tok, Span)],
    pos: usize,
    src_len: usize,
    /// Parentheses open around the current token.
    nesting: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<Tok> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    fn here(&self) -> Span {
        self.toks.get(self.pos).map_or(
            Span {
                start: self.src_len,
                end: self.src_len,
            },
            |&(_, s)| s,
        )
    }

    fn bump(&mut self) -> Option<(Tok, Span)> {
        let t = self.toks.get(self.pos).copied();
        self.pos += usize::from(t.is_some());
        t
    }

    fn expect(&mut self, want: Tok, what: &str) -> Result<Span, ParseError> {
        let span = self.here();
        match self.bump() {
            Some((t, s)) if t == want => Ok(s),
            _ => err(
                format!("expected {what}"),
                span.start,
                span.end.max(span.start),
            ),
        }
    }

    /// Operators binding at least as tightly as `min_power`, by
    /// precedence climbing: each loop turn folds one operator into a
    /// left-deep tree, so a chain of one binding power nests no calls.
    fn binary(&mut self, min_power: u8) -> Parsed {
        let (mut e, mut depth) = self.postfix_expr()?;
        while let Some((op, power)) = self.peek().and_then(binary_op) {
            if power < min_power {
                break;
            }
            let at = self.here();
            self.bump();
            let (r, r_depth) = self.binary(power + 1)?;
            depth = within_bound(depth.max(r_depth) + 1, at)?;
            e = Expr::bin(op, e, r);
        }
        Ok((e, depth))
    }

    fn postfix_expr(&mut self) -> Parsed {
        let (mut e, mut depth) = self.primary()?;
        while self.peek() == Some(Tok::LBracket) {
            let open = self.here();
            self.bump();
            let (hi, hi_span) = self.number("a bit position (the slice's high bit)")?;
            self.expect(Tok::Colon, "`:` between the slice bounds")?;
            let (lo, lo_span) = self.number("a bit position (the slice's low bit)")?;
            let close = self.expect(Tok::RBracket, "`]` closing the slice")?;
            if hi > 63 {
                return err(
                    "slice bits must be within 0..=63",
                    hi_span.start,
                    hi_span.end,
                );
            }
            if lo > hi {
                return err(
                    format!("slice low bit {lo} exceeds high bit {hi}"),
                    lo_span.start,
                    close.end,
                );
            }
            // Desugar a[hi:lo] => (a >> lo) & mask(hi - lo + 1).
            let width = hi - lo + 1;
            let mask = if width >= 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let shifted = if lo == 0 {
                e
            } else {
                depth += 1;
                Expr::bin(BinOp::Shr, e, Expr::Const(lo))
            };
            depth = within_bound(depth + 1, open)?;
            e = Expr::bin(BinOp::And, shifted, Expr::Const(mask));
        }
        Ok((e, depth))
    }

    fn number(&mut self, what: &str) -> Result<(u64, Span), ParseError> {
        let span = self.here();
        match self.bump() {
            Some((Tok::Num(n), s)) => Ok((n, s)),
            _ => err(format!("expected {what}"), span.start, span.end),
        }
    }

    fn primary(&mut self) -> Parsed {
        let span = self.here();
        match self.bump() {
            Some((Tok::Addr, _)) => Ok((Expr::Addr, 0)),
            Some((Tok::Num(n), _)) => Ok((Expr::Const(n), 0)),
            Some((Tok::LParen, open)) => {
                self.nesting = within_bound(self.nesting + 1, open)?;
                let parsed = self.binary(0)?;
                self.nesting -= 1;
                match self.bump() {
                    Some((Tok::RParen, _)) => Ok(parsed),
                    _ => err("unclosed `(`", open.start, open.end),
                }
            }
            _ => err(
                "expected the address `a`, a constant, or `(`",
                span.start,
                span.end,
            ),
        }
    }
}

/// Parses a DSL source string into an [`Expr`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending span for any malformed
/// input: unknown identifiers, stray characters, unbalanced parentheses,
/// overflowing literals, bad slices, trailing tokens, or nesting deeper
/// than [`MAX_PARSE_DEPTH`].
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks: &toks,
        pos: 0,
        src_len: src.len(),
        nesting: 0,
    };
    if p.peek().is_none() {
        return err("empty expression", 0, 0);
    }
    let (e, _) = p.binary(0)?;
    if let Some(&(_, s)) = toks.get(p.pos) {
        return err("unexpected trailing input", s.start, src.len());
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_schemes() {
        let e = parse("(a ^ (a >> 11)) & 2047").unwrap();
        assert_eq!(
            e.eval(0x1234_5678),
            ((0x1234_5678u64 >> 11) ^ 0x1234_5678) & 2047
        );
        let m = parse("a % 2039").unwrap();
        assert_eq!(m.eval(1 << 40), (1u64 << 40) % 2039);
    }

    #[test]
    fn precedence_mirrors_c() {
        // `*`/`%` bind tighter than `+`, which binds tighter than shifts,
        // which bind tighter than `&`, `^`, `|`.
        let e = parse("a + 3 * 2 & 7").unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BinOp::And,
                Expr::bin(
                    BinOp::Add,
                    Expr::Addr,
                    Expr::bin(BinOp::Mul, Expr::Const(3), Expr::Const(2)),
                ),
                Expr::Const(7),
            )
        );
    }

    #[test]
    fn slices_desugar_to_shift_and_mask() {
        assert_eq!(parse("a[13:3]").unwrap(), parse("(a >> 3) & 2047").unwrap());
        assert_eq!(parse("a[10:0]").unwrap(), parse("a & 2047").unwrap());
        assert_eq!(
            parse("addr[63:0]").unwrap(),
            parse("a & 0xFFFFFFFFFFFFFFFF").unwrap()
        );
    }

    #[test]
    fn hex_literals_parse() {
        assert_eq!(parse("0x7FF").unwrap(), Expr::Const(2047));
    }

    #[test]
    fn errors_carry_spans() {
        let e = parse("a ^ bogus").unwrap_err();
        assert_eq!((e.span.start, e.span.end), (4, 9));
        assert!(e.message.contains("bogus"), "{e}");

        let e = parse("(a ^ 3").unwrap_err();
        assert_eq!(e.span.start, 0);

        let e = parse("a <").unwrap_err();
        assert_eq!(e.span.start, 2);

        let e = parse("a % 99999999999999999999").unwrap_err();
        assert!(e.message.contains("u64"), "{e}");

        let e = parse("a[3:9]").unwrap_err();
        assert!(e.message.contains("exceeds"), "{e}");

        let e = parse("").unwrap_err();
        assert_eq!(e.span.start, 0);

        let e = parse("a a").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn nesting_past_the_bound_errors_at_the_crossing_token() {
        let max = MAX_PARSE_DEPTH;
        let span = |src: &str| {
            let e = parse(src).unwrap_err();
            assert!(e.message.contains(&format!("{max} levels")), "{e}");
            (e.span.start, e.span.end)
        };
        // The parenthesis that opens level max + 1.
        let parens = format!("{}a{}", "(".repeat(10_000), ")".repeat(10_000));
        assert_eq!(span(&parens), (max, max + 1));
        let right_nested = format!("{}a{}", "a + (".repeat(max + 1), ")".repeat(max + 1));
        assert_eq!(span(&right_nested), (5 * max + 4, 5 * max + 5));
        // A 5,001-term chain: the `+` that makes the tree max + 1 deep.
        let chain = format!("a{} & 2047", " + a".repeat(5_000));
        assert_eq!(span(&chain), (2 + 4 * max, 3 + 4 * max));
        // A slice `[1:1]` desugars to two operators, `[0:0]` to one.
        let slices = format!("a{}", "[1:1]".repeat(max / 2 + 1));
        assert_eq!(span(&slices), (1 + 5 * (max / 2), 2 + 5 * (max / 2)));
        let slices = format!("a{}", "[0:0]".repeat(max + 1));
        assert_eq!(span(&slices), (1 + 5 * max, 2 + 5 * max));
        // Parentheses do not add operator depth, nor operators nesting.
        let inner = format!("({})", "a ^ ".repeat(max) + "a");
        assert!(parse(&format!(
            "{}{inner}{}",
            "(".repeat(max - 1),
            ")".repeat(max - 1)
        ))
        .is_ok());
    }

    #[test]
    fn a_stray_non_ascii_character_is_reported_whole() {
        let e = parse("é").unwrap_err();
        assert_eq!((e.span.start, e.span.end), (0, 2));
        assert!(e.message.contains("`é`"), "{e}");
        let e = parse("a ^ 日").unwrap_err();
        assert_eq!((e.span.start, e.span.end), (4, 7));
        assert!(e.message.contains("`日`"), "{e}");
    }
}
