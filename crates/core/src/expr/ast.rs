//! Typed AST for the index-expression DSL, with total evaluation
//! semantics and a round-trippable pretty-printer.

use std::fmt;

/// Binary operators of the index-expression DSL.
///
/// Arithmetic wraps modulo 2^64; shifts by 64 or more and `% 0` are
/// defined as 0 so evaluation is total on any tree (the compiler rejects
/// those shapes before an expression can reach a cache, see
/// [`compile`](super::compile)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Bitwise OR (`|`).
    Or,
    /// Bitwise XOR (`^`).
    Xor,
    /// Bitwise AND (`&`).
    And,
    /// Left shift (`<<`).
    Shl,
    /// Logical right shift (`>>`).
    Shr,
    /// Wrapping addition (`+`).
    Add,
    /// Wrapping multiplication (`*`).
    Mul,
    /// Remainder (`%`).
    Mod,
}

impl BinOp {
    /// The operator's surface syntax.
    #[must_use]
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::And => "&",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Add => "+",
            BinOp::Mul => "*",
            BinOp::Mod => "%",
        }
    }

    /// Applies the operator with the DSL's total semantics.
    #[must_use]
    pub fn apply(self, l: u64, r: u64) -> u64 {
        match self {
            BinOp::Or => l | r,
            BinOp::Xor => l ^ r,
            BinOp::And => l & r,
            BinOp::Shl => {
                if r >= 64 {
                    0
                } else {
                    l << r
                }
            }
            BinOp::Shr => {
                if r >= 64 {
                    0
                } else {
                    l >> r
                }
            }
            BinOp::Add => l.wrapping_add(r),
            BinOp::Mul => l.wrapping_mul(r),
            BinOp::Mod => {
                if r == 0 {
                    0
                } else {
                    l % r
                }
            }
        }
    }
}

/// An index expression: a function from the block address to a set index.
///
/// The surface syntax's slice sugar `a[hi:lo]` is desugared at parse time
/// to `(a >> lo) & mask`, so the AST stays three variants.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// The block address input (`a` or `addr` in the surface syntax).
    Addr,
    /// An unsigned 64-bit constant.
    Const(u64),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Builds a binary node (convenience over the boxed variant).
    #[must_use]
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Box::new(l), Box::new(r))
    }

    /// Evaluates the expression at block address `a` with the DSL's total
    /// semantics (see [`BinOp::apply`]). A tree walk — the hot path uses
    /// the compiled [`Program`](super::Program) instead, and the two agree
    /// on every address (pinned by the differential oracle).
    #[must_use]
    pub fn eval(&self, a: u64) -> u64 {
        match self {
            Expr::Addr => a,
            Expr::Const(c) => *c,
            Expr::Bin(op, l, r) => op.apply(l.eval(a), r.eval(a)),
        }
    }

    /// Whether any node in the tree satisfies `pred`.
    #[must_use]
    pub fn contains(&self, pred: &dyn Fn(&Expr) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        match self {
            Expr::Addr | Expr::Const(_) => false,
            Expr::Bin(_, l, r) => l.contains(pred) || r.contains(pred),
        }
    }
}

/// Prints the expression in parseable surface syntax: every nested binary
/// node is parenthesized, so `parse(print(ast)) == ast` holds for any tree
/// regardless of precedence (the round-trip property test pins this).
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn atom(e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match e {
                Expr::Bin(..) => write!(f, "({e})"),
                _ => write!(f, "{e}"),
            }
        }
        match self {
            Expr::Addr => f.write_str("a"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Bin(op, l, r) => {
                atom(l, f)?;
                write!(f, " {} ", op.symbol())?;
                atom(r, f)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_semantics_for_degenerate_operands() {
        assert_eq!(BinOp::Shl.apply(1, 64), 0);
        assert_eq!(BinOp::Shr.apply(u64::MAX, 200), 0);
        assert_eq!(BinOp::Mod.apply(17, 0), 0);
        assert_eq!(BinOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(BinOp::Mul.apply(u64::MAX, 2), u64::MAX - 1);
    }

    #[test]
    fn eval_walks_the_tree() {
        // (a ^ (a >> 3)) & 7
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(
                BinOp::Xor,
                Expr::Addr,
                Expr::bin(BinOp::Shr, Expr::Addr, Expr::Const(3)),
            ),
            Expr::Const(7),
        );
        assert_eq!(e.eval(0), 0);
        assert_eq!(e.eval(0b1010_1100), (0b1010_1100u64 ^ 0b1_0101) & 7);
    }

    #[test]
    fn display_parenthesizes_nested_nodes() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Xor, Expr::Addr, Expr::Const(3)),
            Expr::Const(7),
        );
        assert_eq!(e.to_string(), "(a ^ 3) & 7");
    }
}
