//! A tiny expression language for user-defined set-index functions.
//!
//! The paper's argument is algebraic: whether an index function eliminates
//! conflict misses is decided by its *structure* (prime residue vs.
//! power-of-two modulo vs. XOR folding), not by simulation. This module
//! opens the scheme space beyond the hard-coded indexers: an index
//! function is written as an expression over the block address, and the
//! same typed AST is compiled **twice** —
//!
//! 1. through [`fold`] + [`compile`] into a flat stack-machine
//!    [`Program`] (any `% const` strength-reduced to a precomputed
//!    [`FastMod`](crate::index::FastMod) reciprocal) wrapped as an
//!    [`ExprIndexer`] that plugs into the batched simulation drivers like
//!    any built-in [`SetIndexer`](crate::index::SetIndexer), and
//! 2. through the abstract lowering in `primecache-analyze` into a static
//!    `IndexModel`, so `pcache analyze` can certify or condemn the scheme
//!    (conflict-stride generators, balance bounds, Theorem-1 verdict)
//!    *before* it burns simulation time.
//!
//! The differential oracle in `primecache-check` pins the two compilations
//! against each other, and [`builtins`] re-expresses every hard-coded
//! scheme in the DSL so the certificates can be asserted identical.
//!
//! # Grammar
//!
//! Operators from loosest to tightest binding, all left-associative;
//! `a[hi:lo]` is bit-slice sugar for `(a >> lo) & ((1 << (hi-lo+1)) - 1)`:
//!
//! ```text
//! expr    := or
//! or      := xor  ( "|"  xor  )*
//! xor     := and  ( "^"  and  )*
//! and     := shift ( "&" shift )*
//! shift   := add  ( ("<<" | ">>") add )*
//! add     := mul  ( "+"  mul  )*
//! mul     := post ( ("*" | "%") post )*
//! post    := primary ( "[" num ":" num "]" )*
//! primary := "a" | "addr" | num | "0x" hex | "(" expr ")"
//! ```
//!
//! Nesting is bounded: at most [`MAX_PARSE_DEPTH`] parentheses open at
//! once, and at most that many operators on any path through the tree;
//! a deeper source is a [`ParseError`] at the token that crosses the
//! bound.
//!
//! Multipliers, moduli, and shift amounts must fold to constants — that
//! restriction is what keeps the abstract lowering decidable — and the
//! value range must be finite (mask or reduce the result) so the scheme
//! addresses a bounded set space.
//!
//! # Examples
//!
//! ```
//! use primecache_core::expr::register;
//! use primecache_core::index::SetIndexer;
//!
//! // The paper's pMod at 2048 physical sets, as a user expression.
//! let id = register("my-pmod", "a % 2039").unwrap();
//! assert_eq!(id.n_set(), 2039);
//! assert_eq!(id.indexer().index(2048), 9);
//! ```

mod ast;
pub mod builtins;
mod compile;
mod fold;
mod parse;
mod registry;

pub use ast::{BinOp, Expr};
pub use compile::{compile, set_bound, value_bound, ExprError, Op, Program, MAX_DEPTH};
pub use fold::fold;
pub use parse::{parse, ParseError, Span, MAX_PARSE_DEPTH};
pub use registry::{register, register_anonymous, ExprId, ExprIndexer};
