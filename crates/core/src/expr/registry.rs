//! Process-wide registry of compiled index expressions.
//!
//! Configuration types ([`HashKind`](crate::index::HashKind), the sim's
//! `Scheme`) are `Copy` and travel through sweep tables, report
//! fingerprints, and batched drivers by value. A user expression is a
//! tree, so it cannot live inside those types directly; instead every
//! registered expression is interned once (leaked to `'static`) and
//! referenced by a copyable [`ExprId`]. The id's `Debug` form embeds the
//! scheme name and a source fingerprint, so config fingerprints derived
//! from `Debug` stay content-based rather than registration-order-based.

use std::fmt;
use std::sync::Mutex;

use crate::index::SetIndexer;

use super::ast::Expr;
use super::compile::{compile, set_bound, ExprError, Program};
use super::fold::fold;
use super::parse::parse;

/// Interned definition of a registered expression scheme.
struct ExprDef {
    name: &'static str,
    src: &'static str,
    ast: Expr,
    folded: Expr,
    program: Program,
    n_set: u64,
    fingerprint: u64,
}

static REGISTRY: Mutex<Vec<&'static ExprDef>> = Mutex::new(Vec::new());

/// FNV-1a over the source text — the content fingerprint baked into
/// [`ExprId`]'s `Debug` form.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Handle to a registered index expression.
///
/// `Copy` and cheap to compare, so it can ride inside
/// [`HashKind`](crate::index::HashKind) and the sim's `Scheme` the same
/// way the built-in variants do.
///
/// # Examples
///
/// ```
/// use primecache_core::expr::register;
/// use primecache_core::index::SetIndexer;
///
/// let id = register("demo-xor", "(a ^ (a >> 11)) & 2047").unwrap();
/// assert_eq!(id.n_set(), 2048);
/// assert_eq!(id.indexer().index(0b1_0000_0000_0001), 1 ^ 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

impl ExprId {
    fn def(self) -> &'static ExprDef {
        let idx = usize::try_from(self.0).expect("id fits usize");
        REGISTRY.lock().expect("expr registry poisoned")[idx]
    }

    /// The scheme name given at registration (`expr:<src>` for
    /// [`register_anonymous`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.def().name
    }

    /// The original source text.
    #[must_use]
    pub fn source(self) -> &'static str {
        self.def().src
    }

    /// The parsed (unfolded) AST.
    #[must_use]
    pub fn ast(self) -> &'static Expr {
        &self.def().ast
    }

    /// The const-folded, strength-reduced AST — what both compilations
    /// (hot-path program and abstract lowering) consume.
    #[must_use]
    pub fn folded(self) -> &'static Expr {
        &self.def().folded
    }

    /// Number of sets the expression addresses (`value_bound + 1` over the
    /// full 64-bit address domain).
    #[must_use]
    pub fn n_set(self) -> u64 {
        self.def().n_set
    }

    /// The compiled hot-path indexer. `Copy` (it borrows the interned
    /// definition), so the monomorphized batched drivers can take it by
    /// value like the built-in indexers.
    #[must_use]
    pub fn indexer(self) -> ExprIndexer {
        ExprIndexer { def: self.def() }
    }
}

/// Content-based form: scheme name plus source fingerprint, never the
/// registration index, so config fingerprints hashed from `Debug` output
/// do not depend on registration order.
impl fmt::Debug for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.def();
        write!(f, "Expr({}@{:016x})", d.name, d.fingerprint)
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Registers an index expression under a scheme name.
///
/// Parses, folds, and compiles `src`, and verifies the value range is
/// bounded (a finite set space). Registering the exact same `(name, src)`
/// pair again returns the existing id — tests and repeated CLI parses rely
/// on this idempotence.
///
/// # Errors
///
/// [`ExprError::Parse`] / [`ExprError::Unsupported`] from the pipeline,
/// [`ExprError::Unbounded`] when no finite set count exists, and
/// [`ExprError::NameConflict`] when `name` is already bound to different
/// source text.
pub fn register(name: &str, src: &str) -> Result<ExprId, ExprError> {
    let mut reg = REGISTRY.lock().expect("expr registry poisoned");
    for (i, def) in reg.iter().enumerate() {
        if def.name == name {
            if def.src == src {
                return Ok(ExprId(u32::try_from(i).expect("registry fits u32")));
            }
            return Err(ExprError::NameConflict(format!(
                "scheme name `{name}` is already registered with source `{}`",
                def.src
            )));
        }
    }
    let ast = parse(src).map_err(ExprError::Parse)?;
    let folded = fold(&ast);
    let program = compile(&folded)?;
    let n_set = set_bound(&folded, u64::MAX).ok_or(ExprError::Unbounded)?;
    let def: &'static ExprDef = Box::leak(Box::new(ExprDef {
        name: String::leak(name.to_owned()),
        src: String::leak(src.to_owned()),
        fingerprint: fnv1a(src.as_bytes()),
        ast,
        folded,
        program,
        n_set,
    }));
    let id = ExprId(u32::try_from(reg.len()).expect("registry fits u32"));
    reg.push(def);
    Ok(id)
}

/// Registers an expression under the derived name `expr:<src>` — the form
/// the CLI's `--scheme 'expr:<src>'` uses.
///
/// # Errors
///
/// Same as [`register`] (a name conflict is impossible: the name is the
/// source).
pub fn register_anonymous(src: &str) -> Result<ExprId, ExprError> {
    register(&format!("expr:{src}"), src)
}

/// A compiled expression as a [`SetIndexer`].
///
/// `Copy` — it holds only a reference to the interned definition — so the
/// monomorphized batched simulation drivers can use it by value, exactly
/// like the hard-coded indexers.
#[derive(Clone, Copy)]
pub struct ExprIndexer {
    def: &'static ExprDef,
}

impl fmt::Debug for ExprIndexer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ExprIndexer({} = `{}`, n_set {})",
            self.def.name, self.def.src, self.def.n_set
        )
    }
}

impl SetIndexer for ExprIndexer {
    #[inline]
    fn index(&self, block_addr: u64) -> u64 {
        self.def.program.eval(block_addr)
    }

    fn n_set(&self) -> u64 {
        self.def.n_set
    }

    fn name(&self) -> &'static str {
        self.def.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_per_name_and_source() {
        let a = register("reg-test-pmod", "a % 509").unwrap();
        let b = register("reg-test-pmod", "a % 509").unwrap();
        assert_eq!(a, b);
        let e = register("reg-test-pmod", "a % 511");
        assert!(matches!(e, Err(ExprError::NameConflict(_))), "{e:?}");
    }

    #[test]
    fn unbounded_expressions_are_rejected() {
        assert_eq!(register_anonymous("a"), Err(ExprError::Unbounded));
        assert_eq!(register_anonymous("a ^ 1"), Err(ExprError::Unbounded));
        assert!(register_anonymous("a & 1023").is_ok());
    }

    #[test]
    fn indexer_matches_tree_eval_and_reports_metadata() {
        let id = register("reg-test-mix", "((a % 2039) ^ (a >> 20)) & 2047").unwrap();
        let ix = id.indexer();
        assert_eq!(ix.n_set(), 2048);
        assert_eq!(ix.name(), "reg-test-mix");
        for a in [0u64, 7, 2039, 1 << 33, u64::MAX] {
            assert_eq!(ix.index(a), id.folded().eval(a));
        }
    }

    #[test]
    fn debug_form_is_content_based() {
        let id = register("reg-test-dbg", "a & 7").unwrap();
        let dbg = format!("{id:?}");
        assert!(dbg.starts_with("Expr(reg-test-dbg@"), "{dbg}");
        let again = format!("{:?}", register("reg-test-dbg", "a & 7").unwrap());
        assert_eq!(dbg, again);
    }
}
