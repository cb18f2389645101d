//! Abstract lowering: DSL expression → symbolic [`IndexModel`].
//!
//! This is the second of the DSL's two compilations (the first is the
//! hot-path stack program in `primecache_core::expr`). The lowering is a
//! classifier over the *folded* tree:
//!
//! 1. **Residue** — the exact shape `a % m`.
//! 2. **Affine** — the pDisp shape `((f * (a >> k)) + x) & (2^k - 1)`
//!    with `x ∈ {a, a & (2^k - 1)}` (either `+` operand order).
//! 3. **Linear** — an abstract interpretation over GF(2): each node is
//!    summarized per output bit as `parity(a & row_i) ⊕ const_i`, and a
//!    node whose operator cannot preserve that form (a carrying add, a
//!    data-dependent AND, a true multiply) aborts the family.
//! 4. **Opaque** — everything else. Sound by construction: the opaque
//!    model certifies nothing; its [`Certificate`](crate::Certificate)
//!    fields are sampled estimates flagged `exact: false`.
//!
//! The differential oracle in `primecache-check` pins this lowering
//! against the compiled closure on every family, and the test suite pins
//! the lowered model of every built-in scheme's DSL re-expression equal to
//! the hard-coded model.

use primecache_core::expr::{fold, value_bound, BinOp, Expr};

use crate::gf2::{input_mask, Gf2Matrix};
use crate::model::IndexModel;

/// Lowers an expression over `in_bits` address bits into the most precise
/// model family that provably matches it.
///
/// The expression is folded first, so both compilations consume the same
/// canonical tree. Agreement contract: for every `a < 2^in_bits`,
/// `lower_expr(e, in_bits).eval(a) == e.eval(a)`.
#[must_use]
pub fn lower_expr(e: &Expr, in_bits: u32) -> IndexModel {
    let e = fold(e);
    if let Expr::Bin(BinOp::Mod, l, r) = &e {
        if let (Expr::Addr, Expr::Const(m)) = (&**l, &**r) {
            if *m > 0 {
                return IndexModel::Residue {
                    modulus: *m,
                    in_bits,
                };
            }
        }
    }
    if let Some(model) = match_affine(&e, in_bits) {
        return model;
    }
    if let Some(model) = lower_linear(&e, in_bits) {
        return model;
    }
    let n_set = value_bound(&e, input_mask(in_bits)).saturating_add(1);
    IndexModel::Opaque {
        expr: e,
        in_bits,
        n_set,
    }
}

/// Matches the pDisp shape `((f * (a >> k)) + x) & mask` with
/// `mask = 2^k - 1` and `x ∈ {a, a & mask}`, in either `+` operand order.
fn match_affine(e: &Expr, in_bits: u32) -> Option<IndexModel> {
    let Expr::Bin(BinOp::And, sum, mc) = e else {
        return None;
    };
    let Expr::Const(mask) = **mc else {
        return None;
    };
    let k = mask.count_ones();
    if mask == 0 || mask != input_mask(k) {
        return None;
    }
    let Expr::Bin(BinOp::Add, l, r) = &**sum else {
        return None;
    };
    let tag_factor = |t: &Expr| -> Option<u64> {
        // fold() canonicalizes the constant factor to the right.
        let Expr::Bin(BinOp::Mul, shr, f) = t else {
            return None;
        };
        let Expr::Const(factor) = **f else {
            return None;
        };
        let Expr::Bin(BinOp::Shr, a, s) = &**shr else {
            return None;
        };
        (matches!(**a, Expr::Addr) && matches!(**s, Expr::Const(shift) if shift == u64::from(k)))
            .then_some(factor)
    };
    let is_x_part = |x: &Expr| -> bool {
        match x {
            Expr::Addr => true,
            Expr::Bin(BinOp::And, a, m) => {
                matches!(**a, Expr::Addr) && matches!(**m, Expr::Const(c) if c == mask)
            }
            _ => false,
        }
    };
    let factor = match (tag_factor(l), tag_factor(r)) {
        (Some(f), _) if is_x_part(r) => f,
        (_, Some(f)) if is_x_part(l) => f,
        _ => return None,
    };
    Some(IndexModel::Affine {
        factor,
        index_bits: k,
        in_bits,
    })
}

/// Per-bit GF(2)-affine summary of a node: output bit `i` is
/// `parity(a & rows[i]) ⊕ ((consts >> i) & 1)`. The rows live on the
/// heap, so each level of `lin`'s recursion keeps only pointers on the
/// stack.
#[derive(Clone)]
struct BitLin {
    rows: Box<[u64; 64]>,
    consts: u64,
}

/// Mask of output bits that can possibly be nonzero.
fn possibly_one(s: &BitLin) -> u64 {
    let mut m = s.consts;
    for (i, &r) in s.rows.iter().enumerate() {
        if r != 0 {
            m |= 1 << i;
        }
    }
    m
}

/// Abstract GF(2) interpretation; `None` when any node escapes the
/// bit-affine form.
fn lin(e: &Expr, in_bits: u32) -> Option<BitLin> {
    let zero = || BitLin {
        rows: Box::new([0u64; 64]),
        consts: 0,
    };
    match e {
        Expr::Addr => {
            let mut s = zero();
            for i in 0..in_bits.min(64) {
                s.rows[i as usize] = 1u64 << i;
            }
            Some(s)
        }
        Expr::Const(c) => {
            let mut s = zero();
            s.consts = *c;
            Some(s)
        }
        Expr::Bin(op, le, re) => match op {
            BinOp::Xor => {
                let l = lin(le, in_bits)?;
                let r = lin(re, in_bits)?;
                let mut s = zero();
                for i in 0..64 {
                    s.rows[i] = l.rows[i] ^ r.rows[i];
                }
                s.consts = l.consts ^ r.consts;
                Some(s)
            }
            BinOp::And => {
                let l = lin(le, in_bits)?;
                let r = lin(re, in_bits)?;
                let mut s = zero();
                for i in 0..64 {
                    let (lr, lc) = (l.rows[i], (l.consts >> i) & 1);
                    let (rr, rc) = (r.rows[i], (r.consts >> i) & 1);
                    // x & y is linear only when one side's bit is a known
                    // constant (or both sides are the identical function).
                    let (row, c) = if lr == 0 {
                        if lc == 0 {
                            (0, 0)
                        } else {
                            (rr, rc)
                        }
                    } else if rr == 0 {
                        if rc == 0 {
                            (0, 0)
                        } else {
                            (lr, lc)
                        }
                    } else if lr == rr && lc == rc {
                        (lr, lc)
                    } else {
                        return None;
                    };
                    s.rows[i] = row;
                    s.consts |= c << i;
                }
                Some(s)
            }
            BinOp::Or => {
                let l = lin(le, in_bits)?;
                let r = lin(re, in_bits)?;
                let mut s = zero();
                for i in 0..64 {
                    let (lr, lc) = (l.rows[i], (l.consts >> i) & 1);
                    let (rr, rc) = (r.rows[i], (r.consts >> i) & 1);
                    // x | y is linear when either side is constant (1
                    // absorbs, 0 passes through) or both are identical.
                    let (row, c) = if (lr == 0 && lc == 1) || (rr == 0 && rc == 1) {
                        (0, 1)
                    } else if lr == 0 {
                        (rr, rc)
                    } else if rr == 0 || (lr == rr && lc == rc) {
                        (lr, lc)
                    } else {
                        return None;
                    };
                    s.rows[i] = row;
                    s.consts |= c << i;
                }
                Some(s)
            }
            BinOp::Add => {
                let l = lin(le, in_bits)?;
                let r = lin(re, in_bits)?;
                // Carry-free addition only: when no bit position can be
                // nonzero on both sides, + is | is ^.
                if possibly_one(&l) & possibly_one(&r) != 0 {
                    return None;
                }
                let mut s = zero();
                for i in 0..64 {
                    s.rows[i] = l.rows[i] | r.rows[i];
                }
                s.consts = l.consts | r.consts;
                Some(s)
            }
            BinOp::Shl => {
                let Expr::Const(sh) = **re else {
                    return None;
                };
                let l = lin(le, in_bits)?;
                let mut s = zero();
                if sh < 64 {
                    let sh = usize::try_from(sh).expect("sh < 64");
                    for i in sh..64 {
                        s.rows[i] = l.rows[i - sh];
                    }
                    s.consts = l.consts << sh;
                }
                Some(s)
            }
            BinOp::Shr => {
                let Expr::Const(sh) = **re else {
                    return None;
                };
                let l = lin(le, in_bits)?;
                let mut s = zero();
                if sh < 64 {
                    let sh = usize::try_from(sh).expect("sh < 64");
                    for i in 0..64 - sh {
                        s.rows[i] = l.rows[i + sh];
                    }
                    s.consts = l.consts >> sh;
                }
                Some(s)
            }
            BinOp::Mod => {
                // x % m == x whenever x provably stays below m.
                let Expr::Const(m) = **re else {
                    return None;
                };
                (m > 0 && value_bound(le, input_mask(in_bits)) < m)
                    .then(|| lin(le, in_bits))
                    .flatten()
            }
            // fold() reduces power-of-two factors to shifts; any
            // remaining multiply carries across bits.
            BinOp::Mul => None,
        },
    }
}

/// Lowers into the linear family when the whole tree is bit-affine with a
/// zero constant part.
fn lower_linear(e: &Expr, in_bits: u32) -> Option<IndexModel> {
    let s = lin(e, in_bits)?;
    if s.consts != 0 {
        return None;
    }
    let out_bits = s.rows.iter().rposition(|&r| r != 0).map_or(0, |i| i + 1);
    let rows: Vec<u64> = s.rows[..out_bits].to_vec();
    Some(IndexModel::Linear(Gf2Matrix::new(rows, in_bits)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use primecache_core::expr::{builtins, fold, parse};
    use primecache_core::index::{Geometry, HashKind};

    use crate::model::{model_of, skew_xor_model, xor_folded_model};

    const IN_BITS: u32 = 26;

    fn lowered(src: &str) -> IndexModel {
        lower_expr(&parse(src).unwrap(), IN_BITS)
    }

    #[test]
    fn builtin_sources_lower_to_the_hard_coded_models() {
        let geom = Geometry::new(2048);
        assert_eq!(
            lowered(&builtins::traditional_src(geom)),
            model_of(HashKind::Traditional, geom, IN_BITS)
        );
        assert_eq!(
            lowered(&builtins::xor_src(geom)),
            model_of(HashKind::Xor, geom, IN_BITS)
        );
        assert_eq!(
            lowered(&builtins::xor_folded_src(geom)),
            xor_folded_model(geom, IN_BITS)
        );
        assert_eq!(
            lowered(&builtins::pmod_src(geom)),
            model_of(HashKind::PrimeModulo, geom, IN_BITS)
        );
        assert_eq!(
            lowered(&builtins::pdisp_src(geom, 9)),
            model_of(HashKind::PrimeDisplacement, geom, IN_BITS)
        );
    }

    #[test]
    fn skew_bank_sources_lower_to_the_hard_coded_models() {
        let geom = Geometry::new(512);
        for bank in 0..4 {
            assert_eq!(
                lowered(&builtins::skew_xor_bank_src(geom, bank)),
                skew_xor_model(geom, bank, IN_BITS),
                "bank {bank}"
            );
        }
    }

    #[test]
    fn lowered_model_agrees_with_tree_eval() {
        for src in [
            "a & 2047",
            "(a ^ (a >> 11)) & 2047",
            "a % 2039",
            "((9 * (a >> 11)) + (a & 2047)) & 2047",
            "((a % 2039) ^ (a >> 13)) & 2047", // opaque
            "(a & 1023) % 2039",               // mod passthrough, linear
            "((a & 15) << 4) | (a >> 22)",     // disjoint or
            "(a & 3) + ((a >> 2) & 12)",       // carry-free add
        ] {
            let e = parse(src).unwrap();
            let m = lower_expr(&e, IN_BITS);
            for a in 0..(1u64 << 14) {
                assert_eq!(m.eval(a), e.eval(a), "{src} at a = {a:#x}");
            }
            let mask = input_mask(IN_BITS);
            let mut a = 1u64;
            for _ in 0..5_000 {
                a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                assert_eq!(m.eval(a & mask), e.eval(a & mask), "{src}");
            }
        }
    }

    #[test]
    fn mixed_residue_xor_is_opaque() {
        let m = lowered("((a % 2039) ^ (a >> 13)) & 2047");
        assert!(matches!(m, IndexModel::Opaque { .. }), "{m:?}");
        assert_eq!(m.n_set(), 2048);
        assert!(m.conflict_generators().is_empty());
    }

    #[test]
    fn carrying_add_and_true_multiply_are_not_linear() {
        for src in ["(a + (a >> 11)) & 2047", "(a * 3) & 2047", "(a * 3) % 64"] {
            let e = fold(&parse(src).unwrap());
            assert!(lin(&e, IN_BITS).is_none(), "{src} must not be linear");
        }
    }

    #[test]
    fn constant_output_bits_must_be_zero_for_linear() {
        // `(a & 7) | 8` is bit-affine but with a constant 1 bit: not a
        // homogeneous linear map.
        let e = fold(&parse("(a & 7) | 8").unwrap());
        assert!(lower_linear(&e, IN_BITS).is_none());
        let m = lower_expr(&e, IN_BITS);
        assert!(matches!(m, IndexModel::Opaque { .. }));
        assert_eq!(m.eval(3), 11);
    }
}
