//! Property tests of the index-expression DSL at the workspace seam:
//! printer/parser round-trip, folding soundness, span-carrying rejection
//! of malformed sources, and compile-time rejection of expressions the
//! closure compiler cannot bound.

use primecache::core::expr::{
    compile, fold, parse, register_anonymous, set_bound, BinOp, Expr, MAX_PARSE_DEPTH,
};
use primecache_check::prop::{forall, Rng};

/// A random expression tree, depth-bounded, drawn from a seed so the
/// prop harness can shrink the seed.
fn arb_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.range_u32(0, 4) == 0 {
        if rng.bool() {
            Expr::Addr
        } else {
            // Bias toward small constants (masks, shifts) but keep the
            // full u64 range reachable.
            let shift = rng.range_u32(0, 64);
            Expr::Const(rng.next_u64() >> shift)
        }
    } else {
        let op = match rng.range_u32(0, 8) {
            0 => BinOp::Or,
            1 => BinOp::Xor,
            2 => BinOp::And,
            3 => BinOp::Shl,
            4 => BinOp::Shr,
            5 => BinOp::Add,
            6 => BinOp::Mul,
            _ => BinOp::Mod,
        };
        let l = arb_expr(rng, depth - 1);
        let r = arb_expr(rng, depth - 1);
        Expr::bin(op, l, r)
    }
}

fn expr_from_seed(seed: u64) -> Expr {
    arb_expr(&mut Rng::new(seed), 4)
}

#[test]
fn printer_output_reparses_to_the_same_ast() {
    forall(
        "parse(print(ast)) == ast",
        500,
        |rng| rng.next_u64(),
        |&seed| {
            let e = expr_from_seed(seed);
            let printed = e.to_string();
            let reparsed = parse(&printed)
                .unwrap_or_else(|err| panic!("printed `{printed}` failed to reparse: {err}"));
            assert_eq!(reparsed, e, "round-trip changed the tree of `{printed}`");
        },
    );
}

#[test]
fn folding_preserves_semantics_and_round_trips() {
    forall(
        "fold is sound and printable",
        500,
        |rng| (rng.next_u64(), rng.next_u64()),
        |&(seed, addr)| {
            let e = expr_from_seed(seed);
            let folded = fold(&e);
            for a in [
                0u64,
                1,
                addr,
                addr.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                u64::MAX,
            ] {
                assert_eq!(
                    folded.eval(a),
                    e.eval(a),
                    "fold changed `{e}` at a = {a:#x} (folded: `{folded}`)"
                );
            }
            // Folding must stay inside the printable/parsable language.
            let printed = folded.to_string();
            assert_eq!(parse(&printed).expect("folded form reparses"), folded);
            // And be idempotent: a canonical form has no more work to do.
            assert_eq!(fold(&folded), folded, "fold not idempotent on `{e}`");
        },
    );
}

#[test]
fn malformed_sources_error_with_in_bounds_spans() {
    // Every rejection must be a span-carrying Err, never a panic, and the
    // span must point inside (or exactly at the end of) the source.
    let bad = [
        "",
        "   ",
        "a +",
        "+ a",
        "(a",
        "a)",
        "a & & 3",
        "a %% 2",
        "q",
        "addr2",
        "0x",
        "0xzz",
        "a[",
        "a[3]",
        "a[3:",
        "a[:2]",
        "a[2:5]", // hi < lo
        "a 5",
        "5 5",
        "a # 3",
        "((a % 2039) ^ (a >> 13) & 2047", // unbalanced
        "18446744073709551616",           // u64::MAX + 1
    ];
    for src in bad {
        match parse(src) {
            Ok(e) => panic!("`{src}` parsed as `{e}` but must be rejected"),
            Err(err) => {
                assert!(
                    err.span.start <= err.span.end && err.span.end <= src.len(),
                    "`{src}`: span {:?} out of bounds",
                    err.span
                );
                assert!(!err.message.is_empty(), "`{src}`: empty error message");
            }
        }
    }
}

#[test]
fn parse_never_panics_on_arbitrary_ascii() {
    forall(
        "parse totality",
        2_000,
        |rng| rng.next_u64(),
        |&seed| {
            let mut rng = Rng::new(seed);
            let len = rng.range_usize(0, 24);
            let mut src = String::new();
            for _ in 0..len {
                // Printable ASCII, weighted toward the DSL alphabet.
                let c = match rng.range_u32(0, 3) {
                    0 => b"a0123456789"[rng.range_usize(0, 11)],
                    1 => b"()[]<>^&|%*+: "[rng.range_usize(0, 14)],
                    _ => u8::try_from(rng.range_u32(0x20, 0x7f)).expect("printable ascii"),
                };
                src.push(char::from(c));
            }
            // Ok or Err are both fine; a panic fails the property. Spans
            // of rejections must stay inside the source.
            if let Err(e) = parse(&src) {
                assert!(e.span.end <= src.len(), "span escapes `{src}`");
            }
        },
    );
}

#[test]
fn the_deepest_accepted_sources_pass_every_stage_on_a_2_mb_stack() {
    // Each source is at `MAX_PARSE_DEPTH` in parentheses, in operators, or
    // both, and one level more is a parse error. Every stage `pcache
    // analyze --expr` runs must get through them in a debug build, whose
    // frames are the largest, on the stack of a spawned test thread.
    let max = MAX_PARSE_DEPTH;
    let sources = [
        format!("{}a{}", "(".repeat(max), ")".repeat(max)),
        format!("{}a{}", "a ^ (".repeat(max), ")".repeat(max)),
        format!("(a{}) & 2047", " + a".repeat(max - 1)),
        format!("a{}", "[1:1]".repeat(max / 2)),
    ];
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            for src in &sources {
                let ast = parse(src).expect("a source at the bound parses");
                let folded = fold(&ast);
                let _ = compile(&folded);
                let _ = set_bound(&folded, u64::MAX);
                let cert = primecache::analyze::certify_expr(src.clone(), &folded, 26);
                let _ = format!("{cert:?}");
                assert_eq!(parse(&ast.to_string()).as_ref(), Ok(&ast));
            }
            let deeper = [
                format!("({})", sources[0]),
                format!("({})", sources[1]),
                format!("a ^ ({})", sources[2]),
                format!("a ^ ({})", sources[3]),
            ];
            for src in &deeper {
                assert!(parse(src).is_err(), "one level past the bound: {src}");
            }
        })
        .expect("spawn")
        .join()
        .expect("no stage overflows the stack");
}

#[test]
fn unbounded_or_unsupported_expressions_fail_registration_not_simulation() {
    // Compile-level rejections: parseable sources the closure compiler
    // must refuse (division by zero, non-constant modulus, shift >= 64,
    // set space wider than any cache could hold).
    for src in ["a % 0", "a % a", "a % (a + 1)", "a << a", "a"] {
        assert!(
            register_anonymous(src).is_err(),
            "`{src}` must be rejected at registration"
        );
    }
    // The same sources masked into a bounded window become valid.
    let id = register_anonymous("a & 1023").expect("bounded source compiles");
    assert_eq!(id.n_set(), 1024);
}
