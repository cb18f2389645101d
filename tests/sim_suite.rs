//! Integration tests of the experiment framework (sweeps, Table 4,
//! figure claims).
//!
//! Claims of the experiment registry are asserted by id, at their own
//! trace length, against one shared context per scale that simulates
//! exactly the cells that scale's claims read. This file asserts every
//! claim except the steady-state (160k-ref) ones, which
//! `tests/paper_pipeline.rs` asserts.

use std::sync::OnceLock;

use primecache::sim::experiments::{check_claims, claim, claims, Ctx};
use primecache::sim::suite::{run_sweep, Sweep};
use primecache::sim::Scheme;
use primecache::workloads::all;

const REFS: u64 = 60_000;
/// The scale `tests/paper_pipeline.rs` asserts.
const REFS_STEADY: u64 = 160_000;

/// The schemes the claims at [`REFS`] read for every application: the
/// context at that scale starts from their full [`run_sweep`] matrix.
const MATRIX: [Scheme; 3] = [
    Scheme::Base,
    Scheme::PrimeModulo,
    Scheme::SkewedPrimeDisplacement,
];

/// The shared context of the claims at `refs` (0 for the exact claims).
fn at(refs: u64) -> &'static Ctx {
    static CTXS: OnceLock<Vec<(u64, OnceLock<Ctx>)>> = OnceLock::new();
    let ctxs = CTXS.get_or_init(|| {
        let mut scales: Vec<u64> = claims().map(|c| c.min_refs).collect();
        scales.sort_unstable();
        scales.dedup();
        scales.into_iter().map(|r| (r, OnceLock::new())).collect()
    });
    let (_, ctx) = ctxs
        .iter()
        .find(|(r, _)| *r == refs)
        .unwrap_or_else(|| panic!("no claim at {refs} refs"));
    ctx.get_or_init(|| {
        let sweep = if refs == REFS {
            run_sweep(&MATRIX, REFS)
        } else {
            Sweep::default()
        };
        Ctx::new(refs, sweep).with_reads(claims().filter(|c| c.min_refs == refs))
    })
}

/// Asserts the claims `ids`, each at its own scale.
fn assert_claims(ids: &[&str]) {
    for &id in ids {
        let c = claim(id);
        let report = check_claims(&[*c], at(c.min_refs));
        assert_eq!(
            report.passed, 1,
            "at {} refs:\n{}",
            c.min_refs, report.table
        );
    }
}

#[test]
fn sweep_produces_a_full_matrix() {
    let sweep = &at(REFS).sweep;
    assert_eq!(sweep.cells.len(), 23);
    for w in all() {
        for s in MATRIX {
            let cell = sweep
                .get(w.name, s)
                .unwrap_or_else(|| panic!("missing cell {}/{}", w.name, s.label()));
            assert_eq!(cell.workload, w.name);
            assert!(cell.result.breakdown.total() > 0);
            assert!(cell.result.l1.accesses >= REFS);
        }
    }
}

#[test]
fn speedups_and_normalized_times_are_reciprocal() {
    // The Table 4 claims read every app under Base and pMod at this scale.
    let ctx = at(REFS);
    for w in all() {
        let cycles = |s| ctx.cell(w.name, s).breakdown.total() as f64;
        let n = ctx.time(w.name, Scheme::PrimeModulo);
        let s = ctx.speedup(w.name, Scheme::PrimeModulo);
        assert!((n * s - 1.0).abs() < 1e-9, "{}: {n} * {s}", w.name);
        let ratio = cycles(Scheme::Base) / cycles(Scheme::PrimeModulo);
        assert!((s - ratio).abs() < 1e-9, "{}: {s} vs {ratio}", w.name);
    }
}

#[test]
fn table4_pmod_beats_base_on_non_uniform_average() {
    // Uniform apps stay near 1.0 on average; pMod's pathological count
    // stays small (Table 4).
    assert_claims(&[
        "table4.pmod-non-uniform-avg",
        "table4.pmod-uniform-avg",
        "table4.pmod-pathological",
    ]);
}

#[test]
fn non_uniform_group_gains_more_than_uniform_group() {
    assert_claims(&["table4.non-uniform-gain-exceeds-uniform"]);
}

#[test]
fn fig5_sweep_matches_section_3_3_analysis() {
    // Traditional: bad on every even stride, ideal on every odd one; pMod
    // ideal everywhere but its own modulus.
    assert_claims(&[
        "fig5.base-ideal-on-odd-strides",
        "fig5.base-bad-on-even-strides",
        "fig5.pmod-bad-only-at-its-prime",
        "fig5.xor-pdisp-mostly-ideal",
    ]);
}

#[test]
fn fig6_sweep_ranks_the_functions_like_the_paper() {
    // §5.1: pMod ideal everywhere but its modulus; traditional bad on
    // even strides only; XOR and pDisp bad on many more strides.
    assert_claims(&[
        "fig6.base-even-strides-only",
        "fig6.pmod-bad-only-at-its-prime",
        "fig6.xor-bad-on-most-small-strides",
        "fig6.xor-pdisp-worse-than-base",
    ]);
}

#[test]
fn every_other_claim_holds_at_its_scale() {
    let ids: Vec<&str> = claims()
        .filter(|c| c.min_refs != REFS_STEADY)
        .map(|c| c.id)
        .collect();
    assert!(ids.len() > 20, "{} claims", ids.len());
    assert_claims(&ids);
}
