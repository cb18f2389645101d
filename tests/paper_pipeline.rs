//! End-to-end integration tests of the headline paper claims, spanning
//! every crate: workload generation → hierarchy → timing → metrics.
//!
//! Each test asserts claims of the experiment registry by id, at the
//! claims' own trace length. The steady-state (160k-ref) claims share one
//! context that simulates exactly the cells they read; this file asserts
//! every claim at that scale, `tests/sim_suite.rs` every other claim.
//! The full-scale numbers come from `pcache reproduce`.

use std::sync::OnceLock;

use primecache::sim::experiments::{check_claims, claim, claims, Claim, Ctx};
use primecache::sim::suite::Sweep;

// Short traces are dominated by cold misses; the conflict phenomena the
// paper studies need steady state, so shape-sensitive claims run longer.
const REFS: u64 = 60_000;
const REFS_STEADY: u64 = 160_000;

/// The cells every steady-state claim reads, simulated once.
fn steady() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| {
        let at_scale = claims().filter(|c| c.min_refs == REFS_STEADY);
        Ctx::new(REFS_STEADY, Sweep::default()).with_reads(at_scale)
    })
}

/// Asserts that the claims `ids` are evaluated in `ctx` and hold.
fn assert_claims(ctx: &Ctx, ids: &[&str]) {
    let asserted: Vec<Claim> = ids.iter().map(|id| *claim(id)).collect();
    let report = check_claims(&asserted, ctx);
    assert_eq!(
        report.passed,
        ids.len(),
        "at {} refs:\n{}",
        ctx.refs,
        report.table
    );
}

/// Asserts `ids`, simulating only the cells they read.
fn assert_claims_alone(refs: u64, ids: &[&str]) {
    let ctx = Ctx::new(refs, Sweep::default()).with_reads(ids.iter().map(|id| claim(id)));
    assert_claims(&ctx, ids);
}

#[test]
fn tree_conflicts_vanish_under_prime_indexing() {
    // Fig. 11: pMod eliminates nearly all of tree's misses; Fig. 7: and
    // that translates into a large speedup.
    assert_claims(
        steady(),
        &["fig11.tree-misses-eliminated", "fig7.tree-speedup"],
    );
}

#[test]
fn fig13_shape_base_concentrates_pmod_spreads() {
    // Paper: "vast majority of cache misses ... concentrated in about 10%
    // of the sets" under Base; pMod spreads them and eliminates most.
    assert_claims(
        steady(),
        &[
            "fig13.base-concentrates",
            "fig13.pmod-spreads",
            "fig13.pmod-eliminates-most",
        ],
    );
}

#[test]
fn prime_hashing_is_safe_on_uniform_applications() {
    // Fig. 8 / Table 4: pMod and pDisp never slow a uniform app by more
    // than ~2-3%.
    assert_claims_alone(REFS, &["fig8.prime-safe-on-sampled-apps"]);
}

#[test]
fn uniformity_classification_survives_the_full_pipeline() {
    // §4 through the *timing* pipeline rather than cache-only: every app
    // lands in the group the paper puts it in.
    assert_claims(steady(), &["classify.matches-paper"]);
}

#[test]
fn eight_way_is_not_an_effective_substitute() {
    // §5.2: "increasing cache associativity without increasing the cache
    // size is not an effective method to eliminate conflict misses."
    assert_claims(
        steady(),
        &["fig7.bt-eight-way-gain", "fig7.bt-pmod-over-eight-way"],
    );
}

#[test]
fn skewed_cache_pays_with_pathological_cases() {
    // Fig. 10: the skewed caches slow some uniform apps (bzip2 is the
    // canonical victim); pMod does not.
    assert_claims(
        steady(),
        &["fig10.bzip2-skewed-slowdown", "fig10.bzip2-pmod-safe"],
    );
}

#[test]
fn only_skewing_helps_the_scattered_block_workloads() {
    // §5.3: "With cg and mst, only the skewed associative schemes are able
    // to obtain speedups."
    assert_claims_alone(
        REFS,
        &["fig9.mst-single-hash-flat", "fig9.mst-skewing-helps"],
    );
}

#[test]
fn fully_associative_lower_bounds_conflict_misses() {
    // Figs. 11/12: FA removes all conflict misses; pMod gets within 2x of
    // the FA floor on the conflict-dominated bt.
    assert_claims(
        steady(),
        &["fig11.bt-fa-below-base", "fig11.bt-pmod-near-fa"],
    );
}

#[test]
fn every_steady_state_claim_holds() {
    let ids: Vec<&str> = claims()
        .filter(|c| c.min_refs == REFS_STEADY)
        .map(|c| c.id)
        .collect();
    assert!(!ids.is_empty());
    assert_claims(steady(), &ids);
}
