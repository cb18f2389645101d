//! The attack differential oracle at the workspace seam.
//!
//! The static analyzer derives each scheme's index model from its
//! definition; the attack engine reconstructs it from nothing but
//! simulated conflict observations. This test pins their agreement —
//! `canonicalize(recovered) == canonicalize(static)` — for every
//! built-in scheme and a corpus of DSL `expr:` schemes, pins the honest
//! Opaque verdicts (skewed organizations, non-algebraic expressions),
//! and checks the versioned attack-report JSON.

use primecache::analyze::canonicalize;
use primecache::attack::{
    attack_report_json, eviction_cost, recover, AttackEntry, Verdict, ATTACK_REPORT_SCHEMA,
    ATTACK_REPORT_VERSION,
};
use primecache::core::expr::register_anonymous;
use primecache::obs::Json;
use primecache::sim::{static_model, MachineConfig, Scheme, SimOracle, PROBE_BITS};

fn recover_scheme(machine: &MachineConfig, scheme: Scheme) -> (primecache::attack::Recovery, bool) {
    let mut oracle = SimOracle::direct(machine, scheme, PROBE_BITS);
    let rec = recover(&mut oracle, 0x5EED);
    let statik = static_model(machine, scheme, PROBE_BITS);
    let agrees = rec.verdict.matches_static(statik.as_ref());
    (rec, agrees)
}

#[test]
fn differential_oracle_is_green_for_every_builtin_scheme() {
    let machine = MachineConfig::paper_default();
    for scheme in Scheme::ALL {
        let (rec, agrees) = recover_scheme(&machine, scheme);
        assert!(
            agrees,
            "{scheme}: recovered {:?} disagrees with the static model",
            rec.verdict
        );
        // The skewed organizations are the only honest Opaque verdicts.
        let skewed = matches!(scheme, Scheme::Skewed | Scheme::SkewedPrimeDisplacement);
        assert_eq!(
            matches!(rec.verdict, Verdict::Opaque { .. }),
            skewed,
            "{scheme}: unexpected verdict family"
        );
        assert!(
            rec.cost.probes > 0,
            "{scheme}: free recovery is implausible"
        );
    }
}

#[test]
fn differential_oracle_is_green_for_the_dsl_corpus() {
    let machine = MachineConfig::paper_default();
    // One representative per recoverable model family, plus variants
    // with non-canonical spellings the fold/lowering must normalize.
    let corpus = [
        "a % 2039",
        "a % 1021",
        "a & 2047",
        "(a ^ (a >> 11)) & 2047",
        "((9 * (a >> 11)) + a) & 2047",
    ];
    for src in corpus {
        let id = register_anonymous(src).expect("corpus expression compiles");
        let scheme = Scheme::Expr(id);
        let (rec, agrees) = recover_scheme(&machine, scheme);
        assert!(
            agrees,
            "expr `{src}`: recovered {:?} disagrees with the static model",
            rec.verdict
        );
        assert!(
            matches!(rec.verdict, Verdict::Model(_)),
            "expr `{src}`: expected an exact recovered model"
        );
    }
}

#[test]
fn opaque_expression_never_panics_and_matches_the_opaque_static_model() {
    let machine = MachineConfig::paper_default();
    // Mixes residue and shifted-XOR structure: lowers to the Opaque
    // fallback statically, and no recovery hypothesis fits it.
    let id = register_anonymous("((a % 2039) ^ (a >> 13)) & 2047").expect("compiles");
    let scheme = Scheme::Expr(id);
    let (rec, agrees) = recover_scheme(&machine, scheme);
    let Verdict::Opaque { reasons } = &rec.verdict else {
        panic!("expected an Opaque verdict, got {:?}", rec.verdict);
    };
    assert!(!reasons.is_empty(), "Opaque verdicts must carry evidence");
    assert!(agrees, "static Opaque and recovered Opaque must agree");
}

#[test]
fn eviction_cost_ranks_pmod_above_the_naive_tier_attack() {
    let machine = MachineConfig::paper_default();
    let mut naive_refs = std::collections::HashMap::new();
    for scheme in [Scheme::Base, Scheme::Xor, Scheme::PrimeModulo] {
        let mut native = SimOracle::native(&machine, scheme, PROBE_BITS);
        let cost = eviction_cost(
            &mut native,
            None,
            primecache::core::probe::ProbeCost::default(),
            0xE71C7,
        );
        naive_refs.insert(scheme.label(), cost.tier("naive-stride").cloned());
    }
    // Base and XOR fall to the stride ladder; pMod resists it outright
    // (Theorem 1 made quantitative) and needs the random-pool tier.
    assert!(naive_refs["Base"].as_ref().unwrap().success);
    assert!(naive_refs["XOR"].as_ref().unwrap().success);
    assert!(!naive_refs["pMod"].as_ref().unwrap().success);
}

#[test]
fn attack_report_json_is_versioned_and_well_formed() {
    let machine = MachineConfig::paper_default();
    let scheme = Scheme::PrimeModulo;
    let mut direct = SimOracle::direct(&machine, scheme, PROBE_BITS);
    let recovery = recover(&mut direct, 0x5EED);
    let statik = static_model(&machine, scheme, PROBE_BITS);
    let agrees_static = recovery.verdict.matches_static(statik.as_ref());
    let informed = match &recovery.verdict {
        Verdict::Model(m) => Some(m.clone()),
        Verdict::Opaque { .. } => None,
    };
    let mut native = SimOracle::native(&machine, scheme, PROBE_BITS);
    let eviction = eviction_cost(&mut native, informed.as_ref(), recovery.cost, 0xE71C7);
    let entry = AttackEntry {
        scheme: scheme.label().to_owned(),
        recovery,
        agrees_static,
        static_canonical: statik.as_ref().map(canonicalize),
        eviction,
    };
    let text = attack_report_json(std::slice::from_ref(&entry)).render();
    let doc = Json::parse(&text).expect("the report is parseable JSON");
    assert_eq!(
        doc.check_head(ATTACK_REPORT_SCHEMA, ATTACK_REPORT_VERSION),
        Ok(1)
    );
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
    let e = &entries[0];
    assert_eq!(e.get("scheme").and_then(Json::as_str), Some("pMod"));
    assert_eq!(e.get("agrees_static").and_then(Json::as_bool), Some(true));
    let modulus = |canonical: &Json| canonical.get("modulus").and_then(Json::as_u64);
    let recovered = e.get("recovery").and_then(|r| r.get("canonical")).unwrap();
    assert_eq!(modulus(recovered), Some(2039));
    assert_eq!(modulus(e.get("static_canonical").unwrap()), Some(2039));
    let tiers = e
        .get("eviction")
        .and_then(|v| v.get("tiers"))
        .and_then(Json::as_arr)
        .unwrap();
    let informed = tiers
        .iter()
        .find(|t| t.get("tier").and_then(Json::as_str) == Some("informed"))
        .expect("an informed tier");
    assert_eq!(informed.get("success").and_then(Json::as_bool), Some(true));
}
