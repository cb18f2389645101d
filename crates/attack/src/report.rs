//! Machine-readable (JSON) rendering of an attack campaign.
//!
//! Same convention as `primecache_analyze::report`: a versioned
//! `primecache_obs::Json` document, consumed by scripts and parsed back
//! by the tests.

use primecache_analyze::{canonical_json, canonicalize};
use primecache_obs::Json;

use crate::evict::EvictionCost;
use crate::recover::{Recovery, Verdict};

/// Schema identifier stamped into every [`attack_report_json`] document.
pub const ATTACK_REPORT_SCHEMA: &str = "primecache.attack-report";

/// Schema version. Bump when a field is added, removed, or changes
/// meaning (same policy as `primecache.analyze-report`; see DESIGN.md
/// §4c).
///
/// History: v1 — recovery verdict + per-phase cost + differential
/// agreement + three-tier eviction-set cost.
pub const ATTACK_REPORT_VERSION: u64 = 1;

/// One scheme's worth of attack results: what was recovered, whether it
/// agrees with the static analyzer, and what eviction sets cost.
#[derive(Debug, Clone)]
pub struct AttackEntry {
    /// Scheme label (`Base`, `pMod`, an `expr:` source, ...).
    pub scheme: String,
    /// The black-box recovery outcome.
    pub recovery: Recovery,
    /// The differential-oracle verdict against the static model.
    pub agrees_static: bool,
    /// The static model's canonical form, when one exists (skewed
    /// organizations have none).
    pub static_canonical: Option<primecache_analyze::CanonicalModel>,
    /// Three-tier eviction-set construction cost.
    pub eviction: EvictionCost,
}

fn recovery_json(r: &Recovery) -> Json {
    let (canonical, reasons) = match &r.verdict {
        Verdict::Model(m) => (canonical_json(&canonicalize(m)), Vec::new()),
        Verdict::Opaque { reasons } => (
            Json::Null,
            reasons.iter().map(|s| Json::Str(s.clone())).collect(),
        ),
    };
    let phases = r.phases.iter().map(|p| {
        Json::obj(vec![
            ("phase", Json::Str(p.phase.to_owned())),
            ("probes", Json::U64(p.cost.probes)),
            ("refs", Json::U64(p.cost.refs)),
        ])
    });
    Json::obj(vec![
        ("family", Json::Str(r.verdict.family().to_owned())),
        ("canonical", canonical),
        ("opaque_reasons", Json::Arr(reasons)),
        ("probes", Json::U64(r.cost.probes)),
        ("refs", Json::U64(r.cost.refs)),
        ("phases", Json::Arr(phases.collect())),
    ])
}

fn eviction_json(e: &EvictionCost) -> Json {
    let tiers = e.tiers.iter().map(|t| {
        Json::obj(vec![
            ("tier", Json::Str(t.tier.to_owned())),
            ("success", Json::Bool(t.success)),
            ("probes", Json::U64(t.cost.probes)),
            ("refs", Json::U64(t.cost.refs)),
            ("set_size", Json::U64(t.set_size as u64)),
            ("detail", Json::Str(t.detail.clone())),
        ])
    });
    Json::obj(vec![
        ("victim", Json::U64(e.victim)),
        ("assoc", Json::U64(e.assoc.into())),
        (
            "first_success",
            e.first_success
                .map_or(Json::Null, |t| Json::Str(t.to_owned())),
        ),
        ("tiers", Json::Arr(tiers.collect())),
    ])
}

/// One entry as a JSON object.
fn entry_json(e: &AttackEntry) -> Json {
    Json::obj(vec![
        ("scheme", Json::Str(e.scheme.clone())),
        ("recovery", recovery_json(&e.recovery)),
        ("agrees_static", Json::Bool(e.agrees_static)),
        (
            "static_canonical",
            e.static_canonical
                .as_ref()
                .map_or(Json::Null, canonical_json),
        ),
        ("eviction", eviction_json(&e.eviction)),
    ])
}

/// The full attack report.
#[must_use]
pub fn attack_report_json(entries: &[AttackEntry]) -> Json {
    Json::document(
        ATTACK_REPORT_SCHEMA,
        ATTACK_REPORT_VERSION,
        vec![(
            "entries",
            Json::Arr(entries.iter().map(entry_json).collect()),
        )],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evict::TierCost;
    use crate::recover::PhaseCost;
    use primecache_analyze::{CanonicalModel, IndexModel};
    use primecache_core::probe::ProbeCost;

    fn sample_entry() -> AttackEntry {
        AttackEntry {
            scheme: "pMod".to_owned(),
            recovery: Recovery {
                verdict: Verdict::Model(IndexModel::Residue {
                    modulus: 2039,
                    in_bits: 26,
                }),
                cost: ProbeCost {
                    probes: 2103,
                    refs: 6309,
                },
                phases: vec![PhaseCost {
                    phase: "residue",
                    cost: ProbeCost {
                        probes: 2103,
                        refs: 6309,
                    },
                }],
            },
            agrees_static: true,
            static_canonical: Some(CanonicalModel::Residue {
                in_bits: 26,
                modulus: 2039,
            }),
            eviction: EvictionCost {
                victim: 0,
                assoc: 4,
                tiers: vec![TierCost {
                    tier: "naive-stride",
                    success: false,
                    cost: ProbeCost {
                        probes: 19,
                        refs: 114,
                    },
                    set_size: 0,
                    detail: "no ladder stride evicts".to_owned(),
                }],
                first_success: None,
            },
        }
    }

    /// `json` rendered and parsed back.
    fn parse_back(json: &Json) -> Json {
        Json::parse(&json.render()).expect("the report parses")
    }

    #[test]
    fn report_carries_schema_version_and_entries() {
        let doc = parse_back(&attack_report_json(&[sample_entry()]));
        assert_eq!(
            doc.check_head(ATTACK_REPORT_SCHEMA, ATTACK_REPORT_VERSION),
            Ok(1)
        );
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.get("scheme").and_then(Json::as_str), Some("pMod"));
        assert_eq!(e.get("agrees_static").and_then(Json::as_bool), Some(true));
        let canonical = e.get("recovery").and_then(|r| r.get("canonical")).unwrap();
        assert_eq!(
            canonical.get("family").and_then(Json::as_str),
            Some("residue")
        );
        assert_eq!(canonical.get("modulus").and_then(Json::as_u64), Some(2039));
        let eviction = e.get("eviction").unwrap();
        assert_eq!(eviction.get("first_success"), Some(&Json::Null));
        let tiers = eviction.get("tiers").and_then(Json::as_arr).unwrap();
        assert_eq!(tiers[0].get("refs").and_then(Json::as_u64), Some(114));
    }

    #[test]
    fn opaque_verdicts_render_reasons_and_null_canonical() {
        let mut e = sample_entry();
        let reason = "residue: \"quoted\" reason";
        e.recovery.verdict = Verdict::Opaque {
            reasons: vec![reason.to_owned()],
        };
        e.static_canonical = None;
        let j = parse_back(&entry_json(&e));
        let recovery = j.get("recovery").unwrap();
        assert_eq!(recovery.get("canonical"), Some(&Json::Null));
        assert_eq!(
            recovery.get("opaque_reasons"),
            Some(&Json::Arr(vec![Json::Str(reason.to_owned())]))
        );
        assert_eq!(j.get("static_canonical"), Some(&Json::Null));
    }
}
