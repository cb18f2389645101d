//! Machine-readable (JSON) rendering of an attack campaign.
//!
//! Same hand-rolled convention as `primecache_analyze::report`: the
//! workspace has no external dependencies, so the schema is rendered
//! directly — it is small, versioned, and consumed by scripts.

use primecache_analyze::{canonical_json, canonicalize};

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
pub const ATTACK_REPORT_VERSION: u32 = 1;

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

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn recovery_json(r: &Recovery) -> String {
    let (canonical, reasons) = match &r.verdict {
        Verdict::Model(m) => (canonical_json(&canonicalize(m)), "[]".to_owned()),
        Verdict::Opaque { reasons } => (
            "null".to_owned(),
            format!(
                "[{}]",
                reasons
                    .iter()
                    .map(|s| json_string(s))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    };
    let phases: Vec<String> = r
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"phase\":{},\"probes\":{},\"refs\":{}}}",
                json_string(p.phase),
                p.cost.probes,
                p.cost.refs
            )
        })
        .collect();
    format!(
        "{{\"family\":{},\"canonical\":{canonical},\"opaque_reasons\":{reasons},\
         \"probes\":{},\"refs\":{},\"phases\":[{}]}}",
        json_string(r.verdict.family()),
        r.cost.probes,
        r.cost.refs,
        phases.join(",")
    )
}

fn eviction_json(e: &EvictionCost) -> String {
    let tiers: Vec<String> = e
        .tiers
        .iter()
        .map(|t| {
            format!(
                "{{\"tier\":{},\"success\":{},\"probes\":{},\"refs\":{},\
                 \"set_size\":{},\"detail\":{}}}",
                json_string(t.tier),
                t.success,
                t.cost.probes,
                t.cost.refs,
                t.set_size,
                json_string(&t.detail)
            )
        })
        .collect();
    let first = e.first_success.map_or("null".to_owned(), json_string);
    format!(
        "{{\"victim\":{},\"assoc\":{},\"first_success\":{first},\"tiers\":[{}]}}",
        e.victim,
        e.assoc,
        tiers.join(",")
    )
}

/// Renders one entry as a JSON object.
#[must_use]
fn entry_json(e: &AttackEntry) -> String {
    let statik = e
        .static_canonical
        .as_ref()
        .map_or("null".to_owned(), canonical_json);
    format!(
        "{{\"scheme\":{},\"recovery\":{},\"agrees_static\":{},\
         \"static_canonical\":{statik},\"eviction\":{}}}",
        json_string(&e.scheme),
        recovery_json(&e.recovery),
        e.agrees_static,
        eviction_json(&e.eviction)
    )
}

/// Renders the full attack report.
#[must_use]
pub fn attack_report_json(entries: &[AttackEntry]) -> String {
    let objs: Vec<String> = entries.iter().map(entry_json).collect();
    format!(
        "{{\"schema\":{},\"version\":{ATTACK_REPORT_VERSION},\"entries\":[{}]}}",
        json_string(ATTACK_REPORT_SCHEMA),
        objs.join(",")
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

    #[test]
    fn report_carries_schema_version_and_entries() {
        let j = attack_report_json(&[sample_entry()]);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"schema\":\"primecache.attack-report\""));
        assert!(j.contains("\"version\":1"));
        assert!(j.contains("\"scheme\":\"pMod\""));
        assert!(j.contains("\"family\":\"residue\""));
        assert!(j.contains("\"modulus\":2039"));
        assert!(j.contains("\"agrees_static\":true"));
        assert!(j.contains("\"first_success\":null"));
    }

    #[test]
    fn opaque_verdicts_render_reasons_and_null_canonical() {
        let mut e = sample_entry();
        e.recovery.verdict = Verdict::Opaque {
            reasons: vec!["residue: \"quoted\" reason".to_owned()],
        };
        e.static_canonical = None;
        let j = entry_json(&e);
        assert!(j.contains("\"canonical\":null"));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"static_canonical\":null"));
    }
}
