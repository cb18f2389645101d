//! Machine-readable (JSON) rendering of certificates and lints.
//!
//! The workspace has no external dependencies, so this module renders
//! JSON by hand — the schema is small and stable, and the output
//! is consumed by scripts, not re-parsed by the workspace.

use crate::canonical::{canonicalize, CanonicalModel};
use crate::certificate::{Certificate, Theorem1};
use crate::lint::{Lint, LintLevel};

/// Schema identifier stamped into every [`report_json`] document, mirroring
/// the versioned `primecache.run-report` convention used by the simulator.
pub const REPORT_SCHEMA: &str = "primecache.analyze-report";

/// Schema version stamped into every [`report_json`] document. Bump when a
/// field is added, removed, or changes meaning.
///
/// History: v1 — certificates + lints; v2 — each certificate additionally
/// carries its `canonical` model form (the partition invariant the attack
/// differential oracle compares against; see DESIGN.md §4c for the
/// versioning policy).
pub const REPORT_VERSION: u32 = 2;

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

fn json_u64_array(values: &[u64], limit: usize) -> String {
    let shown: Vec<String> = values.iter().take(limit).map(u64::to_string).collect();
    format!("[{}]", shown.join(","))
}

fn theorem1_json(t: &Theorem1) -> String {
    match t {
        Theorem1::Holds { modulus } => {
            format!("{{\"verdict\":\"holds\",\"modulus\":{modulus}}}")
        }
        Theorem1::Fails { witness_stride } => {
            format!("{{\"verdict\":\"fails\",\"witness_stride\":{witness_stride}}}")
        }
        Theorem1::NoGuarantee => "{\"verdict\":\"no-guarantee\"}".to_owned(),
    }
}

/// Renders a canonical model form as a JSON object (the `canonical`
/// field of a v2 certificate and of attack-report entries).
#[must_use]
pub fn canonical_json(c: &CanonicalModel) -> String {
    let body = match c {
        CanonicalModel::Linear { in_bits, rows } => format!(
            "\"in_bits\":{in_bits},\"rows\":{}",
            json_u64_array(rows, rows.len())
        ),
        CanonicalModel::Residue { in_bits, modulus } => {
            format!("\"in_bits\":{in_bits},\"modulus\":{modulus}")
        }
        CanonicalModel::Affine {
            in_bits,
            index_bits,
            factor,
        } => format!("\"in_bits\":{in_bits},\"index_bits\":{index_bits},\"factor\":{factor}"),
        CanonicalModel::Opaque { in_bits, n_set } => {
            format!("\"in_bits\":{in_bits},\"n_set\":{n_set}")
        }
    };
    format!(
        "{{\"family\":{},{body},\"display\":{}}}",
        json_string(c.family()),
        json_string(&c.to_string())
    )
}

/// Renders one certificate as a JSON object. At most `stride_limit`
/// conflict-stride generators are emitted (they can number in the tens
/// for wide addresses).
#[must_use]
pub fn certificate_json(c: &Certificate, stride_limit: usize) -> String {
    format!(
        "{{\"name\":{},\"n_set\":{},\"in_bits\":{},\"rank\":{},\
         \"kernel_dim\":{},\"conflict_strides\":{},\"permutation\":{},\
         \"balanced\":{},\"balance_bound\":{},\"invariance\":{},\
         \"exact\":{},\"theorem1\":{},\"canonical\":{}}}",
        json_string(&c.name),
        c.n_set,
        c.in_bits,
        c.rank,
        c.kernel_dim,
        json_u64_array(&c.conflict_strides, stride_limit),
        c.permutation,
        c.balanced,
        c.balance_bound,
        json_string(c.invariance.label()),
        c.exact,
        theorem1_json(&c.theorem1),
        canonical_json(&canonicalize(&c.model)),
    )
}

/// Renders one lint finding as a JSON object.
#[must_use]
pub fn lint_json(l: &Lint) -> String {
    let level = match l.level {
        LintLevel::Error => "error",
        LintLevel::Warning => "warning",
    };
    format!(
        "{{\"level\":{},\"code\":{},\"message\":{}}}",
        json_string(level),
        json_string(l.code),
        json_string(&l.message),
    )
}

/// Renders the full analysis report: certificates plus lint findings.
#[must_use]
pub fn report_json(certs: &[Certificate], lints: &[Lint]) -> String {
    let cert_objs: Vec<String> = certs.iter().map(|c| certificate_json(c, 16)).collect();
    let lint_objs: Vec<String> = lints.iter().map(lint_json).collect();
    format!(
        "{{\"schema\":{},\"version\":{},\"certificates\":[{}],\"lints\":[{}]}}",
        json_string(REPORT_SCHEMA),
        REPORT_VERSION,
        cert_objs.join(","),
        lint_objs.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::certify_kind;
    use primecache_core::index::{Geometry, HashKind};

    #[test]
    fn certificate_json_has_the_headline_fields() {
        let c = certify_kind(HashKind::PrimeModulo, Geometry::new(2048), 26);
        let j = certificate_json(&c, 16);
        assert!(j.contains("\"name\":\"pMod\""));
        assert!(j.contains("\"n_set\":2039"));
        assert!(j.contains("\"verdict\":\"holds\""));
    }

    #[test]
    fn stride_limit_truncates() {
        let c = certify_kind(HashKind::Xor, Geometry::new(2048), 26);
        let j = certificate_json(&c, 2);
        let commas = j.split("\"conflict_strides\":[").nth(1).unwrap();
        let arr = &commas[..commas.find(']').unwrap()];
        assert_eq!(arr.split(',').count(), 2);
    }

    #[test]
    fn report_is_object_shaped() {
        let c = certify_kind(HashKind::Traditional, Geometry::new(64), 16);
        let j = report_json(&[c], &[]);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"lints\":[]"));
        assert!(j.contains("\"schema\":\"primecache.analyze-report\""));
        assert!(j.contains("\"version\":2"));
    }

    #[test]
    fn v2_certificates_carry_the_canonical_form() {
        let c = certify_kind(HashKind::PrimeModulo, Geometry::new(2048), 26);
        let j = certificate_json(&c, 16);
        assert!(j.contains("\"canonical\":{\"family\":\"residue\""));
        assert!(j.contains("\"modulus\":2039"));
        let lin = certify_kind(HashKind::Traditional, Geometry::new(64), 16);
        let j = certificate_json(&lin, 16);
        assert!(j.contains("\"family\":\"linear\""));
        assert!(j.contains("\"rows\":[1,2,4,8,16,32]"));
    }

    #[test]
    fn exact_flag_is_emitted() {
        let c = certify_kind(HashKind::PrimeModulo, Geometry::new(2048), 26);
        assert!(certificate_json(&c, 16).contains("\"exact\":true"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
