//! Machine-readable (JSON) rendering of certificates and lints.
//!
//! The report is a `primecache_obs::Json` document, built in the
//! workspace's one JSON model; scripts consume it and the tests parse it
//! back.

use primecache_obs::Json;

use crate::canonical::{canonicalize, CanonicalModel};
use crate::certificate::{Certificate, Theorem1};
use crate::lint::Lint;

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
pub const REPORT_VERSION: u64 = 2;

fn theorem1_json(t: &Theorem1) -> Json {
    let verdict = |v: &str| ("verdict", Json::Str(v.to_owned()));
    Json::obj(match *t {
        Theorem1::Holds { modulus } => vec![verdict("holds"), ("modulus", Json::U64(modulus))],
        Theorem1::Fails { witness_stride } => vec![
            verdict("fails"),
            ("witness_stride", Json::U64(witness_stride)),
        ],
        Theorem1::NoGuarantee => vec![verdict("no-guarantee")],
    })
}

/// Renders a canonical model form as a JSON object (the `canonical`
/// field of a v2 certificate and of attack-report entries).
#[must_use]
pub fn canonical_json(c: &CanonicalModel) -> Json {
    let bits = |in_bits: u32| ("in_bits", Json::U64(in_bits.into()));
    let mut members = vec![("family", Json::Str(c.family().to_owned()))];
    match c {
        CanonicalModel::Linear { in_bits, rows } => members.extend([
            bits(*in_bits),
            (
                "rows",
                Json::Arr(rows.iter().map(|&r| Json::U64(r)).collect()),
            ),
        ]),
        CanonicalModel::Residue { in_bits, modulus } => {
            members.extend([bits(*in_bits), ("modulus", Json::U64(*modulus))]);
        }
        CanonicalModel::Affine {
            in_bits,
            index_bits,
            factor,
        } => members.extend([
            bits(*in_bits),
            ("index_bits", Json::U64((*index_bits).into())),
            ("factor", Json::U64(*factor)),
        ]),
        CanonicalModel::Opaque { in_bits, n_set } => {
            members.extend([bits(*in_bits), ("n_set", Json::U64(*n_set))]);
        }
    }
    members.push(("display", Json::Str(c.to_string())));
    Json::obj(members)
}

/// One certificate as a JSON object. At most `stride_limit` conflict-
/// stride generators are emitted (they can number in the tens for wide
/// addresses).
fn certificate_json(c: &Certificate, stride_limit: usize) -> Json {
    let strides = c.conflict_strides.iter().take(stride_limit);
    Json::obj(vec![
        ("name", Json::Str(c.name.clone())),
        ("n_set", Json::U64(c.n_set)),
        ("in_bits", Json::U64(c.in_bits.into())),
        ("rank", Json::U64(c.rank.into())),
        ("kernel_dim", Json::U64(c.kernel_dim.into())),
        (
            "conflict_strides",
            Json::Arr(strides.map(|&d| Json::U64(d)).collect()),
        ),
        ("permutation", Json::Bool(c.permutation)),
        ("balanced", Json::Bool(c.balanced)),
        ("balance_bound", Json::F64(c.balance_bound)),
        ("invariance", Json::Str(c.invariance.label().to_owned())),
        ("exact", Json::Bool(c.exact)),
        ("theorem1", theorem1_json(&c.theorem1)),
        ("canonical", canonical_json(&canonicalize(&c.model))),
    ])
}

/// One lint finding as a JSON object.
fn lint_json(l: &Lint) -> Json {
    Json::obj(vec![
        ("level", Json::Str(l.level.label().to_owned())),
        ("code", Json::Str(l.code.to_owned())),
        ("message", Json::Str(l.message.clone())),
    ])
}

/// The full analysis report: certificates plus lint findings.
#[must_use]
pub fn report_json(certs: &[Certificate], lints: &[Lint]) -> Json {
    Json::document(
        REPORT_SCHEMA,
        REPORT_VERSION,
        vec![
            (
                "certificates",
                Json::Arr(certs.iter().map(|c| certificate_json(c, 16)).collect()),
            ),
            ("lints", Json::Arr(lints.iter().map(lint_json).collect())),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::certify_kind;
    use crate::lint::LintLevel;
    use primecache_core::index::{Geometry, HashKind};

    /// The report over `certs` and `lints`, rendered, parsed back and
    /// checked for its head.
    fn parsed(certs: &[Certificate], lints: &[Lint]) -> Json {
        let doc = Json::parse(&report_json(certs, lints).render()).expect("the report parses");
        assert_eq!(doc.check_head(REPORT_SCHEMA, REPORT_VERSION), Ok(2));
        doc
    }

    /// The `i`th parsed certificate's `key`.
    fn field<'a>(doc: &'a Json, i: usize, key: &str) -> &'a Json {
        let certs = doc.get("certificates").and_then(Json::as_arr).unwrap();
        certs[i].get(key).unwrap_or_else(|| panic!("{key} missing"))
    }

    #[test]
    fn certificates_carry_the_headline_fields() {
        let c = certify_kind(HashKind::PrimeModulo, Geometry::new(2048), 26);
        let doc = parsed(&[c], &[]);
        assert_eq!(field(&doc, 0, "name").as_str(), Some("pMod"));
        assert_eq!(field(&doc, 0, "n_set").as_u64(), Some(2039));
        assert_eq!(field(&doc, 0, "exact").as_bool(), Some(true));
        let theorem1 = field(&doc, 0, "theorem1");
        assert_eq!(
            theorem1.get("verdict").and_then(Json::as_str),
            Some("holds")
        );
        assert_eq!(theorem1.get("modulus").and_then(Json::as_u64), Some(2039));
    }

    #[test]
    fn stride_limit_truncates() {
        let c = certify_kind(HashKind::Xor, Geometry::new(2048), 26);
        assert!(c.conflict_strides.len() > 2);
        let j = Json::parse(&certificate_json(&c, 2).render()).unwrap();
        let strides = j.get("conflict_strides").and_then(Json::as_arr).unwrap();
        assert_eq!(strides.len(), 2);
    }

    #[test]
    fn report_is_a_versioned_document() {
        let c = certify_kind(HashKind::Traditional, Geometry::new(64), 16);
        let doc = parsed(&[c], &[]);
        let Json::Obj(members) = &doc else {
            panic!("the report is an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "version", "certificates", "lints"]);
        assert_eq!(doc.get("lints").and_then(Json::as_arr), Some(&[][..]));
    }

    #[test]
    fn v2_certificates_carry_the_canonical_form() {
        let pmod = certify_kind(HashKind::PrimeModulo, Geometry::new(2048), 26);
        let lin = certify_kind(HashKind::Traditional, Geometry::new(64), 16);
        let doc = parsed(&[pmod, lin], &[]);
        let residue = field(&doc, 0, "canonical");
        assert_eq!(
            residue.get("family").and_then(Json::as_str),
            Some("residue")
        );
        assert_eq!(residue.get("modulus").and_then(Json::as_u64), Some(2039));
        let linear = field(&doc, 1, "canonical");
        assert_eq!(linear.get("family").and_then(Json::as_str), Some("linear"));
        let rows: Vec<u64> = linear
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(rows, [1, 2, 4, 8, 16, 32]);
    }

    #[test]
    fn lint_messages_round_trip() {
        let lint = Lint {
            level: LintLevel::Error,
            code: "non-prime-modulus",
            message: "a\"b\\c\nd".to_owned(),
        };
        let doc = parsed(&[], std::slice::from_ref(&lint));
        let lints = doc.get("lints").and_then(Json::as_arr).unwrap();
        assert_eq!(lints[0].get("level").and_then(Json::as_str), Some("error"));
        assert_eq!(lints[0].get("code").and_then(Json::as_str), Some(lint.code));
        assert_eq!(
            lints[0].get("message").and_then(Json::as_str),
            Some(lint.message.as_str())
        );
    }
}
