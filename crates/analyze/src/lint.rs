//! Config lint pass: statically reject degenerate cache-indexing setups.
//!
//! The simulator will happily run a "prime" modulo cache with a composite
//! modulus, a prime-displacement cache with an even factor, or a skewed
//! cache whose banks all hash identically — and silently produce wrecked
//! hit rates. Each lint here is the static form of one such failure:
//!
//! | code | level | degenerate setup |
//! |---|---|---|
//! | `non-prime-modulus` | error | `pMod` modulus with a nontrivial factor |
//! | `modulus-exceeds-geometry` | error | modulus above the physical set count |
//! | `even-displacement-factor` | error | `pDisp` factor not in the odd unit group |
//! | `weak-displacement-factor` | warning | effective factor 1: tags barely displaced |
//! | `rank-deficient-skew-bank` | error | a skew matrix that is not a permutation |
//! | `duplicate-skew-banks` | error | two banks with the identical map |
//! | `duplicate-skew-factors` | error | two pDisp banks sharing a factor |
//! | `high-fragmentation` | warning | > 5% of physical sets wasted |
//! | `pathological-null-space` | warning | XOR-family conflict stride ≤ 4·n_set |
//! | `idle-sweep-workers` | warning | sweep dispatches fewer tasks than workers |
//! | `set-space-exceeds-geometry` | error | expression addresses more sets than exist |
//! | `rank-deficient-linear-map` | error | expression's GF(2) map misses output bits |
//! | `opaque-index-model` | warning | expression certified by sampling only |
//!
//! Errors mean the configuration defeats the scheme's own premise;
//! warnings flag hazards the paper itself documents (§3.3) or sweeps
//! that cannot use the machine they run on.

use primecache_core::expr::ExprId;
use primecache_core::index::{Geometry, HashKind};
use primecache_primes::{factorize, is_prime};

use crate::lower::lower_expr;
use crate::model::{model_of, skew_xor_model, IndexModel};

/// Severity of a lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLevel {
    /// The configuration defeats the indexing scheme's premise.
    Error,
    /// A documented hazard worth surfacing, not a misconfiguration.
    Warning,
}

impl LintLevel {
    /// The level's name in reports and messages (`error`, `warning`).
    pub(crate) fn label(self) -> &'static str {
        match self {
            LintLevel::Error => "error",
            LintLevel::Warning => "warning",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Severity.
    pub level: LintLevel,
    /// Stable machine-readable code (kebab-case).
    pub code: &'static str,
    /// Human-readable explanation with the offending values.
    pub message: String,
}

impl Lint {
    fn error(code: &'static str, message: String) -> Self {
        Self {
            level: LintLevel::Error,
            code,
            message,
        }
    }

    fn warning(code: &'static str, message: String) -> Self {
        Self {
            level: LintLevel::Warning,
            code,
            message,
        }
    }
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]: {}", self.level.label(), self.code, self.message)
    }
}

/// True when `lints` contains at least one error-level finding.
#[must_use]
pub fn has_errors(lints: &[Lint]) -> bool {
    lints.iter().any(|l| l.level == LintLevel::Error)
}

/// Lints an explicit prime-modulo modulus against its geometry.
#[must_use]
pub fn lint_modulus(geom: Geometry, modulus: u64) -> Vec<Lint> {
    let mut out = Vec::new();
    if modulus == 0 {
        out.push(Lint::error(
            "modulus-exceeds-geometry",
            "modulus 0 indexes nothing".to_owned(),
        ));
        return out;
    }
    if modulus > geom.n_set_phys() {
        out.push(Lint::error(
            "modulus-exceeds-geometry",
            format!(
                "modulus {modulus} exceeds the {} physical sets",
                geom.n_set_phys()
            ),
        ));
    }
    if !is_prime(modulus) {
        let factors: Vec<String> = factorize(modulus)
            .into_iter()
            .map(|(p, e)| {
                if e == 1 {
                    p.to_string()
                } else {
                    format!("{p}^{e}")
                }
            })
            .collect();
        out.push(Lint::error(
            "non-prime-modulus",
            format!(
                "modulus {modulus} = {} is composite: strides that are \
                 multiples of any factor conflict systematically",
                factors.join(" * ")
            ),
        ));
    }
    let delta = geom.n_set_phys().saturating_sub(modulus);
    if modulus <= geom.n_set_phys() && delta * 20 > geom.n_set_phys() {
        out.push(Lint::warning(
            "high-fragmentation",
            format!(
                "{delta} of {} physical sets ({:.1}%) are never indexed",
                geom.n_set_phys(),
                delta as f64 / geom.n_set_phys() as f64 * 100.0
            ),
        ));
    }
    out
}

/// Lints a prime-displacement factor against its geometry.
#[must_use]
pub fn lint_displacement(geom: Geometry, factor: u64) -> Vec<Lint> {
    let mut out = Vec::new();
    if factor.is_multiple_of(2) {
        out.push(Lint::error(
            "even-displacement-factor",
            format!(
                "factor {factor} is even: not invertible mod 2^{}, tags \
                 collapse pairwise (footnote 2)",
                geom.index_bits()
            ),
        ));
    } else if factor & geom.index_mask() == 1 {
        out.push(Lint::warning(
            "weak-displacement-factor",
            format!(
                "factor {factor} ≡ 1 mod 2^{}: consecutive tags displace by \
                 a single set, preserving conflict layouts",
                geom.index_bits()
            ),
        ));
    }
    out
}

/// Lints a bank of Seznec skew functions: every bank matrix must be a
/// full-rank permutation, and no two banks may hash identically.
#[must_use]
pub fn lint_skew_xor(geom: Geometry, banks: u32) -> Vec<Lint> {
    let mut out = Vec::new();
    let in_bits = (2 * geom.index_bits()).min(64);
    let models: Vec<IndexModel> = (0..banks)
        .map(|b| skew_xor_model(geom, b, in_bits))
        .collect();
    for (b, model) in models.iter().enumerate() {
        if let IndexModel::Linear(m) = model {
            if m.rank() < m.out_bits() {
                out.push(Lint::error(
                    "rank-deficient-skew-bank",
                    format!(
                        "bank {b}: rank {} < {} index bits — some sets are \
                         unreachable",
                        m.rank(),
                        m.out_bits()
                    ),
                ));
            }
        }
    }
    for a in 0..models.len() {
        for b in a + 1..models.len() {
            if models[a] == models[b] {
                out.push(Lint::error(
                    "duplicate-skew-banks",
                    format!(
                        "banks {a} and {b} share the identical hash (shift \
                         wraps at {} index bits): no inter-bank dispersion",
                        geom.index_bits()
                    ),
                ));
            }
        }
    }
    out
}

/// Lints the per-bank factors of a prime-displacement skewed cache.
#[must_use]
pub fn lint_skew_disp(geom: Geometry, factors: &[u64]) -> Vec<Lint> {
    let mut out = Vec::new();
    for &f in factors {
        out.extend(lint_displacement(geom, f));
    }
    for a in 0..factors.len() {
        for b in a + 1..factors.len() {
            if factors[a] & geom.index_mask() == factors[b] & geom.index_mask() {
                out.push(Lint::error(
                    "duplicate-skew-factors",
                    format!(
                        "banks {a} and {b} share effective factor {} mod 2^{}: \
                         identical maps, no inter-bank dispersion",
                        factors[a] & geom.index_mask(),
                        geom.index_bits()
                    ),
                ));
            }
        }
    }
    out
}

/// Lints the shape of a parallel sweep: `n_tasks` `(workload, scheme)`
/// cells dispatched over `n_workers` threads.
///
/// The sweep scheduler's claim loop hands each task to exactly one
/// worker, so any worker beyond the task count spins up, claims
/// nothing, and exits — harmless, but a sign the sweep config
/// (scheme × workload grid) is too small for the machine and the run's
/// wall-clock will not reflect its parallelism.
#[must_use]
pub fn lint_sweep_shape(n_tasks: usize, n_workers: usize) -> Vec<Lint> {
    let mut out = Vec::new();
    if n_tasks < n_workers {
        out.push(Lint::warning(
            "idle-sweep-workers",
            format!(
                "sweep dispatches {n_tasks} task{} over {n_workers} workers: \
                 {} worker{} never claim a task",
                if n_tasks == 1 { "" } else { "s" },
                n_workers - n_tasks,
                if n_workers - n_tasks == 1 { "" } else { "s" },
            ),
        ));
    }
    out
}

/// Lints one single-function [`HashKind`] configuration over a geometry —
/// the entry point the simulator's suite construction calls.
#[must_use]
pub fn lint_kind(kind: HashKind, geom: Geometry) -> Vec<Lint> {
    match kind {
        HashKind::Traditional | HashKind::Xor => {
            let in_bits = (2 * geom.index_bits()).min(64);
            let model = model_of(kind, geom, in_bits);
            let mut out = Vec::new();
            if let Some(&d) = model.conflict_generators().first() {
                if d <= geom.n_set_phys() * 4 {
                    out.push(Lint::warning(
                        "pathological-null-space",
                        format!(
                            "{}: carry-free multiples of stride {d} collapse \
                             onto one set (null-space generator)",
                            kind.label()
                        ),
                    ));
                }
            }
            out
        }
        HashKind::PrimeModulo => {
            let modulus = primecache_primes::prev_prime(geom.n_set_phys())
                .expect("geometry guarantees n_set_phys >= 2");
            lint_modulus(geom, modulus)
        }
        HashKind::PrimeDisplacement => lint_displacement(geom, 9),
        HashKind::Expr(id) => lint_expr(geom, id),
    }
}

/// Lints a registered DSL expression against a geometry: the certificate
/// gate for user-defined schemes.
///
/// The expression is lowered over the **full 64-bit address** (so rank
/// and null-space findings describe the map the cache will actually run,
/// not a windowed restriction) and judged by the family it lands in:
///
/// * **Residue** — the modulus must be prime and fit the geometry
///   ([`lint_modulus`]): a composite modulus is exactly the degenerate
///   "pMod" the paper's Theorem 1 assumes away, and is rejected.
/// * **Affine** — the factor must be odd ([`lint_displacement`]).
/// * **Linear** — the map must reach every output bit
///   (`rank-deficient-linear-map` error), and a small null-space
///   generator is surfaced like the built-in XOR lints.
/// * **Opaque** — certified by sampling only: a warning, so simulation
///   proceeds but the run is visibly uncertified.
///
/// Any expression addressing more sets than physically exist is an error
/// regardless of family.
#[must_use]
pub fn lint_expr(geom: Geometry, id: ExprId) -> Vec<Lint> {
    let mut out = Vec::new();
    if id.n_set() > geom.n_set_phys() {
        out.push(Lint::error(
            "set-space-exceeds-geometry",
            format!(
                "`{}` addresses {} sets but the geometry has only {} — \
                 mask or reduce the result",
                id.source(),
                id.n_set(),
                geom.n_set_phys()
            ),
        ));
        return out;
    }
    match lower_expr(id.folded(), 64) {
        IndexModel::Residue { modulus, .. } => out.extend(lint_modulus(geom, modulus)),
        IndexModel::Affine { factor, .. } => out.extend(lint_displacement(geom, factor)),
        model @ IndexModel::Linear(_) => {
            if let IndexModel::Linear(m) = &model {
                if m.rank() < m.out_bits() {
                    out.push(Lint::error(
                        "rank-deficient-linear-map",
                        format!(
                            "`{}`: rank {} < {} output bits — some sets are \
                             unreachable",
                            id.source(),
                            m.rank(),
                            m.out_bits()
                        ),
                    ));
                }
            }
            if let Some(&d) = model.conflict_generators().first() {
                if d <= geom.n_set_phys() * 4 {
                    out.push(Lint::warning(
                        "pathological-null-space",
                        format!(
                            "{}: carry-free multiples of stride {d} collapse \
                             onto one set (null-space generator)",
                            id.name()
                        ),
                    ));
                }
            }
        }
        IndexModel::Opaque { n_set, .. } => {
            out.push(Lint::warning(
                "opaque-index-model",
                format!(
                    "`{}` matches no exact algebraic family: its certificate \
                     is sampled, not proved",
                    id.source()
                ),
            ));
            out.push(Lint::warning(
                "brute-force-certification",
                format!(
                    "`{}` lowers to the Opaque fallback: certification \
                     degrades to brute-force sampling over up to {n_set} \
                     sets, and black-box recovery (`pcache attack`) can \
                     only declare it Opaque, never reconstruct it",
                    id.source()
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_modulus_is_clean() {
        assert!(lint_modulus(Geometry::new(2048), 2039).is_empty());
    }

    #[test]
    fn composite_modulus_is_an_error() {
        let lints = lint_modulus(Geometry::new(2048), 2047);
        assert!(has_errors(&lints));
        assert!(lints.iter().any(|l| l.code == "non-prime-modulus"));
        assert!(lints[0].message.contains("23"), "{}", lints[0].message);
    }

    #[test]
    fn oversized_modulus_is_an_error() {
        let lints = lint_modulus(Geometry::new(64), 67);
        assert!(lints.iter().any(|l| l.code == "modulus-exceeds-geometry"));
    }

    #[test]
    fn tiny_prime_modulus_warns_about_fragmentation() {
        // 31 of 64 sets wasted: prime, but pathologically fragmented.
        let lints = lint_modulus(Geometry::new(64), 33);
        assert!(has_errors(&lints)); // 33 = 3 * 11
        let lints = lint_modulus(Geometry::new(64), 31);
        assert!(!has_errors(&lints));
        assert!(lints.iter().any(|l| l.code == "high-fragmentation"));
    }

    #[test]
    fn even_factor_is_an_error() {
        let lints = lint_displacement(Geometry::new(2048), 8);
        assert!(has_errors(&lints));
        assert_eq!(lints[0].code, "even-displacement-factor");
    }

    #[test]
    fn factor_one_warns() {
        let lints = lint_displacement(Geometry::new(2048), 2049);
        assert!(!has_errors(&lints));
        assert_eq!(lints[0].code, "weak-displacement-factor");
        assert!(lint_displacement(Geometry::new(2048), 9).is_empty());
    }

    #[test]
    fn four_skew_banks_are_clean_but_wrapping_duplicates_error() {
        assert!(lint_skew_xor(Geometry::new(512), 4).is_empty());
        // 10 banks over 9 index bits: bank 9 wraps onto bank 0.
        let lints = lint_skew_xor(Geometry::new(512), 10);
        assert!(has_errors(&lints));
        assert!(lints.iter().any(|l| l.code == "duplicate-skew-banks"));
    }

    #[test]
    fn duplicate_disp_factors_error() {
        let lints = lint_skew_disp(Geometry::new(512), &[9, 19, 9, 37]);
        assert!(has_errors(&lints));
        assert!(lints.iter().any(|l| l.code == "duplicate-skew-factors"));
        assert!(lint_skew_disp(Geometry::new(512), &[9, 19, 31, 37]).is_empty());
    }

    #[test]
    fn kind_lints_match_the_paper() {
        let geom = Geometry::new(2048);
        // The paper's recommended schemes lint clean.
        assert!(lint_kind(HashKind::PrimeModulo, geom).is_empty());
        assert!(lint_kind(HashKind::PrimeDisplacement, geom).is_empty());
        // Base and XOR carry their documented stride hazards as warnings.
        let base = lint_kind(HashKind::Traditional, geom);
        assert!(!has_errors(&base) && !base.is_empty());
        let xor = lint_kind(HashKind::Xor, geom);
        assert!(!has_errors(&xor));
        assert!(xor[0].message.contains("2049"), "{}", xor[0].message);
    }

    #[test]
    fn undersized_sweep_warns_about_idle_workers() {
        let lints = lint_sweep_shape(3, 16);
        assert!(!has_errors(&lints));
        assert_eq!(lints[0].code, "idle-sweep-workers");
        assert!(
            lints[0].message.contains("13 workers never"),
            "{}",
            lints[0].message
        );
        // One idle worker uses the singular form.
        let lints = lint_sweep_shape(15, 16);
        assert!(
            lints[0].message.contains("1 worker never"),
            "{}",
            lints[0].message
        );
    }

    #[test]
    fn saturating_sweep_shapes_are_clean() {
        assert!(lint_sweep_shape(115, 16).is_empty());
        assert!(lint_sweep_shape(16, 16).is_empty());
        // The scheduler clamps workers to the task count, so equality
        // after clamping is always reachable and must stay clean.
        assert!(lint_sweep_shape(0, 0).is_empty());
    }

    #[test]
    fn lint_display_includes_level_and_code() {
        let l = Lint::error("non-prime-modulus", "boom".to_owned());
        assert_eq!(l.to_string(), "error[non-prime-modulus]: boom");
    }
}
