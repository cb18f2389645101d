//! Machine configuration and the compared cache schemes.

use primecache_analyze::{has_errors, lint_kind, lint_skew_disp, lint_skew_xor, Lint};
use primecache_cache::{
    bank_disp_factor, CacheConfig, HierarchyConfig, L2Organization, ReplacementKind, SkewHashKind,
    SkewedConfig,
};
use primecache_core::expr::ExprId;
use primecache_core::index::{Geometry, HashKind};
use primecache_cpu::CpuConfig;
use primecache_mem::MemConfig;

/// The cache configurations the paper's figures compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Traditional 4-way L2 (`Base`).
    Base,
    /// Traditional 8-way same-size L2 (`8-way`, Figs. 7/8).
    EightWay,
    /// XOR-indexed 4-way L2 (`XOR`).
    Xor,
    /// Prime-modulo 4-way L2 (`pMod`).
    PrimeModulo,
    /// Prime-displacement 4-way L2 (`pDisp`).
    PrimeDisplacement,
    /// Seznec's skewed L2 with circular-shift XOR (`SKW`).
    Skewed,
    /// Skewed L2 with prime displacement per bank (`skw+pDisp`).
    SkewedPrimeDisplacement,
    /// Fully-associative same-size L2 (`FA`, Figs. 11/12).
    FullyAssociative,
    /// A user-defined index function compiled from the expression DSL
    /// (`expr:<src>` on the CLI), run as a 4-way L2. The scheme is gated
    /// by the static certificate: [`MachineConfig::check_scheme`] rejects
    /// it before simulation when the lowered model lints with errors.
    Expr(ExprId),
}

impl Scheme {
    /// All schemes, in presentation order.
    pub const ALL: [Scheme; 8] = [
        Scheme::Base,
        Scheme::EightWay,
        Scheme::Xor,
        Scheme::PrimeModulo,
        Scheme::PrimeDisplacement,
        Scheme::Skewed,
        Scheme::SkewedPrimeDisplacement,
        Scheme::FullyAssociative,
    ];

    /// The single-hash schemes of Figs. 7/8.
    pub const SINGLE_HASH: [Scheme; 5] = [
        Scheme::Base,
        Scheme::EightWay,
        Scheme::Xor,
        Scheme::PrimeModulo,
        Scheme::PrimeDisplacement,
    ];

    /// The multi-hash comparison of Figs. 9/10.
    pub const MULTI_HASH: [Scheme; 4] = [
        Scheme::Base,
        Scheme::PrimeModulo,
        Scheme::Skewed,
        Scheme::SkewedPrimeDisplacement,
    ];

    /// The miss-count comparison of Figs. 11/12.
    pub const MISS_REDUCTION: [Scheme; 5] = [
        Scheme::Base,
        Scheme::PrimeModulo,
        Scheme::PrimeDisplacement,
        Scheme::SkewedPrimeDisplacement,
        Scheme::FullyAssociative,
    ];

    /// Display label matching the paper's figures. DSL schemes report
    /// their registered expression name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Base => "Base",
            Scheme::EightWay => "8-way",
            Scheme::Xor => "XOR",
            Scheme::PrimeModulo => "pMod",
            Scheme::PrimeDisplacement => "pDisp",
            Scheme::Skewed => "SKW",
            Scheme::SkewedPrimeDisplacement => "skw+pDisp",
            Scheme::FullyAssociative => "FA",
            Scheme::Expr(id) => id.name(),
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The full simulated machine (Table 3) with a scheme-selected L2.
///
/// # Examples
///
/// ```
/// use primecache_sim::{MachineConfig, Scheme};
///
/// let m = MachineConfig::paper_default();
/// let h = m.hierarchy_config(Scheme::PrimeModulo);
/// assert_eq!(h.l1.size_bytes(), 16 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Processor parameters.
    pub cpu: CpuConfig,
    /// Memory-system parameters.
    pub mem: MemConfig,
    /// L2 capacity in bytes.
    pub l2_size: u64,
    /// L2 line size in bytes.
    pub l2_line: u64,
}

impl MachineConfig {
    /// The paper's Table-3 machine.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            cpu: CpuConfig::paper_default(),
            mem: MemConfig::paper_default(),
            l2_size: 512 * 1024,
            l2_line: 64,
        }
    }

    /// The L2 organization for a scheme.
    #[must_use]
    pub fn l2_organization(&self, scheme: Scheme) -> L2Organization {
        let set_assoc = |assoc: u32, hash: HashKind| {
            L2Organization::SetAssoc(
                CacheConfig::new(self.l2_size, assoc, self.l2_line)
                    .with_hash(hash)
                    .with_replacement(ReplacementKind::Lru),
            )
        };
        match scheme {
            Scheme::Base => set_assoc(4, HashKind::Traditional),
            Scheme::EightWay => set_assoc(8, HashKind::Traditional),
            Scheme::Xor => set_assoc(4, HashKind::Xor),
            Scheme::PrimeModulo => set_assoc(4, HashKind::PrimeModulo),
            Scheme::PrimeDisplacement => set_assoc(4, HashKind::PrimeDisplacement),
            Scheme::Skewed => L2Organization::Skewed(SkewedConfig::new(
                self.l2_size,
                4,
                self.l2_line,
                SkewHashKind::Xor,
            )),
            Scheme::SkewedPrimeDisplacement => L2Organization::Skewed(SkewedConfig::new(
                self.l2_size,
                4,
                self.l2_line,
                SkewHashKind::PrimeDisplacement,
            )),
            Scheme::FullyAssociative => L2Organization::FullyAssociative {
                size_bytes: self.l2_size,
                line_bytes: self.l2_line,
            },
            Scheme::Expr(id) => set_assoc(4, HashKind::Expr(id)),
        }
    }

    /// The full hierarchy configuration for a scheme (paper L1 in front).
    #[must_use]
    pub fn hierarchy_config(&self, scheme: Scheme) -> HierarchyConfig {
        HierarchyConfig::paper_default(self.l2_organization(scheme))
    }

    /// Stable fingerprint of this machine under `scheme`: the FNV-1a
    /// hash (hex) of the canonical `Debug` rendering of the machine and
    /// the hierarchy it builds. Two runs with the same fingerprint
    /// simulated the same configuration; it is the
    /// `provenance.config_hash` of run reports.
    #[must_use]
    pub fn fingerprint(&self, scheme: Scheme) -> String {
        let canonical = format!("{:?}|{:?}", self, self.hierarchy_config(scheme));
        format!("{:016x}", primecache_obs::fnv1a_64(canonical.as_bytes()))
    }

    /// Statically lints the L2 configuration a scheme would build:
    /// composite moduli, even displacement factors, rank-deficient or
    /// duplicated skew banks, documented stride hazards.
    #[must_use]
    pub fn lint_scheme(&self, scheme: Scheme) -> Vec<Lint> {
        match self.l2_organization(scheme) {
            L2Organization::SetAssoc(c) => lint_kind(c.hash(), Geometry::new(c.n_set_phys())),
            L2Organization::Skewed(c) => {
                let geom = Geometry::new(c.sets_per_bank());
                match c.hash() {
                    SkewHashKind::Xor => lint_skew_xor(geom, c.banks()),
                    SkewHashKind::PrimeDisplacement => {
                        let factors: Vec<u64> = (0..c.banks()).map(bank_disp_factor).collect();
                        lint_skew_disp(geom, &factors)
                    }
                }
            }
            L2Organization::FullyAssociative { .. } => Vec::new(),
        }
    }

    /// Runs the lint pass and panics on any error-level finding — the
    /// guard the run drivers place in front of suite construction.
    ///
    /// # Panics
    ///
    /// Panics with the joined lint messages when the scheme's L2
    /// configuration is degenerate.
    pub fn check_scheme(&self, scheme: Scheme) {
        let lints = self.lint_scheme(scheme);
        assert!(
            !has_errors(&lints),
            "degenerate {} configuration:\n{}",
            scheme.label(),
            lints
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Scheme::SkewedPrimeDisplacement.label(), "skw+pDisp");
        assert_eq!(Scheme::EightWay.to_string(), "8-way");
    }

    #[test]
    fn every_scheme_builds_a_hierarchy() {
        let m = MachineConfig::paper_default();
        for s in Scheme::ALL {
            let cfg = m.hierarchy_config(s);
            let _ = primecache_cache::Hierarchy::new(cfg);
        }
    }

    #[test]
    fn eight_way_has_double_assoc() {
        let m = MachineConfig::paper_default();
        match m.l2_organization(Scheme::EightWay) {
            L2Organization::SetAssoc(c) => {
                assert_eq!(c.assoc(), 8);
                assert_eq!(c.size_bytes(), 512 * 1024);
            }
            other => panic!("unexpected organization {other:?}"),
        }
    }

    #[test]
    fn every_scheme_lints_clean_of_errors() {
        let m = MachineConfig::paper_default();
        for s in Scheme::ALL {
            let lints = m.lint_scheme(s);
            assert!(!primecache_analyze::has_errors(&lints), "{s}: {lints:?}");
            m.check_scheme(s); // must not panic
        }
    }

    #[test]
    fn xor_scheme_carries_the_stride_warning() {
        let m = MachineConfig::paper_default();
        let lints = m.lint_scheme(Scheme::Xor);
        assert!(lints.iter().any(|l| l.code == "pathological-null-space"));
        // The paper's recommended scheme is warning-free.
        assert!(m.lint_scheme(Scheme::PrimeModulo).is_empty());
    }

    #[test]
    fn fingerprints_separate_schemes_but_not_runs() {
        let m = MachineConfig::paper_default();
        assert_eq!(
            m.fingerprint(Scheme::PrimeModulo),
            m.fingerprint(Scheme::PrimeModulo)
        );
        assert_ne!(m.fingerprint(Scheme::Base), m.fingerprint(Scheme::Xor));
        let mut bigger = m;
        bigger.l2_size *= 2;
        assert_ne!(
            m.fingerprint(Scheme::Base),
            bigger.fingerprint(Scheme::Base)
        );
    }

    #[test]
    fn scheme_groups_have_expected_sizes() {
        assert_eq!(Scheme::SINGLE_HASH.len(), 5);
        assert_eq!(Scheme::MULTI_HASH.len(), 4);
        assert_eq!(Scheme::MISS_REDUCTION.len(), 5);
    }

    #[test]
    fn expr_scheme_flows_through_the_lint_gate() {
        use primecache_core::expr::register_anonymous;
        let m = MachineConfig::paper_default();
        let good = register_anonymous("a % 2039").expect("valid expression");
        let lints = m.lint_scheme(Scheme::Expr(good));
        assert!(!primecache_analyze::has_errors(&lints), "{lints:?}");
        m.check_scheme(Scheme::Expr(good)); // must not panic
        assert_eq!(Scheme::Expr(good).label(), "expr:a % 2039");

        let bad = register_anonymous("a % 2046").expect("valid expression");
        let lints = m.lint_scheme(Scheme::Expr(bad));
        assert!(lints.iter().any(|l| l.code == "non-prime-modulus"));
    }

    #[test]
    #[should_panic(expected = "non-prime-modulus")]
    fn composite_modulus_expr_is_rejected_before_simulation() {
        let m = MachineConfig::paper_default();
        let bad = primecache_core::expr::register_anonymous("a % 2046").expect("valid expression");
        m.check_scheme(Scheme::Expr(bad));
    }
}
