//! Simulator-backed probe oracle: the bridge between the attack engine
//! and the real cache models.
//!
//! [`SimOracle`] implements [`ProbeOracle`] by replaying each crafted
//! block trace against a *fresh* cache built from the scheme's real L2
//! organization and counting misses — exactly the observable the attack
//! engine is allowed (cold-cache per probe is the attack's contract; see
//! `primecache_core::probe`). Two shapes are offered:
//!
//! * [`SimOracle::direct`] — the scheme's index function in a
//!   direct-mapped probe cache (associativity 1, same set count, same
//!   hash). This is the structure-recovery shape: `same_set` probes are
//!   exact. A fully-associative L2 probes as a capacity-1 cache (every
//!   pair conflicts — which *is* its conflict structure), and a skewed
//!   L2 keeps its native multi-bank form (it has no single-hash
//!   equivalent; recovery is expected to declare it Opaque).
//! * [`SimOracle::native`] — the scheme's real organization, full
//!   associativity and replacement. This is the eviction-cost shape.
//!
//! [`static_model`] is the other half of the differential oracle: the
//! analyzer's certified model for the same scheme, or `None` for the
//! skewed organizations (no single index function exists to model).

use primecache_analyze::{model_of, IndexModel};
use primecache_cache::{
    Cache, CacheConfig, FullyAssociative, L2Organization, ReplacementKind, SkewedCache,
};
use primecache_core::index::Geometry;
use primecache_core::probe::{ProbeCost, ProbeOracle};

use crate::config::{MachineConfig, Scheme};

/// Probing window width used by the CLI and the differential tests: the
/// paper machine's 4 GB physical address space is 2^26 blocks of 64 B.
pub const PROBE_BITS: u32 = 26;

/// A [`ProbeOracle`] that answers by simulating the scheme's L2.
pub struct SimOracle {
    /// The probed organization, built fresh for every probe.
    l2: L2Organization,
    in_bits: u32,
    cost: ProbeCost,
}

impl SimOracle {
    /// The structure-recovery shape: direct-mapped probe cache with the
    /// scheme's index function (see module docs for the FA and skewed
    /// special cases).
    #[must_use]
    pub fn direct(machine: &MachineConfig, scheme: Scheme, in_bits: u32) -> Self {
        let l2 = match machine.l2_organization(scheme) {
            L2Organization::SetAssoc(c) => L2Organization::SetAssoc(
                CacheConfig::new(c.n_set_phys() * c.line_bytes(), 1, c.line_bytes())
                    .with_hash(c.hash())
                    .with_replacement(ReplacementKind::Lru),
            ),
            L2Organization::FullyAssociative { line_bytes, .. } => {
                L2Organization::FullyAssociative {
                    size_bytes: line_bytes,
                    line_bytes,
                }
            }
            skewed @ L2Organization::Skewed(_) => skewed,
        };
        Self {
            l2,
            in_bits,
            cost: ProbeCost::default(),
        }
    }

    /// The eviction-cost shape: the scheme's real L2 organization.
    #[must_use]
    pub fn native(machine: &MachineConfig, scheme: Scheme, in_bits: u32) -> Self {
        Self {
            l2: machine.l2_organization(scheme),
            in_bits,
            cost: ProbeCost::default(),
        }
    }
}

impl ProbeOracle for SimOracle {
    fn in_bits(&self) -> u32 {
        self.in_bits
    }

    fn n_set_phys(&self) -> u64 {
        match &self.l2 {
            L2Organization::SetAssoc(c) => c.n_set_phys(),
            L2Organization::Skewed(c) => c.sets_per_bank(),
            L2Organization::FullyAssociative { .. } => 1,
        }
    }

    fn assoc(&self) -> u32 {
        match &self.l2 {
            L2Organization::SetAssoc(c) => c.assoc(),
            L2Organization::Skewed(c) => c.banks() * c.ways_per_bank(),
            L2Organization::FullyAssociative {
                size_bytes,
                line_bytes,
            } => u32::try_from(size_bytes / line_bytes).expect("L2 capacity fits u32"),
        }
    }

    fn misses(&mut self, blocks: &[u64]) -> u64 {
        self.cost.probes += 1;
        self.cost.refs += blocks.len() as u64;
        let cold_misses = |hits: &mut dyn FnMut(u64) -> bool| -> u64 {
            blocks.iter().filter(|&&b| !hits(b)).count() as u64
        };
        match &self.l2 {
            L2Organization::SetAssoc(config) => {
                let mut cache = Cache::new(*config);
                cold_misses(&mut |b| cache.access_block(b, false).hit)
            }
            L2Organization::Skewed(config) => {
                let mut cache = SkewedCache::new(*config);
                cold_misses(&mut |b| cache.access_block(b, false).hit)
            }
            L2Organization::FullyAssociative {
                size_bytes,
                line_bytes,
            } => {
                let mut cache = FullyAssociative::new(*size_bytes, *line_bytes);
                cold_misses(&mut |b| cache.access_block(b, false).hit)
            }
        }
    }

    fn cost(&self) -> ProbeCost {
        self.cost
    }
}

/// The static analyzer's model of a scheme's index function — the other
/// arm of the differential oracle. `None` for skewed organizations: a
/// multi-bank skew has no single set-index function, so the honest
/// static answer matches the attack's expected Opaque verdict. A
/// fully-associative L2 is the one-set cache, `a mod 1`.
#[must_use]
pub fn static_model(machine: &MachineConfig, scheme: Scheme, in_bits: u32) -> Option<IndexModel> {
    match machine.l2_organization(scheme) {
        L2Organization::SetAssoc(c) => {
            Some(model_of(c.hash(), Geometry::new(c.n_set_phys()), in_bits))
        }
        L2Organization::Skewed(_) => None,
        L2Organization::FullyAssociative { .. } => Some(IndexModel::Residue {
            modulus: 1,
            in_bits,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_oracle_agrees_with_the_static_model_on_pairs() {
        let machine = MachineConfig::paper_default();
        for scheme in [Scheme::Base, Scheme::Xor, Scheme::PrimeModulo] {
            let model = static_model(&machine, scheme, PROBE_BITS).unwrap();
            let mut oracle = SimOracle::direct(&machine, scheme, PROBE_BITS);
            for (a, b) in [(0u64, 2048u64), (0, 2039), (7, 2056), (1, 2050), (3, 99)] {
                assert_eq!(
                    oracle.same_set(a, b),
                    model.eval(a) == model.eval(b),
                    "{scheme}: pair ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn native_shapes_report_the_real_geometry() {
        let machine = MachineConfig::paper_default();
        let fa = SimOracle::native(&machine, Scheme::FullyAssociative, PROBE_BITS);
        assert_eq!(fa.assoc(), 8192);
        assert_eq!(fa.n_set_phys(), 1);
        let skw = SimOracle::native(&machine, Scheme::Skewed, PROBE_BITS);
        assert_eq!(skw.assoc(), 4);
        assert_eq!(skw.n_set_phys(), 2048);
        let eight = SimOracle::native(&machine, Scheme::EightWay, PROBE_BITS);
        assert_eq!(eight.assoc(), 8);
        assert_eq!(eight.n_set_phys(), 1024);
    }

    #[test]
    fn fully_associative_probes_as_the_one_set_cache() {
        let machine = MachineConfig::paper_default();
        let mut direct = SimOracle::direct(&machine, Scheme::FullyAssociative, PROBE_BITS);
        assert!(direct.same_set(3, 1 << 20));
        assert_eq!(direct.n_set_phys(), 1);
        let c = direct.cost();
        assert_eq!(c.probes, 1);
        assert_eq!(c.refs, 3);
    }

    #[test]
    fn skewed_oracle_never_sees_a_pairwise_conflict() {
        let machine = MachineConfig::paper_default();
        let mut oracle = SimOracle::direct(&machine, Scheme::Skewed, PROBE_BITS);
        for d in [2048u64, 2049, 2039, 1 << 22] {
            assert!(!oracle.same_set(0, d), "stride {d}");
        }
    }

    #[test]
    fn static_models_exist_exactly_where_a_single_hash_does() {
        let machine = MachineConfig::paper_default();
        for scheme in Scheme::ALL {
            let m = static_model(&machine, scheme, PROBE_BITS);
            let skewed = matches!(scheme, Scheme::Skewed | Scheme::SkewedPrimeDisplacement);
            assert_eq!(m.is_none(), skewed, "{scheme}");
        }
    }
}
