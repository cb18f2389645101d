//! Eviction-set construction cost, measured per attacker tier.
//!
//! An *eviction set* for a victim block is a set of addresses whose
//! accesses evict the victim — the primitive behind Prime+Probe and the
//! metric by which the paper's prime-indexed schemes claim hardening:
//! the classic way to build one is a stride ladder, and Theorem 1 says
//! no naive stride is a multiple of a prime modulus. This module makes
//! that claim quantitative by charging three attacker models against the
//! same probe oracle:
//!
//! 1. **naive-stride** — walk [`naive_strides`] (set-count multiples,
//!    `n ± 1`, powers of two) and test one eviction probe per stride.
//!    Traditional indexing falls to stride `n`, XOR to `n + 1`, and
//!    prime displacement to the tag-annihilation stride `2^(2k)`; only
//!    pMod survives the whole ladder.
//! 2. **random-pool** — only when the ladder fails: grow a seeded random
//!    pool until it evicts, then shrink it by group testing (remove one
//!    of `W + 1` groups per round; for a set-associative LRU cache the
//!    pigeonhole argument guarantees a removable group, so the loop
//!    provably makes progress down to `W` members). Budgeted in
//!    simulated references, and honest about failure: a skewed cache is
//!    *expected* to exhaust the budget.
//! 3. **informed** — always measured: an attacker who first runs
//!    [`crate::recover()`] and then *constructs* `W` conflicting partners
//!    directly from the recovered model. Its cost includes the recovery
//!    campaign — which is the honest negative result: once structure
//!    recovery is on the table, pMod's naive-tier advantage shrinks to
//!    the (comparable) cost of the recovery itself.

use primecache_analyze::{input_mask, IndexModel};
use primecache_core::probe::{ProbeCost, ProbeOracle};
use primecache_workloads::probe::{naive_strides, random_pool, stride_candidates};

/// Pool-size ceiling for the random-pool tier; doubling stops here.
const MAX_POOL: usize = 1 << 17;

/// Simulated-reference budget for the random-pool tier (growth and
/// reduction combined).
const REF_BUDGET: u64 = 1_000_000;

/// Skip group-test reduction above this associativity (a
/// fully-associative probe's "ways" are its whole capacity, where any
/// set that evicts is already minimal in the interesting sense).
const REDUCE_MAX_WAYS: u32 = 64;

/// Outcome and cost of one attacker tier.
#[derive(Debug, Clone)]
pub struct TierCost {
    /// Tier name: `naive-stride`, `random-pool`, or `informed`.
    pub tier: &'static str,
    /// Whether this tier produced a working eviction set.
    pub success: bool,
    /// Probes and simulated references charged to this tier (for the
    /// informed tier this includes the recovery campaign).
    pub cost: ProbeCost,
    /// Size of the final eviction set (0 on failure).
    pub set_size: usize,
    /// Human-readable outcome (winning stride, final pool size, reason
    /// for failure).
    pub detail: String,
}

/// Per-scheme eviction-set construction cost, all tiers.
#[derive(Debug, Clone)]
pub struct EvictionCost {
    /// The victim block the sets were built against.
    pub victim: u64,
    /// Associativity of the probed organization (`W`).
    pub assoc: u32,
    /// One entry per tier, in escalation order.
    pub tiers: Vec<TierCost>,
    /// Name of the first (cheapest) successful tier, if any.
    pub first_success: Option<&'static str>,
}

impl EvictionCost {
    /// The tier record by name, if it ran.
    #[must_use]
    pub fn tier(&self, name: &str) -> Option<&TierCost> {
        self.tiers.iter().find(|t| t.tier == name)
    }
}

/// Measures eviction-set construction cost against `oracle` for all
/// three attacker tiers. `informed_model` is the output of a prior
/// [`crate::recover()`] run (None when the verdict was Opaque),
/// `recovery_cost` is what that run cost — charged to the informed tier
/// — and `seed` seeds the random-pool tier.
pub fn eviction_cost(
    oracle: &mut dyn ProbeOracle,
    informed_model: Option<&IndexModel>,
    recovery_cost: ProbeCost,
    seed: u64,
) -> EvictionCost {
    let victim = 0u64;
    let assoc = oracle.assoc();
    let mut tiers = Vec::with_capacity(3);

    let naive = naive_tier(oracle, victim, assoc);
    let naive_won = naive.success;
    tiers.push(naive);

    if naive_won {
        tiers.push(TierCost {
            tier: "random-pool",
            success: false,
            cost: ProbeCost::default(),
            set_size: 0,
            detail: "skipped: naive-stride tier already succeeded".to_owned(),
        });
    } else {
        tiers.push(random_tier(oracle, victim, assoc, seed));
    }

    tiers.push(informed_tier(
        oracle,
        victim,
        assoc,
        informed_model,
        recovery_cost,
    ));

    let first_success = tiers.iter().find(|t| t.success).map(|t| t.tier);
    EvictionCost {
        victim,
        assoc,
        tiers,
        first_success,
    }
}

/// Tier 1: one eviction probe per ladder stride.
fn naive_tier(oracle: &mut dyn ProbeOracle, victim: u64, assoc: u32) -> TierCost {
    let before = oracle.cost();
    let in_bits = oracle.in_bits();
    for stride in naive_strides(oracle.n_set_phys(), in_bits) {
        let cands = stride_candidates(victim, stride, assoc, in_bits);
        if cands.len() < assoc as usize {
            continue; // ladder stride does not fit the probing window
        }
        if oracle.evicts(victim, &cands) {
            return TierCost {
                tier: "naive-stride",
                success: true,
                cost: oracle.cost().since(before),
                set_size: cands.len(),
                detail: format!("stride {stride} evicts"),
            };
        }
    }
    TierCost {
        tier: "naive-stride",
        success: false,
        cost: oracle.cost().since(before),
        set_size: 0,
        detail: "no ladder stride evicts".to_owned(),
    }
}

/// Tier 2: grow a seeded random pool until it evicts, then group-test it
/// down toward `W` members.
fn random_tier(oracle: &mut dyn ProbeOracle, victim: u64, assoc: u32, seed: u64) -> TierCost {
    let before = oracle.cost();
    let in_bits = oracle.in_bits();
    let over = |oracle: &mut dyn ProbeOracle| oracle.cost().since(before).refs > REF_BUDGET;

    // Growth: expected W blocks per set needs ~W·n_set blocks total.
    let mut size = (assoc as u64)
        .saturating_mul(oracle.n_set_phys())
        .clamp(assoc as u64 + 1, MAX_POOL as u64) as usize;
    let mut set: Option<Vec<u64>> = None;
    loop {
        let pool = random_pool(seed, size, in_bits, victim);
        if oracle.evicts(victim, &pool) {
            set = Some(pool);
            break;
        }
        if size >= MAX_POOL || over(oracle) {
            break;
        }
        size = (size * 2).min(MAX_POOL);
    }
    let Some(mut set) = set else {
        let spent = oracle.cost().since(before);
        return TierCost {
            tier: "random-pool",
            success: false,
            cost: spent,
            set_size: 0,
            detail: format!(
                "no pool up to {size} blocks evicts within {} refs",
                spent.refs
            ),
        };
    };

    // Reduction: drop one of W+1 groups per round while the remainder
    // still evicts.
    let w = assoc as usize;
    if assoc <= REDUCE_MAX_WAYS {
        'reduce: while set.len() > w && !over(oracle) {
            let groups = w + 1;
            let chunk = set.len().div_ceil(groups);
            for g in 0..groups {
                let lo = g * chunk;
                let hi = ((g + 1) * chunk).min(set.len());
                if lo >= hi {
                    continue;
                }
                let mut candidate = Vec::with_capacity(set.len() - (hi - lo));
                candidate.extend_from_slice(&set[..lo]);
                candidate.extend_from_slice(&set[hi..]);
                if candidate.len() >= w && oracle.evicts(victim, &candidate) {
                    set = candidate;
                    continue 'reduce;
                }
            }
            break; // no removable group (expected for skewed organizations)
        }
    }
    TierCost {
        tier: "random-pool",
        success: true,
        cost: oracle.cost().since(before),
        set_size: set.len(),
        detail: format!("reduced to {} blocks", set.len()),
    }
}

/// Tier 3: construct `W` conflicting partners from the recovered model
/// and confirm with a single eviction probe.
fn informed_tier(
    oracle: &mut dyn ProbeOracle,
    victim: u64,
    assoc: u32,
    model: Option<&IndexModel>,
    recovery_cost: ProbeCost,
) -> TierCost {
    let before = oracle.cost();
    let fail = |oracle: &mut dyn ProbeOracle, detail: String| TierCost {
        tier: "informed",
        success: false,
        cost: recovery_cost + oracle.cost().since(before),
        set_size: 0,
        detail,
    };
    let Some(model) = model else {
        return fail(
            oracle,
            "recovery declared the scheme Opaque: no model to construct from".to_owned(),
        );
    };
    let Some(partners) = conflict_partners(model, victim, assoc as usize, oracle.in_bits()) else {
        return fail(
            oracle,
            format!("model predicts fewer than {assoc} conflicting partners in the window"),
        );
    };
    let success = oracle.evicts(victim, &partners);
    TierCost {
        tier: "informed",
        success,
        cost: recovery_cost + oracle.cost().since(before),
        set_size: if success { partners.len() } else { 0 },
        detail: if success {
            format!(
                "{} constructed partners + 1 confirming probe",
                partners.len()
            )
        } else {
            "constructed partners failed the confirming probe".to_owned()
        },
    }
}

/// `count` distinct blocks the model maps to the victim's set, built
/// directly from the model's structure.
fn conflict_partners(
    model: &IndexModel,
    victim: u64,
    count: usize,
    in_bits: u32,
) -> Option<Vec<u64>> {
    let window = input_mask(in_bits);
    let mut out = Vec::with_capacity(count);
    match model {
        IndexModel::Residue { modulus, .. } => {
            let mut b = victim;
            while out.len() < count {
                b = b.checked_add(*modulus)?;
                if b > window {
                    return None;
                }
                out.push(b);
            }
        }
        IndexModel::Linear(matrix) => {
            // Distinct nonzero combinations of the kernel basis.
            let kernel = matrix.kernel_basis();
            let combos = 1u128 << kernel.len().min(40);
            let mut mask = 1u128;
            while out.len() < count {
                if mask >= combos {
                    return None;
                }
                let mut d = 0u64;
                for (i, &k) in kernel.iter().enumerate() {
                    if (mask >> i) & 1 == 1 {
                        d ^= k;
                    }
                }
                mask += 1;
                let b = victim ^ d;
                if d != 0 && b <= window {
                    out.push(b);
                }
            }
        }
        IndexModel::Affine {
            factor, index_bits, ..
        } => {
            let k = *index_bits;
            let set_mask = input_mask(k);
            let target = model.eval(victim);
            let vt = victim >> k;
            let max_tag = window >> k;
            let mut t = 0u64;
            while out.len() < count {
                if t > max_tag {
                    return None;
                }
                if t != vt {
                    let x = target.wrapping_sub(factor.wrapping_mul(t)) & set_mask;
                    out.push((t << k) | x);
                }
                t += 1;
            }
        }
        IndexModel::Opaque { .. } => return None,
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use primecache_core::probe::ModelOracle;

    #[test]
    fn traditional_falls_to_the_naive_ladder() {
        let mut oracle = ModelOracle::new(|a| a % 64, 64, 4, 16);
        let out = eviction_cost(&mut oracle, None, ProbeCost::default(), 0xE71C7);
        assert_eq!(out.first_success, Some("naive-stride"));
        let naive = out.tier("naive-stride").unwrap();
        assert!(naive.success);
        assert_eq!(naive.set_size, 4);
        assert!(naive.detail.contains("stride 64"));
        // Skipped tier is recorded as such.
        assert!(!out.tier("random-pool").unwrap().success);
    }

    #[test]
    fn prime_modulus_resists_naive_but_not_the_random_pool() {
        let mut oracle = ModelOracle::new(|a| a % 61, 64, 2, 16);
        let out = eviction_cost(&mut oracle, None, ProbeCost::default(), 0xE71C7);
        assert_eq!(out.first_success, Some("random-pool"));
        let pool = out.tier("random-pool").unwrap();
        assert!(pool.success);
        assert_eq!(pool.set_size, 2, "group testing should reach W");
        assert!(pool.cost.refs > out.tier("naive-stride").unwrap().cost.refs);
    }

    #[test]
    fn informed_tier_constructs_from_the_model_and_charges_recovery() {
        let mut oracle = ModelOracle::new(|a| a % 61, 64, 2, 16);
        let model = IndexModel::Residue {
            modulus: 61,
            in_bits: 16,
        };
        let recovery = ProbeCost {
            probes: 100,
            refs: 300,
        };
        let out = eviction_cost(&mut oracle, Some(&model), recovery, 0xE71C7);
        let informed = out.tier("informed").unwrap();
        assert!(informed.success);
        assert_eq!(informed.set_size, 2);
        assert!(informed.cost.probes > 100 && informed.cost.refs > 300);
    }

    #[test]
    fn opaque_verdict_leaves_the_informed_tier_empty_handed() {
        let mut oracle = ModelOracle::new(|a| a % 64, 64, 4, 16);
        let out = eviction_cost(&mut oracle, None, ProbeCost::default(), 0xE71C7);
        let informed = out.tier("informed").unwrap();
        assert!(!informed.success);
        assert!(informed.detail.contains("Opaque"));
    }

    #[test]
    fn affine_partners_land_in_the_victim_set() {
        let model = IndexModel::Affine {
            factor: 9,
            index_bits: 6,
            in_bits: 16,
        };
        let partners = conflict_partners(&model, 5, 8, 16).unwrap();
        assert_eq!(partners.len(), 8);
        for p in partners {
            assert_eq!(model.eval(p), model.eval(5));
            assert_ne!(p, 5);
        }
    }
}
