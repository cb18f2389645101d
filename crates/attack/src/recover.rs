//! Structure recovery from conflict observations.
//!
//! Strategy: three verified hypotheses, cheapest observable first, each
//! one *rejected by evidence* rather than assumption. Every accepted
//! model survives a sampled verification pass (structured positive pairs
//! the hypothesis predicts collide, plus random pairs whose predicted
//! and observed outcomes must agree), so a wrong family never leaks out
//! as a confident answer — it falls through to the next hypothesis and
//! ultimately to the declared [`Verdict::Opaque`].
//!
//! 1. **Residue** (`a mod m`): ascending scan `d = 1..=n_set_phys` of
//!    `same_set(0, d)`. For a true residue scheme the smallest positive
//!    collider with 0 is exactly the modulus; `m = 1` (every pair
//!    collides) covers the degenerate single-set cache a capacity-1
//!    probe of a fully-associative organization exposes.
//! 2. **Linear** (GF(2)): process basis vectors `e_0..e_{n−1}`,
//!    maintaining class representatives — the carry-free subset sums of
//!    the independent vectors found so far, labeled by `F_2^r` — and
//!    classify each `e_i` against them with same-set probes. Because the
//!    representatives are bit-disjoint sums, a match pins `H(e_i)` up to
//!    the output relabeling a black box can never see; the result is a
//!    matrix with the *same row space* as the hidden map, which is
//!    exactly what [`primecache_analyze::canonicalize`] compares.
//! 3. **Affine** (`(p·T + x) mod 2^k`): the set of the tag-only address
//!    `2^shift·2^k` is `(p mod 2^j)·2^shift`, so each probe of a
//!    tag-only address against two candidate index-only addresses
//!    decides one more bit of `p` — `2k` probes to read the factor out.

use primecache_analyze::{canonicalize, input_mask, Gf2Matrix, IndexModel};
use primecache_core::probe::{ProbeCost, ProbeOracle};

/// Verification pairs per accepted hypothesis (half structured
/// positives, half random agreement checks).
const VERIFY_PAIRS: usize = 64;

/// What the attacker concluded.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// A verified exact model (same canonical form as the static one
    /// when the oracle really hides that family).
    Model(IndexModel),
    /// No verified family fits — declared honestly, with the evidence
    /// trail of rejected hypotheses.
    Opaque {
        /// Why each hypothesis was rejected.
        reasons: Vec<String>,
    },
}

impl Verdict {
    /// Family tag for tables and reports (`residue` / `linear` /
    /// `affine` / `opaque`).
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            Verdict::Model(m) => canonicalize(m).family(),
            Verdict::Opaque { .. } => "opaque",
        }
    }

    /// The differential-oracle predicate against the static analyzer's
    /// model (if one exists for the scheme):
    ///
    /// * recovered model vs static model — canonical-form equality;
    /// * Opaque verdict vs static Opaque — agreement (neither side has
    ///   an exact certificate);
    /// * Opaque verdict vs *no* static model (multi-bank skewed caches
    ///   have no single index function) — agreement;
    /// * anything else — disagreement.
    #[must_use]
    pub fn matches_static(&self, statik: Option<&IndexModel>) -> bool {
        match (self, statik) {
            (Verdict::Model(rec), Some(st)) => canonicalize(rec) == canonicalize(st),
            (Verdict::Opaque { .. }, Some(IndexModel::Opaque { .. }) | None) => true,
            (Verdict::Opaque { .. }, Some(_)) | (Verdict::Model(_), None) => false,
        }
    }
}

/// Cost of one recovery phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCost {
    /// Phase name (`residue` / `linear` / `affine`).
    pub phase: &'static str,
    /// Probes and refs this phase spent.
    pub cost: ProbeCost,
}

/// The full outcome of a recovery campaign.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The verdict (verified model or declared Opaque).
    pub verdict: Verdict,
    /// Total probing cost.
    pub cost: ProbeCost,
    /// Per-phase cost breakdown, in the order the phases ran.
    pub phases: Vec<PhaseCost>,
}

/// SplitMix64 — the attack's private sampler (deterministic per seed,
/// independent of the workload generators).
struct Rng64(u64);

impl Rng64 {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Recovers the structure of the probed index function. See the module
/// docs for the hypothesis ladder; `seed` seeds the verification
/// sampler, and the returned [`Recovery`] carries the verdict and the
/// full probe-cost accounting.
pub fn recover(oracle: &mut dyn ProbeOracle, seed: u64) -> Recovery {
    let start = oracle.cost();
    let mut rng = Rng64::new(seed);
    let mut phases = Vec::new();
    let mut reasons = Vec::new();

    let before = oracle.cost();
    let residue = try_residue(oracle, &mut rng, &mut reasons);
    phases.push(PhaseCost {
        phase: "residue",
        cost: oracle.cost().since(before),
    });
    if let Some(model) = residue {
        return done(Verdict::Model(model), oracle.cost().since(start), phases);
    }

    let before = oracle.cost();
    let linear = try_linear(oracle, &mut rng, &mut reasons);
    phases.push(PhaseCost {
        phase: "linear",
        cost: oracle.cost().since(before),
    });
    if let Some(model) = linear {
        return done(Verdict::Model(model), oracle.cost().since(start), phases);
    }

    let before = oracle.cost();
    let affine = try_affine(oracle, &mut rng, &mut reasons);
    phases.push(PhaseCost {
        phase: "affine",
        cost: oracle.cost().since(before),
    });
    if let Some(model) = affine {
        return done(Verdict::Model(model), oracle.cost().since(start), phases);
    }

    done(
        Verdict::Opaque { reasons },
        oracle.cost().since(start),
        phases,
    )
}

fn done(verdict: Verdict, cost: ProbeCost, phases: Vec<PhaseCost>) -> Recovery {
    Recovery {
        verdict,
        cost,
        phases,
    }
}

/// Verifies a candidate model: `positives` structured pairs the model
/// predicts collide must all collide; [`VERIFY_PAIRS`] random pairs must
/// agree with the model's prediction in both directions.
fn verify_model(
    oracle: &mut dyn ProbeOracle,
    rng: &mut Rng64,
    model: &IndexModel,
    positives: &[(u64, u64)],
) -> bool {
    for &(a, b) in positives {
        if a == b || !oracle.same_set(a, b) {
            return false;
        }
    }
    let mask = input_mask(oracle.in_bits());
    for _ in 0..VERIFY_PAIRS / 2 {
        let a = rng.next() & mask;
        let mut b = rng.next() & mask;
        if a == b {
            b ^= 1;
        }
        let predicted = model.eval(a) == model.eval(b);
        if oracle.same_set(a, b) != predicted {
            return false;
        }
    }
    true
}

/// Phase 1: residue-class inference. For `a mod m` the smallest positive
/// stride colliding with 0 is the modulus itself, so an ascending scan
/// is complete; the verification pass rejects accidental colliders of
/// non-residue schemes (a linear kernel vector, an opaque coincidence).
fn try_residue(
    oracle: &mut dyn ProbeOracle,
    rng: &mut Rng64,
    reasons: &mut Vec<String>,
) -> Option<IndexModel> {
    let in_bits = oracle.in_bits();
    let mask = input_mask(in_bits);
    let n_phys = oracle.n_set_phys();
    let Some(m) = (1..=n_phys).find(|&d| oracle.same_set(0, d)) else {
        reasons.push(format!(
            "residue: no stride in 1..={n_phys} collides with block 0"
        ));
        return None;
    };
    let model = IndexModel::Residue {
        modulus: m,
        in_bits,
    };
    // Structured positives: a and a + j·m collide for every a.
    let positives: Vec<(u64, u64)> = (0..VERIFY_PAIRS / 2)
        .map(|_| {
            let j = 1 + rng.below(4);
            let a = rng.below(mask - j * m + 1);
            (a, a + j * m)
        })
        .collect();
    if verify_model(oracle, rng, &model, &positives) {
        Some(model)
    } else {
        reasons.push(format!(
            "residue: stride {m} collides with 0 but the mod-{m} partition \
             failed sampled verification"
        ));
        None
    }
}

/// Phase 2: GF(2) class labeling. Returns a matrix with the hidden map's
/// row space (the canonical invariant), or `None` when the class count
/// overflows the physical geometry or verification refutes linearity.
fn try_linear(
    oracle: &mut dyn ProbeOracle,
    rng: &mut Rng64,
    reasons: &mut Vec<String>,
) -> Option<IndexModel> {
    let in_bits = oracle.in_bits();
    let mask = input_mask(in_bits);
    // A single hash over n_phys sets uses at most ceil(log2 n_phys)
    // output bits; one spare bit of slack keeps the abort conservative.
    let max_rank = oracle.n_set_phys().next_power_of_two().trailing_zeros() + 1;
    // Class representatives: every carry-free subset sum of the fresh
    // basis vectors found so far, with its F_2^r label. Bounded by
    // 2^max_rank entries, after which the hypothesis dies anyway.
    let mut reps: Vec<(u64, u64)> = vec![(0, 0)];
    let mut labels = vec![0u64; in_bits as usize];
    let mut rank: u32 = 0;
    for i in 0..in_bits {
        let e = 1u64 << i;
        let mut matched = false;
        for &(addr, lab) in &reps {
            if oracle.same_set(e, addr) {
                labels[i as usize] = lab;
                matched = true;
                break;
            }
        }
        if !matched {
            rank += 1;
            if rank > max_rank {
                reasons.push(format!(
                    "linear: more than 2^{max_rank} distinct basis classes — \
                     not a GF(2) map into this geometry"
                ));
                return None;
            }
            let bit = 1u64 << (rank - 1);
            labels[i as usize] = bit;
            for ri in 0..reps.len() {
                let (addr, lab) = reps[ri];
                reps.push((addr | e, lab ^ bit));
            }
        }
    }
    // Reassemble the matrix: row j collects the basis bits whose label
    // has bit j.
    let rows: Vec<u64> = (0..rank)
        .map(|j| {
            (0..in_bits)
                .filter(|&i| (labels[i as usize] >> j) & 1 == 1)
                .fold(0u64, |acc, i| acc | (1 << i))
        })
        .collect();
    let matrix = Gf2Matrix::new(rows, in_bits);
    // Structured positives: random base XOR a random nonzero kernel
    // combination must collide — this is the direction that catches
    // carry-based near-linear impostors (pDisp agrees with a linear fit
    // on every basis vector, and only carries betray it).
    let kernel = matrix.kernel_basis();
    let mut positives = Vec::new();
    if !kernel.is_empty() {
        for _ in 0..VERIFY_PAIRS / 2 {
            let mut d = 0u64;
            for _ in 0..3 {
                d ^= kernel[rng.below(kernel.len() as u64) as usize];
            }
            if d == 0 {
                d = kernel[0];
            }
            let a = rng.next() & mask;
            positives.push((a, a ^ d));
        }
    }
    let model = IndexModel::Linear(matrix);
    if verify_model(oracle, rng, &model, &positives) {
        Some(model)
    } else {
        reasons.push(
            "linear: basis classes fitted a matrix but kernel/random pairs \
             failed sampled verification"
                .to_owned(),
        );
        None
    }
}

/// Phase 3: affine factor probing. Requires a power-of-two physical
/// geometry wide enough to place a pure-tag probe address in the window.
fn try_affine(
    oracle: &mut dyn ProbeOracle,
    rng: &mut Rng64,
    reasons: &mut Vec<String>,
) -> Option<IndexModel> {
    let in_bits = oracle.in_bits();
    let n_phys = oracle.n_set_phys();
    if !n_phys.is_power_of_two() || n_phys < 2 {
        reasons.push(format!(
            "affine: physical set count {n_phys} is not a power of two"
        ));
        return None;
    }
    let k = n_phys.trailing_zeros();
    if in_bits < 2 * k {
        reasons.push(format!(
            "affine: window of {in_bits} bits cannot hold a 2^{} tag probe",
            2 * k - 1
        ));
        return None;
    }
    let mask = input_mask(k);
    // Bit-by-bit factor read-out: the tag-only address 2^(k+shift) lands
    // in set (p·2^shift) mod 2^k = (p mod 2^j)·2^shift with shift=k−j,
    // and index-only addresses land in their own value — so two same-set
    // probes decide bit j−1 of p.
    let mut q = 0u64; // p mod 2^(j-1)
    for j in 1..=k {
        let shift = k - j;
        let tag_probe = 1u64 << (k + shift);
        let lo = (q << shift) & mask;
        let hi = ((q | (1 << (j - 1))) << shift) & mask;
        if oracle.same_set(tag_probe, lo) {
            // bit j-1 of p is 0: q unchanged.
        } else if oracle.same_set(tag_probe, hi) {
            q |= 1 << (j - 1);
        } else {
            reasons.push(format!(
                "affine: tag probe 2^{} matched neither factor candidate at \
                 bit {}",
                k + shift,
                j - 1
            ));
            return None;
        }
    }
    let model = IndexModel::Affine {
        factor: q,
        index_bits: k,
        in_bits,
    };
    // Structured positives: pick a random address, then construct a
    // partner in its predicted set from a fresh random tag.
    let window = input_mask(in_bits);
    let mut positives = Vec::new();
    for _ in 0..VERIFY_PAIRS / 2 {
        let a = rng.next() & window;
        let target = model.eval(a);
        let tb = rng.next() & (window >> k);
        let xb = target.wrapping_sub(q.wrapping_mul(tb)) & mask;
        let b = (tb << k) | xb;
        if b != a {
            positives.push((a, b));
        }
    }
    if verify_model(oracle, rng, &model, &positives) {
        Some(model)
    } else {
        reasons.push(format!(
            "affine: recovered factor {q} failed sampled verification"
        ));
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primecache_analyze::model_of;
    use primecache_core::index::{Geometry, HashKind};
    use primecache_core::probe::ModelOracle;

    fn recover_kind(kind: HashKind, n_set: u64, in_bits: u32) -> (Recovery, IndexModel) {
        let geom = Geometry::new(n_set);
        let idx = kind.build(geom);
        let mut oracle = ModelOracle::from_indexer(idx, 1, in_bits);
        let rec = recover(&mut oracle, 0x5EED);
        (rec, model_of(kind, geom, in_bits))
    }

    #[test]
    fn recovers_every_builtin_hash_kind() {
        for kind in HashKind::ALL {
            let (rec, statik) = recover_kind(kind, 64, 16);
            assert!(
                rec.verdict.matches_static(Some(&statik)),
                "{kind}: {:?} != static",
                rec.verdict
            );
            assert!(rec.cost.probes > 0);
        }
    }

    #[test]
    fn recovers_the_paper_geometry() {
        // The real 2048-set L2 shapes, small enough to run in debug.
        for kind in [HashKind::PrimeModulo, HashKind::PrimeDisplacement] {
            let (rec, statik) = recover_kind(kind, 2048, 26);
            assert!(
                rec.verdict.matches_static(Some(&statik)),
                "{kind}: {:?}",
                rec.verdict
            );
        }
    }

    #[test]
    fn trivial_single_set_cache_reads_as_residue_one() {
        let mut oracle = ModelOracle::new(|_| 0, 1, 1, 16);
        let rec = recover(&mut oracle, 0x5EED);
        let Verdict::Model(m) = &rec.verdict else {
            panic!("expected a model, got {:?}", rec.verdict);
        };
        assert_eq!(m.n_set(), 1);
    }

    #[test]
    fn non_algebraic_function_is_declared_opaque() {
        // Multiply-shift hash over the high bits: fits no family.
        let mut oracle = ModelOracle::new(
            |a| (a ^ (a >> 7)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58,
            64,
            1,
            16,
        );
        let rec = recover(&mut oracle, 0x5EED);
        let Verdict::Opaque { reasons } = &rec.verdict else {
            panic!("expected opaque, got {:?}", rec.verdict);
        };
        assert!(reasons.len() >= 2, "{reasons:?}");
        assert!(!rec
            .verdict
            .matches_static(Some(&model_of(HashKind::Xor, Geometry::new(64), 16))));
    }

    #[test]
    fn phase_costs_sum_to_total() {
        let (rec, _) = recover_kind(HashKind::Xor, 64, 16);
        let sum = rec
            .phases
            .iter()
            .fold(ProbeCost::default(), |acc, p| acc + p.cost);
        assert_eq!(sum, rec.cost);
    }
}
