//! The differential-oracle battery.
//!
//! Each *unit* pits one fast path — an index function, a §3.1 hardware
//! modulo unit, a cache organization, the DRAM, the CPU timing model or
//! the whole machine — against its naive [oracle](crate::oracle) over a
//! mixed stream of randomized and adversarial inputs, asserting
//! bit-exact agreement. A disagreement is shrunk to a minimal
//! counterexample by the [prop](crate::prop) harness before being
//! reported.
//!
//! Run the full battery with the `primecache-check` binary, or call
//! [`run_battery`] directly (the crate's tests do, with a smaller budget).

use crate::oracle::{
    ref_bank_index, ref_decode_frame, ref_mersenne, ref_prime_displacement, ref_prime_modulo,
    ref_read_text, ref_set_index, ref_skew_xor, ref_subtract_select, ref_tlb_index,
    ref_traditional, ref_xor, ref_xor_folded, OracleAccess, OracleCache, OracleCaches, OracleCpu,
    OracleDram, OracleMachine, OracleMemory, OraclePolicy, OracleSkewed, OracleVictim, RefFrame,
    TextRead,
};
use crate::prop::{forall_result, Rng, Shrink};

use primecache_cache::{
    AccessOutcome, Cache, CacheConfig, CacheOutcome, CacheSim, CacheStats, FullyAssociative,
    Hierarchy, HierarchyConfig, L2Organization, ReplacementKind, SkewHashKind, SkewReplacement,
    SkewedCache, SkewedConfig, VictimCache,
};
use primecache_core::hw::{
    mersenne_fold, IterativeLinear, Polynomial, SubtractSelect, TlbAssist, Wired2039,
};
use primecache_core::index::{
    FastMod, Geometry, HashKind, PrimeDisplacement, PrimeModulo, SetIndexer, SkewDispBank,
    SkewXorBank, XorFolded, SKEW_DISP_FACTORS,
};
use primecache_cpu::{Cpu, CpuConfig};
use primecache_ingest::MAX_LINE_BYTES;
use primecache_mem::{Dram, MemConfig};
use primecache_sim::{run_tenant_mix, run_trace, MachineConfig, Recording, Scheme, TenantLane};
use primecache_trace::{EncodedTrace, Event};
use primecache_workloads::{MixConfig, TenantMix};

/// Accesses per cache/DRAM stream case (the shrinkable unit of replay).
const STREAM_LEN: usize = 256;

/// Battery configuration.
#[derive(Debug, Clone, Copy)]
pub struct BatteryConfig {
    /// Addresses (or cache accesses) checked per unit.
    pub addrs_per_unit: usize,
    /// Base seed mixed into every unit's generator stream.
    pub seed: u64,
}

impl Default for BatteryConfig {
    fn default() -> Self {
        Self {
            addrs_per_unit: 1_000_000,
            seed: 0,
        }
    }
}

/// Outcome of one differential unit.
#[derive(Debug, Clone)]
pub struct UnitReport {
    /// Unit name, e.g. `index/pMod` or `cache/skewed/SKW`.
    pub unit: String,
    /// Addresses or accesses checked (0 when the unit failed).
    pub cases: usize,
    /// Whether every case agreed with the oracle.
    pub passed: bool,
    /// Shrunk counterexample (input and panic message) on failure.
    pub counterexample: Option<String>,
    /// Shrink steps applied to reach the counterexample.
    pub shrink_steps: usize,
}

/// Derives a per-unit seed: deterministic per name, varied by the
/// configured base seed.
fn unit_seed(cfg: &BatteryConfig, name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    }) ^ cfg.seed
}

/// Runs one unit: `cases` inputs from `gen`, `prop` panicking on any
/// fast/oracle disagreement. `case_weight` scales the reported case count
/// (a stream case replays [`STREAM_LEN`] accesses).
fn run_unit<T, G, P>(
    cfg: &BatteryConfig,
    name: &str,
    cases: usize,
    case_weight: usize,
    gen: G,
    prop: P,
) -> UnitReport
where
    T: Shrink + Clone + std::fmt::Debug,
    G: FnMut(&mut Rng) -> T,
    P: Fn(&T),
{
    match forall_result(unit_seed(cfg, name), cases, gen, prop) {
        Ok(n) => UnitReport {
            unit: name.to_owned(),
            cases: n * case_weight,
            passed: true,
            counterexample: None,
            shrink_steps: 0,
        },
        Err(f) => UnitReport {
            unit: name.to_owned(),
            cases: 0,
            passed: false,
            counterexample: Some(format!("input {:?}: {}", f.input, f.message)),
            shrink_steps: f.shrink_steps,
        },
    }
}

/// Conflict-prone strides for a structure with `n_set` sets: the paper's
/// pathological cases (`n_set ± 1` for XOR, multiples of `n_set` for
/// traditional indexing) plus power-of-two strides.
fn adversarial_strides(n_set: u64) -> Vec<u64> {
    vec![
        1,
        2,
        3,
        n_set.saturating_sub(1).max(1),
        n_set,
        n_set + 1,
        2 * n_set,
        4 * n_set,
        1 << 12,
        1 << 16,
        1 << 20,
        7919, // a large odd prime, co-prime to every power-of-two geometry
    ]
}

/// One address: half the stream is uniform over `mask`, half walks an
/// adversarial stride from a random base.
fn gen_addr(rng: &mut Rng, mask: u64, strides: &[u64]) -> u64 {
    if rng.bool() {
        rng.next_u64() & mask
    } else {
        let stride = strides[rng.range_usize(0, strides.len())];
        let base = rng.next_u64() & mask;
        let i = rng.range_u64(0, 4096);
        base.wrapping_add(i.wrapping_mul(stride)) & mask
    }
}

// ---------------------------------------------------------------------------
// Scalar units: index functions and hardware modulo units.
// ---------------------------------------------------------------------------

fn scalar_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    let mut out = Vec::new();
    let n = cfg.addrs_per_unit;
    let geom = Geometry::new(2048);
    let full = u64::MAX;

    // The four single-function schemes, via the same construction path the
    // caches use (HashKind::build).
    for kind in HashKind::ALL {
        let idx = kind.build(geom);
        let strides = adversarial_strides(idx.n_set());
        let reference = move |a: u64| match kind {
            HashKind::Traditional => ref_traditional(a, 2048),
            HashKind::Xor => ref_xor(a, 2048),
            HashKind::PrimeModulo => ref_prime_modulo(a, 2039),
            HashKind::PrimeDisplacement => ref_prime_displacement(a, 2048, 9),
            // `HashKind::ALL` lists only the built-in kinds; DSL schemes
            // are covered by `expr_units`.
            HashKind::Expr(_) => unreachable!("ALL contains no Expr kind"),
        };
        out.push(run_unit(
            cfg,
            &format!("index/{}", kind.label()),
            n,
            1,
            move |rng| gen_addr(rng, full, &strides),
            move |&a| {
                assert_eq!(
                    idx.index(a),
                    reference(a),
                    "{} disagrees with its oracle at block {a:#x}",
                    kind.label()
                );
            },
        ));
    }

    // The folded-XOR extension.
    {
        let xf = XorFolded::new(geom);
        let strides = adversarial_strides(2048);
        out.push(run_unit(
            cfg,
            "index/XOR-fold",
            n,
            1,
            move |rng| gen_addr(rng, full, &strides),
            move |&a| assert_eq!(xf.index(a), ref_xor_folded(a, 2048), "block {a:#x}"),
        ));
    }

    // A non-default displacement factor.
    {
        let pd = PrimeDisplacement::new(geom, 37);
        let strides = adversarial_strides(2048);
        out.push(run_unit(
            cfg,
            "index/pDisp-37",
            n,
            1,
            move |rng| gen_addr(rng, full, &strides),
            move |&a| {
                assert_eq!(
                    pd.index(a),
                    ref_prime_displacement(a, 2048, 37),
                    "block {a:#x}"
                );
            },
        ));
    }

    // The per-bank skewing functions over one bank-sized geometry.
    let bank_geom = Geometry::new(512);
    for bank in 0..4u32 {
        let skw = SkewXorBank::new(bank_geom, bank);
        let strides = adversarial_strides(512);
        out.push(run_unit(
            cfg,
            &format!("index/SKW-bank{bank}"),
            n,
            1,
            move |rng| gen_addr(rng, full, &strides),
            move |&a| {
                assert_eq!(skw.index(a), ref_skew_xor(a, 512, bank), "block {a:#x}");
            },
        ));
    }
    for factor in SKEW_DISP_FACTORS {
        let sd = SkewDispBank::new(bank_geom, factor);
        let strides = adversarial_strides(512);
        out.push(run_unit(
            cfg,
            &format!("index/skw+pDisp-{factor}"),
            n,
            1,
            move |rng| gen_addr(rng, full, &strides),
            move |&a| {
                assert_eq!(
                    sd.index(a),
                    ref_prime_displacement(a, 512, factor),
                    "block {a:#x}"
                );
            },
        ));
    }

    // Subtract&select: agreement inside the selector's reach, refusal
    // beyond it (the paper's 258-input configuration).
    {
        let ss = SubtractSelect::new(2039, 258);
        let span = 2 * ss.capacity();
        out.push(run_unit(
            cfg,
            "hw/subtract_select",
            n,
            1,
            move |rng| rng.range_u64(0, span),
            move |&x| {
                assert_eq!(
                    ss.try_reduce(x),
                    ref_subtract_select(x, 2039, 258),
                    "x = {x}"
                );
            },
        ));
    }

    // Iterative linear, narrow and wide selectors, full 64-bit addresses.
    for t in [0u32, 8] {
        let unit = IterativeLinear::new(geom, t);
        let strides = adversarial_strides(2039);
        out.push(run_unit(
            cfg,
            &format!("hw/iterative_linear-t{t}"),
            n,
            1,
            move |rng| gen_addr(rng, full, &strides),
            move |&a| assert_eq!(unit.reduce(a), ref_prime_modulo(a, 2039), "block {a:#x}"),
        ));
    }

    // Polynomial method, full 64-bit addresses.
    {
        let unit = Polynomial::new(geom);
        let strides = adversarial_strides(2039);
        out.push(run_unit(
            cfg,
            "hw/polynomial",
            n,
            1,
            move |rng| gen_addr(rng, full, &strides),
            move |&a| assert_eq!(unit.reduce(a), ref_prime_modulo(a, 2039), "block {a:#x}"),
        ));
    }

    // Mersenne folding for the 8191-set (k=13) and 127-set (k=7) primes.
    for k in [13u32, 7] {
        let strides = adversarial_strides((1 << k) - 1);
        out.push(run_unit(
            cfg,
            &format!("hw/mersenne_fold-k{k}"),
            n,
            1,
            move |rng| gen_addr(rng, full, &strides),
            move |&a| assert_eq!(mersenne_fold(a, k), ref_mersenne(a, k), "a = {a:#x}"),
        ));
    }

    // The wired five-addend unit (26-bit block addresses by construction).
    {
        let mask = (1u64 << 26) - 1;
        let strides = adversarial_strides(2039);
        out.push(run_unit(
            cfg,
            "hw/wired2039",
            n,
            1,
            move |rng| gen_addr(rng, mask, &strides),
            move |&a| {
                assert_eq!(
                    Wired2039::index(a),
                    ref_prime_modulo(a, 2039),
                    "block {a:#x}"
                )
            },
        ));
    }

    // TLB assist: 4 KB pages (paper example) and 2 MB huge pages (wider
    // selector), over full 64-bit byte addresses.
    for (label, page) in [("4k", 4096u64), ("2m", 2 * 1024 * 1024)] {
        let tlb = TlbAssist::new(2048, page, 64);
        let strides = adversarial_strides(2039 * 64);
        out.push(run_unit(
            cfg,
            &format!("hw/tlb_assist-{label}"),
            n,
            1,
            move |rng| gen_addr(rng, full, &strides),
            move |&a| {
                assert_eq!(tlb.index_addr(a), ref_tlb_index(a, 64, 2039), "addr {a:#x}");
            },
        ));
    }

    out
}

// ---------------------------------------------------------------------------
// Expression-DSL units: the dual-compilation differential oracle.
// ---------------------------------------------------------------------------

/// Pits both compilations of the expression DSL against each other and
/// against the hand-written indexers:
///
/// 1. **Closure vs hard path** — every built-in scheme re-expressed in
///    the DSL must agree with its hand-written indexer block-for-block.
/// 2. **Closure vs abstract model** — the fast compiled closure and the
///    statically lowered [`primecache_analyze::IndexModel`] must agree
///    over the model's input window, including the sampled Opaque
///    fallback.
fn expr_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    use primecache_analyze::lower_expr;
    use primecache_core::expr::{builtins, compile, fold, parse, register_anonymous, set_bound};

    let mut out = Vec::new();
    let n = cfg.addrs_per_unit;
    let geom = Geometry::new(2048);
    let bank_geom = Geometry::new(512);
    let full = u64::MAX;

    // Closure vs hand-written indexer, full 64-bit addresses.
    type RefFn = Box<dyn Fn(u64) -> u64 + Send + Sync>;
    let vs_hard: Vec<(String, String, RefFn)> = vec![
        (
            "expr/Base".to_owned(),
            builtins::traditional_src(geom),
            Box::new(|a| ref_traditional(a, 2048)),
        ),
        (
            "expr/XOR".to_owned(),
            builtins::xor_src(geom),
            Box::new(|a| ref_xor(a, 2048)),
        ),
        (
            "expr/XOR-fold".to_owned(),
            builtins::xor_folded_src(geom),
            Box::new(|a| ref_xor_folded(a, 2048)),
        ),
        (
            "expr/pMod".to_owned(),
            builtins::pmod_src(geom),
            Box::new(|a| ref_prime_modulo(a, 2039)),
        ),
        (
            "expr/pDisp".to_owned(),
            builtins::pdisp_src(geom, 9),
            Box::new(|a| ref_prime_displacement(a, 2048, 9)),
        ),
        (
            "expr/SKW-bank1".to_owned(),
            builtins::skew_xor_bank_src(bank_geom, 1),
            Box::new(|a| ref_skew_xor(a, 512, 1)),
        ),
        (
            "expr/skw+pDisp-9".to_owned(),
            builtins::skew_disp_bank_src(bank_geom, 9),
            Box::new(|a| ref_prime_displacement(a, 512, 9)),
        ),
    ];
    for (name, src, reference) in vs_hard {
        let id = register_anonymous(&src).expect("builtin source compiles");
        let idx = id.indexer();
        let strides = adversarial_strides(idx.n_set());
        out.push(run_unit(
            cfg,
            &name,
            n,
            1,
            move |rng| gen_addr(rng, full, &strides),
            move |&a| {
                assert_eq!(
                    idx.index(a),
                    reference(a),
                    "DSL closure `{}` disagrees with the hand-written \
                     indexer at block {a:#x}",
                    id.source()
                );
            },
        ));
    }

    // Closure vs statically lowered abstract model over the model's
    // 26-bit input window: one representative per model family.
    for (name, src) in [
        ("expr/model-linear", builtins::xor_src(geom)),
        ("expr/model-residue", builtins::pmod_src(geom)),
        ("expr/model-affine", builtins::pdisp_src(geom, 9)),
        (
            "expr/model-opaque",
            "((a % 2039) ^ (a >> 13)) & 2047".to_owned(),
        ),
    ] {
        let id = register_anonymous(&src).expect("source compiles");
        let model = lower_expr(id.folded(), 26);
        let idx = id.indexer();
        let mask = (1u64 << 26) - 1;
        let strides = adversarial_strides(idx.n_set());
        out.push(run_unit(
            cfg,
            name,
            n,
            1,
            move |rng| gen_addr(rng, mask, &strides),
            move |&a| {
                assert_eq!(
                    idx.index(a),
                    model.eval(a),
                    "dual compilations of `{}` diverge at block {a:#x}",
                    id.source()
                );
            },
        ));
    }

    // Sources drawn from the grammar, then mutated, through every stage
    // `register` runs and the abstract lowering (not `register` itself,
    // which interns each definition for the process's lifetime). Each
    // must come back as a value or a typed error whose span lies inside
    // the source, on character boundaries; an accepted tree must print
    // to a source that parses back to it. Any panic fails the unit.
    out.push(run_unit(
        cfg,
        "expr/parse-fuzz",
        n.div_ceil(DSL_FUZZ_WEIGHT),
        DSL_FUZZ_WEIGHT,
        gen_dsl_source,
        |input: &DslSource| {
            let src = &input.0;
            match parse(src) {
                Ok(ast) => {
                    let folded = fold(&ast);
                    let _ = compile(&folded);
                    let _ = set_bound(&folded, u64::MAX);
                    let _ = lower_expr(&folded, 26);
                    let printed = ast.to_string();
                    assert_eq!(parse(&printed).as_ref(), Ok(&ast), "reparse of `{printed}`");
                }
                Err(e) => {
                    let (start, end) = (e.span.start, e.span.end);
                    assert!(start <= end && end <= src.len(), "{e} escapes the source");
                    assert!(
                        src.is_char_boundary(start) && src.is_char_boundary(end),
                        "{e} splits a character"
                    );
                }
            }
        },
    ));

    out
}

/// Cases one `expr/parse-fuzz` source counts for.
const DSL_FUZZ_WEIGHT: usize = 8;

/// A DSL source, shown escaped. It shrinks by halves (split at a
/// character boundary, none of them the whole source), then by its last
/// character.
#[derive(Clone)]
struct DslSource(String);

impl std::fmt::Debug for DslSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl Shrink for DslSource {
    fn shrink(&self) -> Vec<Self> {
        let s = &self.0;
        let Some((last, _)) = s.char_indices().next_back() else {
            return Vec::new();
        };
        let mid = (0..=s.len() / 2)
            .rev()
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(0);
        let mut out = Vec::new();
        if mid > 0 {
            out.extend([&s[..mid], &s[mid..]]);
        }
        out.push(&s[..last]);
        out.into_iter()
            .map(|part| DslSource(part.to_owned()))
            .collect()
    }
}

/// Appends the tokens of a random expression at most `depth` levels
/// deep: `a`, `addr`, decimal and hex literals (some past `u64`), the
/// binary operators, slices (some out of range) and parentheses.
fn gen_dsl_tokens(rng: &mut Rng, depth: u32, out: &mut Vec<String>) {
    if depth == 0 || rng.range_u32(0, 3) == 0 {
        out.push(match rng.range_u32(0, 6) {
            0 => "a".to_owned(),
            1 => "addr".to_owned(),
            2 => rng.range_u64(0, 4096).to_string(),
            3 => format!("0x{:X}", rng.next_u64() >> rng.range_u32(0, 64)),
            4 => rng.next_u64().to_string(),
            _ => "99999999999999999999".to_owned(),
        });
        return;
    }
    match rng.range_u32(0, 4) {
        0 => {
            out.push("(".to_owned());
            gen_dsl_tokens(rng, depth - 1, out);
            out.push(")".to_owned());
        }
        1 => {
            gen_dsl_tokens(rng, depth - 1, out);
            let (hi, lo) = (rng.range_u64(0, 70), rng.range_u64(0, 70));
            out.extend(["[", &hi.to_string(), ":", &lo.to_string(), "]"].map(str::to_owned));
        }
        _ => {
            gen_dsl_tokens(rng, depth - 1, out);
            let op = ["|", "^", "&", "<<", ">>", "+", "*", "%"][rng.range_usize(0, 8)];
            out.push(op.to_owned());
            gen_dsl_tokens(rng, depth - 1, out);
        }
    }
}

/// A grammar-drawn source with some of: a dropped or repeated token;
/// nesting or an operator chain near, just past or far past
/// `MAX_PARSE_DEPTH`; a truncation at any byte; and inserted bytes,
/// multi-byte characters among them (invalid UTF-8 reads as U+FFFD).
fn gen_dsl_source(rng: &mut Rng) -> DslSource {
    use primecache_core::expr::MAX_PARSE_DEPTH;
    let mut toks = Vec::new();
    let depth = rng.range_u32(0, 6);
    gen_dsl_tokens(rng, depth, &mut toks);
    for _ in 0..rng.range_u32(0, 3) {
        let i = rng.range_usize(0, toks.len());
        if rng.bool() {
            toks.remove(i);
        } else {
            toks.insert(i, toks[i].clone());
        }
        if toks.is_empty() {
            break;
        }
    }
    let mut src = toks.join(["", " "][rng.range_usize(0, 2)]);
    if rng.range_u32(0, 4) == 0 {
        let levels = match rng.range_u32(0, 8) {
            0 => rng.range_usize(MAX_PARSE_DEPTH, 80 * MAX_PARSE_DEPTH),
            _ => rng.range_usize(MAX_PARSE_DEPTH - 2, MAX_PARSE_DEPTH + 3),
        };
        src = match rng.range_u32(0, 4) {
            0 => format!("{}{src}{}", "(".repeat(levels), ")".repeat(levels)),
            1 => format!("{}{src}{}", "a ^ (".repeat(levels), ")".repeat(levels)),
            2 => format!("({src}){}", " + a".repeat(levels)),
            _ => format!("({src}){}", "[1:1]".repeat(levels / 2)),
        };
    }
    let mut bytes = src.into_bytes();
    for _ in 0..rng.range_u32(0, 3) {
        let at = rng.range_usize(0, bytes.len() + 1);
        match rng.range_u32(0, 4) {
            0 => bytes.truncate(at),
            1 => bytes.insert(at, rng.range_u64(0, 256) as u8),
            _ => {
                let c = ["é", "日", "🦀", "\u{FFFD}", "\0"][rng.range_usize(0, 5)];
                bytes.splice(at..at, c.bytes());
            }
        }
    }
    DslSource(String::from_utf8_lossy(&bytes).into_owned())
}

// ---------------------------------------------------------------------------
// Strength-reduced modulo units (the FastMod reciprocal on the hot path).
// ---------------------------------------------------------------------------

/// Every supported L2 geometry (256 to 16 K sets) and the Table-1 prime
/// the pMod indexer picks for it.
const PMOD_GEOMETRIES: [(u64, u64); 7] = [
    (256, 251),
    (512, 509),
    (1024, 1021),
    (2048, 2039),
    (4096, 4093),
    (8192, 8191),
    (16384, 16381),
];

fn fastmod_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    let mut out = Vec::new();
    let n = cfg.addrs_per_unit;
    let full = u64::MAX;

    // The strength-reduced pMod index (reciprocal multiply, no division)
    // against the literal `block % p`, for every supported prime.
    for (phys, prime) in PMOD_GEOMETRIES {
        let pmod = PrimeModulo::new(Geometry::new(phys));
        assert_eq!(pmod.n_set(), prime, "prime table drifted for {phys} sets");
        let strides = adversarial_strides(prime);
        out.push(run_unit(
            cfg,
            &format!("index/pMod-fastmod-{prime}"),
            n,
            1,
            move |rng| gen_addr(rng, full, &strides),
            move |&a| {
                assert_eq!(
                    pmod.index(a),
                    a % prime,
                    "strength-reduced pMod diverges from % {prime} at block {a:#x}"
                );
            },
        ));
    }

    // FastMod itself over arbitrary divisors, not just the cache primes:
    // the reciprocal construction must be exact for every (x, d) pair,
    // both the remainder and the quotient the timing models divide by.
    out.push(run_unit(
        cfg,
        "hw/fastmod-fuzz",
        n,
        1,
        move |rng| (rng.next_u64(), rng.next_u64().max(1)),
        move |&(x, d)| {
            let d = d.max(1);
            let m = FastMod::new(d);
            assert_eq!(
                m.reduce(x),
                x % d,
                "FastMod({d}).reduce({x:#x}) diverges from native %"
            );
            assert_eq!(
                m.quotient(x),
                x / d,
                "FastMod({d}).quotient({x:#x}) diverges from native /"
            );
        },
    ));

    out
}

// ---------------------------------------------------------------------------
// Cache stream units.
// ---------------------------------------------------------------------------

/// A stream of `(block, is_write)` accesses: random over a small working
/// set, a strided walk, or a single-congruence-class hammer — the three
/// shapes that exercise fills, LRU rotation, and conflict eviction.
fn gen_stream(rng: &mut Rng, domain: u64, n_set: u64) -> Vec<(u64, bool)> {
    let pattern = rng.range_u32(0, 3);
    match pattern {
        0 => (0..STREAM_LEN)
            .map(|_| (rng.range_u64(0, domain), rng.bool()))
            .collect(),
        1 => {
            let strides = adversarial_strides(n_set);
            let stride = strides[rng.range_usize(0, strides.len())];
            let base = rng.range_u64(0, domain);
            (0..STREAM_LEN as u64)
                .map(|i| ((base + i * stride) % domain, rng.bool()))
                .collect()
        }
        _ => {
            // Hammer one congruence class so a handful of sets thrash.
            let class = rng.range_u64(0, n_set);
            (0..STREAM_LEN)
                .map(|_| (class + rng.range_u64(0, 32) * n_set, rng.bool()))
                .collect()
        }
    }
}

fn stream_cases(cfg: &BatteryConfig) -> usize {
    cfg.addrs_per_unit.div_ceil(STREAM_LEN)
}

fn set_assoc_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    let mut out = Vec::new();
    // 8 KB, 4-way, 64-B lines: 32 physical sets — small enough that a
    // 256-access stream wraps the capacity several times.
    let cc = CacheConfig::new(8 * 1024, 4, 64);
    for kind in HashKind::ALL {
        let cc = cc.with_hash(kind);
        out.push(run_unit(
            cfg,
            &format!("cache/set_assoc/{}", kind.label()),
            stream_cases(cfg),
            STREAM_LEN,
            move |rng| gen_stream(rng, 1024, 32),
            move |stream: &Vec<(u64, bool)>| {
                let mut fast = Cache::new(cc);
                let (n_set, index) = ref_set_index(cc);
                let mut oracle = OracleCache::new(n_set as usize, 4, OraclePolicy::Lru, index);
                replay_set_assoc(&mut fast, &mut oracle, stream);
            },
        ));
    }
    // FIFO replacement against the insertion-order oracle.
    {
        let cc = cc.with_replacement(ReplacementKind::Fifo);
        out.push(run_unit(
            cfg,
            "cache/set_assoc/Base-fifo",
            stream_cases(cfg),
            STREAM_LEN,
            move |rng| gen_stream(rng, 1024, 32),
            move |stream: &Vec<(u64, bool)>| {
                let mut fast = Cache::new(cc);
                let mut oracle =
                    OracleCache::new(32, 4, OraclePolicy::Fifo, |b| ref_traditional(b, 32));
                replay_set_assoc(&mut fast, &mut oracle, stream);
            },
        ));
    }
    out
}

fn replay_set_assoc(fast: &mut Cache, oracle: &mut OracleCache, stream: &[(u64, bool)]) {
    for (i, &(block, write)) in stream.iter().enumerate() {
        let got = fast.access_block(block, write);
        assert_same_access(i, block, write, got, oracle.access_block(block, write));
    }
    assert_eq!(fast.validate(), Ok(()), "invariants after replay");
}

/// Asserts that a cache access did what the oracle's did: the same
/// statistics set, hit, and victim with its dirty bit (clean or dirty).
fn assert_same_access(i: usize, block: u64, write: bool, got: CacheOutcome, want: OracleAccess) {
    assert_eq!(
        (got.set, got.hit, got.evicted),
        (want.set, want.hit, want.evicted),
        "access {i} (block {block:#x}, write {write}): (set, hit, evicted) mismatch"
    );
}

fn skewed_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    // (name, config): the paper's 4 direct-mapped banks with both hash
    // families, plus Seznec's original 2-bank × 2-way shape under NRUNRW.
    let shapes = [
        (
            "cache/skewed/SKW",
            SkewedConfig::new(4 * 64 * 64, 4, 64, SkewHashKind::Xor),
        ),
        (
            "cache/skewed/skw+pDisp",
            SkewedConfig::new(4 * 64 * 64, 4, 64, SkewHashKind::PrimeDisplacement),
        ),
        (
            "cache/skewed/2x2-nrunrw",
            SkewedConfig::new(2 * 2 * 32 * 64, 2, 64, SkewHashKind::PrimeDisplacement)
                .with_ways_per_bank(2)
                .with_replacement(SkewReplacement::Nrunrw),
        ),
    ];
    shapes
        .into_iter()
        .map(|(name, scfg)| {
            let sets = scfg.sets_per_bank();
            let ways = scfg.ways_per_bank() as usize;
            let banks = scfg.banks();
            let hash = scfg.hash();
            let write_aware = scfg.replacement() == SkewReplacement::Nrunrw;
            let capacity_blocks = sets * u64::from(banks) * ways as u64;
            run_unit(
                cfg,
                name,
                stream_cases(cfg),
                STREAM_LEN,
                move |rng| gen_stream(rng, 16 * capacity_blocks, sets),
                move |stream: &Vec<(u64, bool)>| {
                    let mut fast = SkewedCache::new(scfg);
                    let index_fns = (0..banks).map(|b| ref_bank_index(hash, sets, b)).collect();
                    let mut oracle = OracleSkewed::new(sets as usize, ways, write_aware, index_fns);
                    for (i, &(block, write)) in stream.iter().enumerate() {
                        let got = fast.access_block(block, write);
                        assert_same_access(i, block, write, got, oracle.access_block(block, write));
                    }
                    assert_eq!(fast.validate(), Ok(()), "invariants after replay");
                },
            )
        })
        .collect()
}

fn fully_assoc_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    // The fully-associative cache tracks recency with an intrusive
    // linked list over its slots; pit it against the single-set LRU
    // oracle at two capacities — tiny (constant thrash, every miss
    // evicts) and moderate (hit/miss mix, victims deep in the list).
    [
        ("cache/fully_assoc/16-line", 16u64),
        ("cache/fully_assoc/96-line", 96u64),
    ]
    .into_iter()
    .map(|(name, lines)| {
        run_unit(
            cfg,
            name,
            stream_cases(cfg),
            STREAM_LEN,
            // Domain ~8x capacity so the LRU order, not just presence,
            // decides most outcomes; `lines` as the stride base keeps
            // the adversarial classes folding onto themselves.
            move |rng| gen_stream(rng, 8 * lines, lines),
            move |stream: &Vec<(u64, bool)>| {
                let mut fast = FullyAssociative::new(lines * 64, 64);
                let mut oracle = OracleCache::new(1, lines as usize, OraclePolicy::Lru, |_| 0);
                for (i, &(block, write)) in stream.iter().enumerate() {
                    let got = fast.access_block(block, write);
                    assert_same_access(i, block, write, got, oracle.access_block(block, write));
                }
                assert_eq!(fast.stats().validate(), Ok(()), "stats after replay");
            },
        )
    })
    .collect()
}

fn victim_unit(cfg: &BatteryConfig) -> UnitReport {
    // 4 KB 2-way main cache (32 sets) with a 4-entry victim buffer.
    let cc = CacheConfig::new(4 * 1024, 2, 64);
    run_unit(
        cfg,
        "cache/victim",
        stream_cases(cfg),
        STREAM_LEN,
        move |rng| gen_stream(rng, 512, 32),
        move |stream: &Vec<(u64, bool)>| {
            let mut fast = VictimCache::new(cc, 4);
            let main = OracleCache::new(32, 2, OraclePolicy::Lru, |b| ref_traditional(b, 32));
            let mut oracle = OracleVictim::new(main, 4);
            let mut want_victim_hits = 0u64;
            let mut want_writebacks = 0u64;
            for (i, &(block, write)) in stream.iter().enumerate() {
                let fast_hit = fast.access(block * 64, write);
                let want = oracle.access_block(block, write);
                assert_eq!(
                    fast_hit, want.hit,
                    "access {i} (block {block:#x}): hit/miss mismatch"
                );
                want_victim_hits += u64::from(want.from_buffer);
                want_writebacks += want.writebacks.len() as u64;
            }
            assert_eq!(fast.victim_hits(), want_victim_hits, "buffer-hit count");
            assert_eq!(
                fast.stats().writebacks,
                want_writebacks,
                "buffer-spill writeback count"
            );
        },
    )
}

// ---------------------------------------------------------------------------
// Trace codec units: the compact encoded-trace wire format.
// ---------------------------------------------------------------------------

/// Maps a shrinkable `(kind, payload, flag)` tuple to a trace event.
/// `kind % 5` selects the variant, so shrinking a kind toward zero walks
/// the case toward plain `Work` events; payloads keep their full 64-bit
/// range for `Load`/`Store` (the delta encoder must survive arbitrary
/// jumps, including to/from `u64::MAX`).
fn tuple_event(&(kind, payload, flag): &(u64, u64, bool)) -> primecache_trace::Event {
    use primecache_trace::Event;
    match kind % 5 {
        0 => Event::Work(payload as u32),
        1 => Event::FpWork(payload as u32),
        2 => Event::Branch { mispredict: flag },
        3 => Event::Load {
            addr: payload,
            dep: flag,
        },
        _ => Event::Store { addr: payload },
    }
}

/// An adversarial codec payload: uniform 64-bit values mixed with the
/// delta encoder's worst cases — tiny values, values at the top of the
/// range (so consecutive addresses produce maximum-magnitude wrapping
/// deltas), and near-power-of-two boundaries where varint group counts
/// change.
fn gen_codec_payload(rng: &mut Rng) -> u64 {
    match rng.range_u64(0, 6) {
        0 => rng.next_u64(),
        1 => rng.range_u64(0, 16),
        2 => u64::MAX - rng.range_u64(0, 16),
        3 => (1u64 << rng.range_u64(1, 64)).wrapping_sub(rng.range_u64(0, 2)),
        4 => rng.next_u64() & 0xFFFF,
        _ => rng.next_u64() | (1 << 63),
    }
}

fn codec_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    use primecache_trace::encode::{read_varint, unzigzag, write_varint, zigzag};
    use primecache_trace::EncodedTrace;
    let n = cfg.addrs_per_unit;
    let mut out = Vec::new();

    // LEB128 varint: every u64 round-trips, the encoding is the minimal
    // 7-bit-group length, and decoding consumes exactly what encoding
    // produced even with trailing bytes present.
    out.push(run_unit(
        cfg,
        "codec/varint",
        n,
        1,
        gen_codec_payload,
        |&v| {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let groups = (64 - v.leading_zeros() as usize).div_ceil(7).max(1);
            assert_eq!(buf.len(), groups, "non-minimal varint for {v:#x}");
            buf.push(0xAB); // trailing noise must not be consumed
            let mut pos = 0usize;
            let back = read_varint(&buf, &mut pos).expect("round trip decodes");
            assert_eq!(back, v, "varint round trip");
            assert_eq!(pos, groups, "decode consumed the wrong length");
        },
    ));

    // Zigzag: every delta (as the wrapping difference of two payloads)
    // round-trips, and sign-magnitude ordering holds — small magnitudes
    // of either sign get small codes.
    out.push(run_unit(
        cfg,
        "codec/zigzag",
        n,
        1,
        |rng| (gen_codec_payload(rng), gen_codec_payload(rng)),
        |&(a, b)| {
            let delta = b.wrapping_sub(a) as i64;
            assert_eq!(unzigzag(zigzag(delta)), delta, "zigzag round trip");
            assert_eq!(
                a.wrapping_add(unzigzag(zigzag(delta)) as u64),
                b,
                "wrapping delta reconstruction"
            );
            if (-64..64).contains(&delta) {
                assert!(zigzag(delta) < 128, "small delta {delta} got a large code");
            }
        },
    ));

    // Whole-trace round trip over adversarial event sequences: encode →
    // decode_all, encode → replay, and encode → to_bytes → from_bytes →
    // decode must all reproduce the exact input sequence, for chunk
    // sizes that leave partial final chunks.
    let stream = stream_cases(cfg);
    out.push(run_unit(
        cfg,
        "codec/event-roundtrip",
        stream,
        STREAM_LEN,
        |rng| {
            rng.vec(STREAM_LEN, STREAM_LEN + 1, |r| {
                (r.range_u64(0, 5), gen_codec_payload(r), r.bool())
            })
        },
        |tuples: &Vec<(u64, u64, bool)>| {
            let events: Vec<primecache_trace::Event> = tuples.iter().map(tuple_event).collect();
            for chunk_events in [1usize, 7, 64, STREAM_LEN + 3] {
                let trace = EncodedTrace::encode(&events, chunk_events);
                assert_eq!(
                    trace.decode_all().expect("decode"),
                    events,
                    "decode_all ({chunk_events}-event chunks)"
                );
                let replayed: Vec<primecache_trace::Event> = trace.replay().collect();
                assert_eq!(replayed, events, "replay ({chunk_events}-event chunks)");
                let framed = EncodedTrace::from_bytes(&trace.to_bytes()).expect("reframe");
                assert_eq!(
                    framed.decode_all().expect("decode reframed"),
                    events,
                    "frame round trip ({chunk_events}-event chunks)"
                );
            }
        },
    ));

    // Mutated frames: the decoder's verdict on each must be the
    // oracle's — the same events, or the same error at the same byte
    // offset — and an accepted frame must replay to the oracle's events
    // through every consumer path.
    out.push(run_unit(
        cfg,
        "codec/frame-fuzz",
        cfg.addrs_per_unit.div_ceil(FRAME_FUZZ_WEIGHT),
        FRAME_FUZZ_WEIGHT,
        |rng| {
            let events = rng.vec(0, FRAME_FUZZ_EVENTS + 1, |r| {
                (r.range_u64(0, 5), gen_codec_payload(r), r.bool())
            });
            let mutations = rng.vec(1, 4, |r| (r.range_u64(0, 9), r.next_u64(), r.next_u64()));
            (events, rng.range_u64(0, 3), mutations)
        },
        |(tuples, chunk, mutations): &FrameCase| {
            let events: Vec<primecache_trace::Event> = tuples.iter().map(tuple_event).collect();
            let chunk_events = [1, 7, 64][(*chunk % 3) as usize];
            let mut frame = EncodedTrace::encode(&events, chunk_events).to_bytes();
            let layout = ref_decode_frame(&frame).expect("the oracle reads a fresh frame");
            assert_eq!(
                layout.events, events,
                "the oracle reads the encoder's events"
            );
            for &m in mutations {
                mutate_frame(&mut frame, &layout, m);
            }
            match (
                EncodedTrace::from_bytes_diagnose(&frame),
                ref_decode_frame(&frame),
            ) {
                (Ok(trace), Ok(want)) => check_replays(&trace, &want, &frame),
                (Err(got), Err(want)) => assert_eq!(got, want, "frame error"),
                (got, want) => panic!(
                    "verdicts differ: decoder {:?}, oracle {:?}",
                    got.map(|t| t.events()),
                    want.map(|f| f.events.len())
                ),
            }
        },
    ));
    out
}

/// Events per `codec/frame-fuzz` frame, at most.
const FRAME_FUZZ_EVENTS: usize = 48;

/// Cases one `codec/frame-fuzz` frame counts for: the unit mutates one
/// frame per four cases of the budget.
const FRAME_FUZZ_WEIGHT: usize = 4;

/// A `codec/frame-fuzz` case: `tuple_event` tuples, a chunk-size
/// selector, and `(operation, where, what)` mutations.
type FrameCase = (Vec<(u64, u64, bool)>, u64, Vec<(u64, u64, u64)>);

/// Applies one mutation to `frame`: a bit flip in the frame header, a
/// chunk header, a tag or the byte after it; truncation; an inserted or
/// deleted payload byte; a reserved tag pattern (kinds 5–7, a flag on
/// Work, FpWork or Store, a Branch nibble); or 9–12 continuation bytes
/// that push a varint past 10 bytes. The layout the oracle read from the
/// unmutated frame aims it; an offset past the end of a shortened frame
/// falls back to one anywhere in it, and an emptied frame stays empty.
fn mutate_frame(frame: &mut Vec<u8>, layout: &RefFrame, (op, at, what): (u64, u64, u64)) {
    use primecache_trace::Event;
    let pick = |offsets: &[usize]| -> Option<usize> {
        (!offsets.is_empty()).then(|| offsets[(at % offsets.len() as u64) as usize])
    };
    if frame.is_empty() {
        return;
    }
    let (len, last) = (frame.len() as u64, frame.len() - 1);
    let anywhere = (at % len) as usize;
    let tag = pick(&layout.tag_offsets)
        .filter(|&t| t < frame.len())
        .unwrap_or(anywhere);
    let bit = 1u8 << (what % 8);
    match op {
        0 => frame[(at % 32.min(len)) as usize] ^= bit,
        1 => {
            let header =
                pick(&layout.chunk_offsets).map_or(anywhere, |c| c + (what / 8 % 16) as usize);
            frame[header.min(last)] ^= bit;
        }
        2 => frame[tag] ^= bit,
        3 => frame[(tag + 1).min(last)] ^= bit,
        4 => frame.truncate(anywhere),
        5 => frame.insert(tag, what as u8),
        6 => {
            frame.remove(tag);
        }
        7 => {
            let high = frame[tag] & 0xF0;
            frame[tag] = match what % 4 {
                0 => (frame[tag] & 0xF8) | (5 + (what / 4 % 3) as u8),
                1 => high | 0x08 | (what / 4 % 2) as u8,
                2 => high | 0x08 | 0x04,
                _ => 0x02 | ((what / 4 % 2) as u8) << 3 | (1 + (what / 8 % 15) as u8) << 4,
            };
        }
        _ => {
            // Continuation bytes right after the tag of an event that
            // carries a varint: a memory event or an escaped count.
            let varint_tags: Vec<usize> = layout
                .events
                .iter()
                .zip(&layout.tag_offsets)
                .filter(|(ev, _)| match ev {
                    Event::Work(n) | Event::FpWork(n) => *n >= 15,
                    Event::Branch { .. } => false,
                    Event::Load { .. } | Event::Store { .. } => true,
                })
                .map(|(_, &t)| t)
                .collect();
            let t = pick(&varint_tags)
                .filter(|&t| t < frame.len())
                .unwrap_or(tag);
            let run = 9 + (what % 4) as usize;
            let byte = 0x80 | (what >> 8) as u8;
            frame.splice(t + 1..t + 1, std::iter::repeat_n(byte, run));
        }
    }
}

/// Checks that an accepted frame matches the oracle's reading and
/// replays to its events through `next`, `fold`, the chunk push (one
/// slice per non-empty chunk, the remainder of a partial `next` pull
/// first) and `decode_all`, and that it re-serializes to `frame`.
fn check_replays(trace: &primecache_trace::EncodedTrace, want: &RefFrame, frame: &[u8]) {
    use primecache_trace::Event;
    use primecache_workloads::EventChunks;
    let events = &want.events;
    let refs = events.iter().filter(|e| e.is_memory()).count() as u64;
    assert_eq!((trace.events(), trace.refs()), (events.len() as u64, refs));
    assert_eq!(trace.chunk_events(), want.chunk_events, "chunk_events");
    let chunks: Vec<usize> = trace.chunks().iter().map(|c| c.events()).collect();
    assert_eq!(chunks, want.chunks, "chunk event counts");
    assert_eq!(
        trace.to_bytes(),
        frame,
        "an accepted frame re-serializes to itself"
    );
    assert_eq!(&trace.decode_all().expect("accepted"), events, "decode_all");
    let mut cursor = trace.replay();
    let via_next: Vec<Event> = std::iter::from_fn(|| cursor.next()).collect();
    assert_eq!(&via_next, events, "next");
    let folded = trace.replay().fold(Vec::new(), |mut v, ev| {
        v.push(ev);
        v
    });
    assert_eq!(&folded, events, "fold");
    let mut slices: Vec<Vec<Event>> = Vec::new();
    trace.replay().push_chunks(&mut |c| slices.push(c.to_vec()));
    let lens: Vec<usize> = slices.iter().map(Vec::len).collect();
    let want_lens: Vec<usize> = want.chunks.iter().copied().filter(|&n| n > 0).collect();
    assert_eq!(lens, want_lens, "one pushed slice per non-empty chunk");
    assert_eq!(&slices.concat(), events, "chunk push");
    let half = events.len() / 2;
    let mut cursor = trace.replay();
    let mut got: Vec<Event> = cursor.by_ref().take(half).collect();
    cursor.push_chunks(&mut |c| got.extend_from_slice(c));
    assert_eq!(&got, events, "partial next, then the chunk push");
}

// ---------------------------------------------------------------------------
// Ingest units: the text trace grammar against the event codec.
// ---------------------------------------------------------------------------

fn ingest_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    use primecache_ingest::text::{format_event, parse_line, write_text};
    use primecache_ingest::{import_bytes, ImportError, SourceFormat, TextEvents};
    use primecache_trace::EncodedTrace;
    use primecache_workloads::STREAM_CHUNK;

    let mut out = Vec::new();

    // Per-event round trip: the canonical text form of every event
    // parses back to the identical event (the grammar is lossless for
    // the simulator's own vocabulary, TRACE_FORMAT.md §text).
    out.push(run_unit(
        cfg,
        "ingest/text-roundtrip",
        cfg.addrs_per_unit,
        1,
        |rng| (rng.range_u64(0, 5), gen_codec_payload(rng), rng.bool()),
        |tuple| {
            let ev = tuple_event(tuple);
            let line = format_event(ev);
            let back = parse_line(line.as_bytes())
                .unwrap_or_else(|e| panic!("canonical line '{line}' rejected: {e}"))
                .unwrap_or_else(|| panic!("canonical line '{line}' parsed as silent"));
            assert_eq!(back, ev, "text round trip via '{line}'");
        },
    ));

    // Whole-stream equivalence: text-export → import must reproduce the
    // recorded frame byte-for-byte for adversarial event sequences —
    // the same invariant `pcache import` and ci/ingest_smoke.sh rely on.
    let stream = stream_cases(cfg);
    out.push(run_unit(
        cfg,
        "ingest/frame-reencode",
        stream,
        STREAM_LEN,
        |rng| {
            rng.vec(STREAM_LEN, STREAM_LEN + 1, |r| {
                (r.range_u64(0, 5), gen_codec_payload(r), r.bool())
            })
        },
        |tuples: &Vec<(u64, u64, bool)>| {
            let events: Vec<primecache_trace::Event> = tuples.iter().map(tuple_event).collect();
            let recorded = primecache_trace::EncodedTrace::encode(&events, STREAM_CHUNK);
            let mut text = Vec::new();
            write_text(events.iter().copied(), &mut text).expect("Vec<u8> write");
            let imported = import_bytes(&text).expect("canonical text imports");
            assert_eq!(imported.stats.format, SourceFormat::Text);
            assert_eq!(
                imported.trace.to_bytes(),
                recorded.to_bytes(),
                "frame bytes"
            );
            assert_eq!(
                imported.trace.fingerprint(),
                recorded.fingerprint(),
                "fingerprint"
            );
        },
    ));

    // The byte-level streaming reader against the naive whole-input
    // reference, on traces generated from the TRACE_FORMAT.md grammar
    // and then mutated. Each input is read whole (`import_bytes`) and
    // through a `BufReader` of the case's capacity, so lines straddle
    // buffer ends at every offset.
    out.push(run_unit(
        cfg,
        "ingest/text-parse",
        cfg.addrs_per_unit.div_ceil(TEXT_LINES),
        TEXT_LINES,
        |rng| {
            let capacity = match rng.range_u64(0, 4) {
                0 => rng.range_usize(MAX_LINE_BYTES - 2, MAX_LINE_BYTES + 5),
                _ => rng.range_usize(1, 17),
            };
            (gen_text_trace(rng), capacity)
        },
        |(input, capacity): &(TextInput, usize)| {
            let want = ref_read_text(&input.0);
            // A `PCTE` magic would make `import_bytes` read binary.
            if !input.0.starts_with(b"PCTE") {
                match import_bytes(&input.0) {
                    Ok(imported) => {
                        assert_eq!(want.error, None, "import_bytes accepted");
                        assert_eq!(imported.stats.format, SourceFormat::Text);
                        assert_eq!(imported.stats.lines, want.lines, "lines");
                        assert_eq!(imported.stats.silent_lines, want.silent_lines);
                        let frame = EncodedTrace::encode(&want.events, STREAM_CHUNK);
                        assert_eq!(imported.trace.to_bytes(), frame.to_bytes(), "frame");
                    }
                    Err(ImportError::Text(e)) => {
                        assert_eq!(Some(e), want.error, "import_bytes error");
                    }
                    Err(e) => panic!("text input failed as {e}"),
                }
            }
            let reader = std::io::BufReader::with_capacity((*capacity).max(1), &input.0[..]);
            let mut src = TextEvents::new(reader);
            let mut got = TextRead::default();
            for ev in &mut src {
                match ev {
                    Ok(ev) => got.events.push(ev),
                    Err(e) => got.error = Some(e),
                }
            }
            got.lines = src.lines();
            got.silent_lines = src.silent_lines();
            assert_eq!(got, want, "streamed read");
        },
    ));
    out
}

/// Grammar lines per `ingest/text-parse` case (the unit's case weight).
const TEXT_LINES: usize = 16;

/// A text trace input, shown as an escaped byte string. It shrinks by
/// halves (of two bytes or more: half of one byte is itself), then by
/// whole lines, then by its last byte.
#[derive(Clone)]
struct TextInput(Vec<u8>);

impl std::fmt::Debug for TextInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"{}\"", self.0.escape_ascii())
    }
}

impl Shrink for TextInput {
    fn shrink(&self) -> Vec<Self> {
        let b = &self.0;
        if b.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        if b.len() > 1 {
            out.extend([b[..b.len() / 2].to_vec(), b[b.len() / 2..].to_vec()]);
        }
        let mut start = 0;
        for (i, _) in b.iter().enumerate().filter(|&(_, &c)| c == b'\n') {
            out.push([&b[..start], &b[i + 1..]].concat());
            start = i + 1;
        }
        out.push(b[..b.len() - 1].to_vec());
        out.into_iter().map(TextInput).collect()
    }
}

/// Pushes one to three whitespace bytes (space, tab, form feed).
fn gen_text_ws(rng: &mut Rng, out: &mut Vec<u8>) {
    for _ in 0..rng.range_usize(1, 4) {
        out.push([b' ', b' ', b'\t', 0x0C][rng.range_usize(0, 4)]);
    }
}

/// Pushes `digits` after a run of leading zeros that sometimes takes
/// the field to or past 16 digits.
fn push_padded(rng: &mut Rng, digits: &str, out: &mut Vec<u8>) {
    let zeros = match rng.range_u64(0, 4) {
        0 => 16usize.saturating_sub(digits.len()) + rng.range_usize(0, 6),
        1 => rng.range_usize(1, 4),
        _ => 0,
    };
    out.extend(std::iter::repeat_n(b'0', zeros));
    out.extend_from_slice(digits.as_bytes());
}

/// An `addr` field: optional `0x`/`0X`, hex digits in either case
/// (rarely 17 significant ones, past 64 bits), optional `,size`.
fn gen_text_addr(rng: &mut Rng, out: &mut Vec<u8>) {
    out.extend_from_slice([&b"0x"[..], b"0X", b"", b""][rng.range_usize(0, 4)]);
    let value = gen_codec_payload(rng);
    let mut digits = if rng.range_u64(0, 64) == 0 {
        format!("1{value:016x}")
    } else {
        format!("{value:x}")
    };
    if rng.bool() {
        digits.make_ascii_uppercase();
    }
    push_padded(rng, &digits, out);
    if rng.range_u64(0, 4) == 0 {
        out.push(b',');
        out.extend_from_slice(rng.range_u64(1, 65).to_string().as_bytes());
    }
}

/// A `count` field: small, uniform, at the top of `u32`, or (rarely)
/// just past it.
fn gen_text_count(rng: &mut Rng, out: &mut Vec<u8>) {
    let top = u64::from(u32::MAX);
    let n = match rng.range_u64(0, 64) {
        0 => top + rng.range_u64(1, 3),
        1..=15 => top - rng.range_u64(0, 3),
        16..=39 => rng.range_u64(0, 20),
        _ => rng.range_u64(0, top + 1),
    };
    push_padded(rng, &n.to_string(), out);
}

/// One grammar line, terminator excluded: blank, comment-only, or a
/// record of any form, with optional surrounding whitespace and an
/// optional trailing comment.
fn gen_text_line(rng: &mut Rng, out: &mut Vec<u8>) {
    if rng.bool() {
        gen_text_ws(rng, out);
    }
    let tag = b"ILSWFB-#"[rng.range_usize(0, 8)];
    if tag != b'-' && tag != b'#' {
        out.push(tag);
        match tag {
            b'W' | b'F' => {
                gen_text_ws(rng, out);
                gen_text_count(rng, out);
            }
            b'B' => {
                if rng.bool() {
                    gen_text_ws(rng, out);
                    out.push(b'm');
                }
            }
            _ => {
                gen_text_ws(rng, out);
                gen_text_addr(rng, out);
                if tag == b'L' && rng.bool() {
                    gen_text_ws(rng, out);
                    out.push(b'd');
                }
            }
        }
        if rng.bool() {
            gen_text_ws(rng, out);
        }
    }
    if tag == b'#' || rng.range_u64(0, 4) == 0 {
        out.push(b'#');
        for _ in 0..rng.range_usize(0, 12) {
            let piece: &[u8] =
                [&b"x"[..], b" ", b"#", b"L 40", b"\xc3\xa9", b"\t"][rng.range_usize(0, 6)];
            out.extend_from_slice(piece);
        }
    }
}

/// A line of `MAX_LINE_BYTES - 1` to `+ 2` bytes (one `\r` may follow):
/// a record padded with spaces or zeros, a long comment, or garbage.
fn gen_long_line(rng: &mut Rng) -> Vec<u8> {
    let len = rng.range_usize(MAX_LINE_BYTES - 1, MAX_LINE_BYTES + 3);
    let (head, pad): (&[u8], u8) = match rng.range_u64(0, 4) {
        0 => (b"W 7", b' '),
        1 => (b"L ", b'0'),
        2 => (b"# ", b'c'),
        _ => (b"", b'z'),
    };
    let mut line = head.to_vec();
    line.resize(len, pad);
    if head == b"L " {
        let n = line.len();
        line[n - 2..].copy_from_slice(b"40");
    }
    if rng.bool() {
        line.push(b'\r');
    }
    line
}

/// A grammar-generated text trace of [`TEXT_LINES`] lines (LF or CRLF,
/// the last one maybe unterminated), then zero to three mutations: a
/// byte flip, an inserted `+`, `#` or non-UTF-8 byte, or an overlong
/// line mid-file or at the end.
fn gen_text_trace(rng: &mut Rng) -> TextInput {
    let mut out = Vec::new();
    for i in 0..TEXT_LINES {
        gen_text_line(rng, &mut out);
        if i + 1 < TEXT_LINES || rng.bool() {
            out.extend_from_slice(if rng.range_u64(0, 4) == 0 {
                b"\r\n"
            } else {
                b"\n"
            });
        }
    }
    for _ in 0..rng.range_usize(0, 4) {
        let at = rng.range_usize(0, out.len() + 1);
        match rng.range_u64(0, 6) {
            0 if !out.is_empty() => {
                let i = at.min(out.len() - 1);
                out[i] ^= 1 << rng.range_u64(0, 8);
            }
            0 | 1 => out.insert(at, b'+'),
            2 => out.insert(at, b'#'),
            3 => {
                let bad: &[u8] =
                    [&b"\xff"[..], b"\x80", b"\xc3", b"\xed\xa0\x80"][rng.range_usize(0, 4)];
                out.splice(at..at, bad.iter().copied());
            }
            _ => {
                // Mid-file at a line start, or appended with no newline.
                let line = gen_long_line(rng);
                let starts: Vec<usize> = std::iter::once(0)
                    .chain(
                        out.iter()
                            .enumerate()
                            .filter(|&(_, &c)| c == b'\n')
                            .map(|(i, _)| i + 1),
                    )
                    .collect();
                if rng.bool() {
                    let at = starts[rng.range_usize(0, starts.len())];
                    out.splice(at..at, line.into_iter().chain(std::iter::once(b'\n')));
                } else {
                    if !out.is_empty() && out.last() != Some(&b'\n') {
                        out.push(b'\n');
                    }
                    out.extend(line);
                }
            }
        }
    }
    TextInput(out)
}

// ---------------------------------------------------------------------------
// DRAM stream unit.
// ---------------------------------------------------------------------------

fn dram_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    // The paper's geometry, then geometries where a shift or mask in
    // place of the address map's divisions would be wrong: 3 channels
    // and 5 banks, and 3 channels under the permutation (which needs a
    // power-of-two bank count).
    let odd = MemConfig {
        channels: 3,
        banks_per_channel: 5,
        ..MemConfig::paper_default()
    };
    let odd_permuted = MemConfig {
        channels: 3,
        ..MemConfig::paper_default()
    }
    .with_permutation_mapping();
    [
        ("mem/dram", MemConfig::paper_default()),
        (
            "mem/dram-permuted",
            MemConfig::paper_default().with_permutation_mapping(),
        ),
        ("mem/dram-3ch-5bank", odd),
        ("mem/dram-3ch-8bank-permuted", odd_permuted),
    ]
    .into_iter()
    .map(|(name, mc)| {
        run_unit(
            cfg,
            name,
            stream_cases(cfg),
            STREAM_LEN,
            // (address, issue gap, is_write): addresses span a few rows
            // and banks; gaps interleave in-flight requests.
            move |rng| {
                rng.vec(STREAM_LEN, STREAM_LEN + 1, |r| {
                    (r.range_u64(0, 1 << 24), r.range_u64(0, 400), r.bool())
                })
            },
            move |stream: &Vec<(u64, u64, bool)>| {
                let mut fast = Dram::new(mc);
                let mut oracle = OracleDram::new(mc);
                let mut now = 0u64;
                for (i, &(addr, gap, write)) in stream.iter().enumerate() {
                    now += gap;
                    let got = fast.request(addr, now, write);
                    let want = oracle.request(addr, now, write);
                    assert_eq!(
                        got, want,
                        "request {i} (addr {addr:#x}, cycle {now}): completion mismatch"
                    );
                }
            },
        )
    })
    .collect()
}

// ---------------------------------------------------------------------------
// CPU timing units.
// ---------------------------------------------------------------------------

/// A `(kind, payload, flag)` event stream for [`tuple_event`] in one of
/// six shapes: any event, dependent-load chains, store bursts longer
/// than the store buffer, work longer than the ROB between loads,
/// mispredict runs, and FP mixes. `addrs` draws each event's address
/// pair: any address, and one that misses the L1 (for the store bursts).
fn gen_cpu_stream(rng: &mut Rng, addrs: fn(&mut Rng) -> (u64, u64)) -> Vec<(u64, u64, bool)> {
    const WORK: u64 = 0;
    const FP: u64 = 1;
    const BRANCH: u64 = 2;
    const LOAD: u64 = 3;
    const STORE: u64 = 4;
    let shape = rng.range_u32(0, 6);
    (0..STREAM_LEN)
        .map(|_| {
            let (addr, cold) = addrs(rng);
            match shape {
                0 => {
                    let kind = rng.range_u64(0, 5);
                    let payload = if kind < BRANCH {
                        rng.range_u64(0, 40)
                    } else {
                        addr
                    };
                    (kind, payload, rng.bool())
                }
                1 if rng.range_u32(0, 4) == 0 => (WORK, rng.range_u64(0, 12), false),
                1 => (LOAD, addr, true),
                2 if rng.range_u32(0, 24) == 0 => (LOAD, addr, false),
                2 => (STORE, cold, false),
                3 if rng.bool() => (WORK, rng.range_u64(100, 1000), false),
                3 => (LOAD, addr, false),
                4 if rng.range_u32(0, 4) == 0 => (LOAD, addr, rng.bool()),
                4 => (BRANCH, 0, rng.range_u32(0, 8) != 0),
                _ => match rng.range_u32(0, 4) {
                    0 => (FP, rng.range_u64(0, 64), false),
                    1 => (WORK, rng.range_u64(0, 64), false),
                    2 => (LOAD, addr, rng.bool()),
                    _ => (STORE, addr, false),
                },
            }
        })
        .collect()
}

/// Addresses for the CPU units' 1 KB L1 and 4 KB L2: half in an 8 KB
/// hot window (L2 hits), half in 256 KB (L2 misses and dirty victims).
fn cpu_unit_addrs(rng: &mut Rng) -> (u64, u64) {
    let cold = rng.range_u64(0, 256 << 10);
    let addr = if rng.bool() {
        rng.range_u64(0, 8 << 10)
    } else {
        cold
    };
    (addr, cold)
}

/// The CPU units' cores: the paper's, and one with every limit moved.
fn cpu_unit_cores() -> [(&'static str, CpuConfig); 2] {
    let narrow = CpuConfig {
        issue_width: 5,
        fp_width: 3,
        mem_width: 1,
        max_pending_loads: 1,
        rob_size: 32,
        ..CpuConfig::paper_default()
    };
    [
        ("cpu/timing", CpuConfig::paper_default()),
        ("cpu/timing-narrow", narrow),
    ]
}

/// The CPU units' memory side: the production hierarchy and DRAM, so the
/// units check the core model alone. The hierarchy is tiny, so 256
/// events reach the L2, the DRAM and dirty L2 victims.
fn cpu_unit_memory() -> (Hierarchy<Cache>, Dram) {
    let l2 = CacheConfig::new(4096, 4, 64);
    let hcfg = HierarchyConfig {
        l1: CacheConfig::new(1024, 2, 32),
        l2: L2Organization::SetAssoc(l2),
        prefetch_depth: 0,
    };
    (
        Hierarchy::with_l2(hcfg, Cache::new(l2)),
        Dram::new(MemConfig::paper_default()),
    )
}

impl<X: primecache_cache::L2Sim> OracleMemory for (Hierarchy<X>, Dram) {
    fn access(&mut self, addr: u64, write: bool) -> (AccessOutcome, Vec<u64>) {
        let outcome = self.0.access(addr, write);
        let line = self.0.config().l2.line_bytes();
        (
            outcome,
            self.0.take_memory_writes().map(|b| b * line).collect(),
        )
    }

    fn dram(&mut self, addr: u64, now: u64, write: bool) -> u64 {
        self.1.request(addr, now, write).complete
    }
}

fn cpu_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    cpu_unit_cores()
        .into_iter()
        .map(|(name, cpu)| {
            run_unit(
                cfg,
                name,
                stream_cases(cfg),
                STREAM_LEN,
                |rng| gen_cpu_stream(rng, cpu_unit_addrs),
                move |stream: &Vec<(u64, u64, bool)>| {
                    let events: Vec<_> = stream.iter().map(tuple_event).collect();
                    let (mut h, mut d) = cpu_unit_memory();
                    let mut fast = Cpu::new(cpu);
                    let got = fast.run(events.iter().copied(), &mut h, &mut d);
                    let mut memory = cpu_unit_memory();
                    let (want, want_stalls) = OracleCpu::new(cpu).run(&events, &mut memory);
                    assert_eq!(got, want, "breakdown mismatch");
                    assert_eq!(
                        fast.last_stall_attribution(),
                        want_stalls,
                        "stall attribution mismatch"
                    );
                    assert_eq!(d.stats(), memory.1.stats(), "DRAM traffic mismatch");
                },
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Whole-machine units: every driver's engine against the oracle machine.
// ---------------------------------------------------------------------------

/// The machine units' machine: the paper's core, DRAM and 16 KB L1 over
/// an 8 KB L2 (32 sets of 4 ways), so 256 events evict dirty lines from
/// both cache levels.
fn machine_unit_config() -> MachineConfig {
    MachineConfig {
        l2_size: 8 * 1024,
        ..MachineConfig::paper_default()
    }
}

/// Addresses for the machine units: a third in a 4 KB hot window, a
/// third over 1 MB, and a third on twelve lines 8 KB apart at one of
/// four offsets, which share one L1 set and one Base L2 set each, so
/// dirty L1 victims land in the set the demand access reads.
fn machine_unit_addrs(rng: &mut Rng) -> (u64, u64) {
    let conflict = rng.range_u64(0, 4) * 64 + rng.range_u64(0, 12) * (8 << 10);
    let cold = rng.range_u64(0, 1 << 20);
    let addr = match rng.range_u32(0, 3) {
        0 => rng.range_u64(0, 4 << 10),
        1 => cold,
        _ => conflict,
    };
    (addr, if rng.bool() { conflict } else { cold })
}

/// The `sim/machine` units run each stream through `run_trace`, a live
/// L1 per scheme. The `sim/l1-replay` units record the stream's L1 once
/// ([`Recording`]) and replay its outcomes into the scheme's L2, the way
/// every sweep cell runs: the oracle machine, which simulates its own
/// L1, must agree with both.
fn machine_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    use primecache_core::expr::{builtins, register_anonymous};
    let machine = machine_unit_config();
    let sets = Geometry::new(machine.l2_size / (4 * machine.l2_line));
    let pmod = register_anonymous(&builtins::pmod_src(sets)).expect("pMod source compiles");
    let schemes: Vec<Scheme> = Scheme::ALL
        .into_iter()
        .chain([Scheme::Expr(pmod)])
        .collect();
    let mut out = Vec::new();
    for (family, replay_l1) in [("sim/machine", false), ("sim/l1-replay", true)] {
        for &scheme in &schemes {
            out.push(run_unit(
                cfg,
                &format!("{family}/{}", scheme.label()),
                stream_cases(cfg),
                STREAM_LEN,
                |rng| gen_cpu_stream(rng, machine_unit_addrs),
                move |stream: &Vec<(u64, u64, bool)>| {
                    let events: Vec<_> = stream.iter().map(tuple_event).collect();
                    let got = if replay_l1 {
                        Recording::of_events(&events).run(scheme, &machine)
                    } else {
                        run_trace(events.iter().copied(), scheme, &machine)
                    };
                    let want = OracleMachine::new(&machine, scheme).run(&events);
                    assert_eq!(got.breakdown, want.breakdown, "breakdown mismatch");
                    assert_eq!(got.l1, want.l1, "L1 stats mismatch");
                    assert_eq!(got.l2, want.l2, "L2 demand stats mismatch");
                    assert_eq!(got.dram, want.dram, "DRAM stats mismatch");
                },
            ));
        }
    }
    out
}

/// A `sim/tenants` case: each tenant's `tuple_event` stream, the
/// quantum and the scheduler's seed, and the events per encoded chunk.
/// The prop maps the quantum into 1–2,000 instructions and the chunk
/// into 1–64 events, so shrinking toward zero stays valid.
type TenantCase = (Vec<Vec<(u64, u64, bool)>>, (u64, u64), u64);

/// Adds what `now` counts beyond `before` into `lane`: one quantum's
/// share. A lane's per-set eviction counts take `now`'s length, so they
/// stay empty until the cache's first eviction.
fn credit_quantum(lane: &mut CacheStats, before: &CacheStats, now: &CacheStats) {
    lane.accesses += now.accesses - before.accesses;
    lane.hits += now.hits - before.hits;
    lane.misses += now.misses - before.misses;
    lane.writes += now.writes - before.writes;
    lane.writebacks += now.writebacks - before.writebacks;
    lane.evictions += now.evictions - before.evictions;
    lane.set_evictions.resize(now.set_evictions.len(), 0);
    for (lane, now, before) in [
        (
            &mut lane.set_accesses,
            &now.set_accesses,
            &before.set_accesses,
        ),
        (&mut lane.set_misses, &now.set_misses, &before.set_misses),
        (
            &mut lane.set_evictions,
            &now.set_evictions,
            &before.set_evictions,
        ),
    ] {
        for (set, n) in now.iter().enumerate() {
            lane[set] += n - before.get(set).copied().unwrap_or(0);
        }
    }
}

/// The `sim/tenants` units run random two- and three-tenant mixes
/// through `run_tenant_mix`, which credits each tenant's lane at tenant
/// switches. The reference drives [`OracleCaches`] one quantum at a
/// time and credits every quantum's statistics to its tenant; each lane
/// must equal it, and the aggregate must equal the oracle machine over
/// the interleaved stream. Quanta of 1–2,000 instructions over streams
/// encoded in chunks of 1–64 events end both inside a tenant's chunks
/// and at their edges.
fn tenant_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    let machine = machine_unit_config();
    let schemes = [
        Scheme::Base,
        Scheme::PrimeModulo,
        Scheme::Skewed,
        Scheme::FullyAssociative,
    ];
    schemes
        .into_iter()
        .map(|scheme| {
            run_unit(
                cfg,
                &format!("sim/tenants/{}", scheme.label()),
                stream_cases(cfg),
                STREAM_LEN,
                |rng| {
                    let tenants = rng.range_usize(2, 4);
                    let streams = (0..tenants)
                        .map(|_| gen_cpu_stream(rng, machine_unit_addrs))
                        .collect();
                    (streams, (rng.next_u64(), rng.next_u64()), rng.next_u64())
                },
                move |(streams, (quantum, seed), chunk): &TenantCase| {
                    if streams.is_empty() {
                        return;
                    }
                    let tenants = streams.iter().enumerate().map(|(i, stream)| {
                        let events: Vec<Event> = stream.iter().map(tuple_event).collect();
                        let trace = EncodedTrace::encode(&events, 1 + (chunk % 64) as usize);
                        (format!("t{i}"), trace)
                    });
                    let config = MixConfig {
                        quantum_instructions: 1 + quantum % 2_000,
                        seed: *seed,
                    };
                    let mix = TenantMix::new(tenants.collect(), config);
                    let got = run_tenant_mix(&mix, scheme, &machine);

                    let mut caches = OracleCaches::new(&machine.hierarchy_config(scheme));
                    let mut want: Vec<TenantLane> = (0..streams.len())
                        .map(|i| TenantLane {
                            name: format!("t{i}"),
                            events: 0,
                            refs: 0,
                            quanta: 0,
                            l1: caches.l1_stats().clone(),
                            l2: caches.l2_stats().clone(),
                        })
                        .collect();
                    let mut interleaved = Vec::new();
                    let mut cursor = mix.cursor();
                    while let Some((tenant, events)) = cursor.pull_quantum() {
                        let l1 = caches.l1_stats().clone();
                        let l2 = caches.l2_stats().clone();
                        let lane = &mut want[tenant];
                        for ev in events {
                            if let Some(addr) = ev.addr() {
                                caches.access(addr, matches!(ev, Event::Store { .. }));
                                lane.refs += 1;
                            }
                        }
                        credit_quantum(&mut lane.l1, &l1, caches.l1_stats());
                        credit_quantum(&mut lane.l2, &l2, caches.l2_stats());
                        lane.events += events.len() as u64;
                        lane.quanta += 1;
                        interleaved.extend_from_slice(events);
                    }
                    for (got, want) in got.lanes.iter().zip(&want) {
                        assert_eq!(got, want, "lane {} mismatch", want.name);
                    }
                    assert_eq!(got.lanes.len(), want.len(), "lane count mismatch");
                    let whole = OracleMachine::new(&machine, scheme).run(&interleaved);
                    let agg = &got.aggregate;
                    assert_eq!(agg.breakdown, whole.breakdown, "breakdown mismatch");
                    assert_eq!(agg.l1, whole.l1, "L1 stats mismatch");
                    assert_eq!(agg.l2, whole.l2, "L2 demand stats mismatch");
                    assert_eq!(agg.dram, whole.dram, "DRAM stats mismatch");
                },
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Attack units: black-box recovery vs known ground-truth models.
// ---------------------------------------------------------------------------

/// Derives a random GF(2) ground-truth matrix from a case seed: 2–6 rows
/// over a 12-bit window (possibly dependent — the canonical form is the
/// row space, so redundancy must not matter).
fn case_matrix(seed: u64, in_bits: u32) -> primecache_analyze::Gf2Matrix {
    let mut rng = Rng::new(seed ^ 0x6F2A);
    let mask = (1u64 << in_bits) - 1;
    let n_rows = rng.range_usize(2, 7);
    let rows: Vec<u64> = (0..n_rows).map(|_| rng.next_u64() & mask).collect();
    primecache_analyze::Gf2Matrix::new(rows, in_bits)
}

/// The three recovery units are seed-driven: each case derives a random
/// ground-truth model, wraps it in a [`ModelOracle`], runs the black-box
/// recovery, and asserts canonical-form agreement — the same differential
/// oracle `pcache attack` applies to the real schemes, here under fuzzed
/// geometries with shrinkable case seeds.
fn attack_units(cfg: &BatteryConfig) -> Vec<UnitReport> {
    use primecache_analyze::{canonicalize, models_equivalent, IndexModel};
    use primecache_attack::{recover, Verdict};
    use primecache_core::probe::ModelOracle;

    const IN_BITS: u32 = 12;
    // One recovery campaign probes a few hundred times; weight cases
    // accordingly so the battery budget buys a comparable effort.
    const CASE_WEIGHT: usize = 256;
    let cases = cfg.addrs_per_unit.div_ceil(CASE_WEIGHT);
    let mut out = Vec::new();

    out.push(run_unit(
        cfg,
        "attack/gf2-recover",
        cases,
        CASE_WEIGHT,
        |rng| rng.next_u64(),
        |&seed: &u64| {
            let matrix = case_matrix(seed, IN_BITS);
            let truth = IndexModel::Linear(matrix);
            let n_phys = truth.n_set().next_power_of_two();
            let eval = |a: u64| truth.eval(a);
            let mut oracle = ModelOracle::new(eval, n_phys, 1, IN_BITS);
            let rec = recover(&mut oracle, 0x5EED);
            let Verdict::Model(got) = &rec.verdict else {
                panic!("linear ground truth declared {:?}", rec.verdict);
            };
            assert!(
                models_equivalent(got, &truth),
                "recovered {} != ground truth {}",
                canonicalize(got),
                canonicalize(&truth)
            );
        },
    ));

    out.push(run_unit(
        cfg,
        "attack/residue-recover",
        cases,
        CASE_WEIGHT,
        |rng| rng.next_u64(),
        |&seed: &u64| {
            let mut rng = Rng::new(seed ^ 0x4E51);
            let modulus = rng.range_u64(2, 258);
            let truth = IndexModel::Residue {
                modulus,
                in_bits: IN_BITS + 2,
            };
            let n_phys = modulus.next_power_of_two();
            let eval = |a: u64| truth.eval(a);
            let mut oracle = ModelOracle::new(eval, n_phys, 1, IN_BITS + 2);
            let rec = recover(&mut oracle, 0x5EED);
            let Verdict::Model(got) = &rec.verdict else {
                panic!(
                    "residue ground truth (mod {modulus}) declared {:?}",
                    rec.verdict
                );
            };
            assert!(
                models_equivalent(got, &truth),
                "recovered {} != ground truth {}",
                canonicalize(got),
                canonicalize(&truth)
            );
        },
    ));

    out.push(run_unit(
        cfg,
        "attack/canonical-eq",
        cases,
        CASE_WEIGHT,
        |rng| rng.next_u64(),
        |&seed: &u64| {
            let mut rng = Rng::new(seed ^ 0xCA01);
            let matrix = case_matrix(seed, IN_BITS);
            // Invertible row scramble: swaps and row-additions preserve
            // the row space, so canonical equality must survive them.
            let mut rows: Vec<u64> = (0..matrix.out_bits()).map(|i| matrix.row(i)).collect();
            for _ in 0..16 {
                let i = rng.range_usize(0, rows.len());
                let j = rng.range_usize(0, rows.len());
                if i == j {
                    let last = rows.len() - 1;
                    rows.swap(0, last);
                } else {
                    rows[i] ^= rows[j];
                }
            }
            let scrambled =
                IndexModel::Linear(primecache_analyze::Gf2Matrix::new(rows.clone(), IN_BITS));
            let truth = IndexModel::Linear(matrix);
            assert!(
                models_equivalent(&truth, &scrambled),
                "row scramble changed the canonical form: {} vs {}",
                canonicalize(&truth),
                canonicalize(&scrambled)
            );
            // Dropping rank must change it.
            if canonicalize(&truth)
                != canonicalize(&IndexModel::Linear(primecache_analyze::Gf2Matrix::new(
                    Vec::new(),
                    IN_BITS,
                )))
            {
                let empty =
                    IndexModel::Linear(primecache_analyze::Gf2Matrix::new(Vec::new(), IN_BITS));
                assert!(
                    !models_equivalent(&truth, &empty),
                    "nonzero row space compared equal to the empty one"
                );
            }
        },
    ));

    out
}

/// Runs every differential unit and returns one report per unit.
#[must_use]
pub fn run_battery(cfg: &BatteryConfig) -> Vec<UnitReport> {
    let mut out = scalar_units(cfg);
    out.extend(expr_units(cfg));
    out.extend(fastmod_units(cfg));
    out.extend(set_assoc_units(cfg));
    out.extend(skewed_units(cfg));
    out.extend(fully_assoc_units(cfg));
    out.push(victim_unit(cfg));
    out.extend(codec_units(cfg));
    out.extend(ingest_units(cfg));
    out.extend(dram_units(cfg));
    out.extend(cpu_units(cfg));
    out.extend(machine_units(cfg));
    out.extend(tenant_units(cfg));
    out.extend(attack_units(cfg));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BatteryConfig {
        BatteryConfig {
            addrs_per_unit: 5_000,
            seed: 0,
        }
    }

    #[test]
    fn battery_passes_on_the_shipped_implementations() {
        let reports = run_battery(&small());
        assert!(
            reports.len() >= 20,
            "expected a broad battery, got {}",
            reports.len()
        );
        for r in &reports {
            assert!(
                r.passed,
                "unit {} failed: {}",
                r.unit,
                r.counterexample.as_deref().unwrap_or("<none>")
            );
            assert!(
                r.cases >= 5_000,
                "unit {} checked only {} cases",
                r.unit,
                r.cases
            );
        }
    }

    #[test]
    fn battery_covers_every_fast_path_family() {
        let names: Vec<String> = run_battery(&BatteryConfig {
            addrs_per_unit: 64,
            seed: 1,
        })
        .into_iter()
        .map(|r| r.unit)
        .collect();
        for prefix in [
            "index/Base",
            "index/XOR",
            "index/pMod",
            "index/pDisp",
            "index/XOR-fold",
            "index/SKW-bank0",
            "index/skw+pDisp-9",
            "expr/Base",
            "expr/XOR",
            "expr/XOR-fold",
            "expr/pMod",
            "expr/pDisp",
            "expr/SKW-bank1",
            "expr/skw+pDisp-9",
            "expr/model-linear",
            "expr/model-residue",
            "expr/model-affine",
            "expr/model-opaque",
            "expr/parse-fuzz",
            "index/pMod-fastmod-251",
            "index/pMod-fastmod-2039",
            "index/pMod-fastmod-16381",
            "hw/fastmod-fuzz",
            "hw/subtract_select",
            "hw/iterative_linear-t0",
            "hw/polynomial",
            "hw/mersenne_fold-k13",
            "hw/wired2039",
            "hw/tlb_assist-4k",
            "cache/set_assoc/Base",
            "cache/set_assoc/pMod",
            "cache/skewed/SKW",
            "cache/skewed/skw+pDisp",
            "cache/fully_assoc/16-line",
            "cache/fully_assoc/96-line",
            "cache/victim",
            "codec/varint",
            "codec/zigzag",
            "codec/event-roundtrip",
            "codec/frame-fuzz",
            "ingest/text-parse",
            "mem/dram",
            "mem/dram-3ch-5bank",
            "mem/dram-3ch-8bank-permuted",
            "cpu/timing",
            "cpu/timing-narrow",
            "sim/machine/Base",
            "sim/machine/pMod",
            "sim/machine/SKW",
            "sim/machine/FA",
            "sim/machine/expr:a % 31",
            "sim/l1-replay/Base",
            "sim/l1-replay/pMod",
            "sim/l1-replay/SKW",
            "sim/l1-replay/FA",
            "sim/l1-replay/expr:a % 31",
            "sim/tenants/Base",
            "sim/tenants/pMod",
            "sim/tenants/SKW",
            "sim/tenants/FA",
        ] {
            assert!(
                names.iter().any(|n| n == prefix),
                "battery lost coverage of {prefix}; units: {names:?}"
            );
        }
    }

    #[test]
    fn tenant_lanes_equal_the_per_quantum_attribution() {
        for r in tenant_units(&small()) {
            assert!(
                r.passed,
                "unit {} failed: {}",
                r.unit,
                r.counterexample.unwrap_or_default()
            );
        }
    }

    #[test]
    fn cpu_streams_reach_every_stall_cause() {
        // The cpu/timing units only check what their streams exercise:
        // every stall cause must occur, under both configurations.
        for (_, cpu) in cpu_unit_cores() {
            let mut rng = Rng::new(7);
            let mut seen = primecache_cpu::StallAttribution::default();
            let mut writes = 0;
            for _ in 0..200 {
                let events: Vec<_> = gen_cpu_stream(&mut rng, cpu_unit_addrs)
                    .iter()
                    .map(tuple_event)
                    .collect();
                let mut memory = cpu_unit_memory();
                let (_, s) = OracleCpu::new(cpu).run(&events, &mut memory);
                seen.rob += s.rob;
                seen.mlp += s.mlp;
                seen.dep += s.dep;
                seen.store += s.store;
                seen.drain += s.drain;
                seen.branch += s.branch;
                writes += memory.1.stats().writes;
            }
            let causes = [seen.rob, seen.mlp, seen.dep, seen.store, seen.drain];
            assert!(causes.iter().all(|&c| c > 0), "{cpu:?}: {seen:?}");
            assert!(
                seen.branch > 0 && writes > 0,
                "{cpu:?}: {seen:?}, {writes} writes"
            );
        }
    }

    #[test]
    fn battery_catches_a_seeded_indexer_bug() {
        // A deliberately wrong "fast path" (off-by-one modulus) must be
        // caught and shrunk to the smallest disagreeing address.
        let cfg = small();
        let report = run_unit(
            &cfg,
            "seeded/broken-pmod",
            cfg.addrs_per_unit,
            1,
            |rng| rng.range_u64(0, 1 << 20),
            |&a| assert_eq!(a % 2039, ref_prime_modulo(a, 2038), "a = {a}"),
        );
        assert!(!report.passed);
        assert!(report.shrink_steps > 0, "shrinking should make progress");
        // The moduli agree below 2038, so any shrunk counterexample has
        // been driven down to a small disagreeing address.
        let ce = report.counterexample.expect("counterexample recorded");
        let input: u64 = ce
            .strip_prefix("input ")
            .and_then(|s| s.split(':').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable counterexample: {ce}"));
        assert!(
            (2038..10_000).contains(&input),
            "expected a near-minimal counterexample, got {input}"
        );
    }

    #[test]
    fn battery_catches_a_seeded_replacement_bug() {
        // An "MRU-evicting" cache must disagree with the LRU oracle on
        // some stream.
        let cfg = BatteryConfig {
            addrs_per_unit: 20_000,
            seed: 0,
        };
        let report = run_unit(
            &cfg,
            "seeded/broken-lru",
            stream_cases(&cfg),
            STREAM_LEN,
            |rng| gen_stream(rng, 64, 4),
            |stream: &Vec<(u64, bool)>| {
                // Broken model: 4 sets × 2 ways, evicts the *newest* line.
                let mut sets: Vec<Vec<u64>> = vec![Vec::new(); 4];
                let mut oracle = OracleCache::new(4, 2, OraclePolicy::Lru, |b| b % 4);
                for &(block, write) in stream {
                    let set = &mut sets[(block % 4) as usize];
                    let broken_hit = if let Some(pos) = set.iter().position(|&b| b == block) {
                        let b = set.remove(pos);
                        set.push(b);
                        true
                    } else {
                        if set.len() == 2 {
                            set.pop(); // wrong: evicts the most recent
                        }
                        set.push(block);
                        false
                    };
                    let want = oracle.access_block(block, write);
                    assert_eq!(broken_hit, want.hit, "hit mismatch at block {block}");
                }
            },
        );
        assert!(!report.passed, "the seeded MRU bug must be detected");
    }
}
