//! The paper's evaluation as data: one registry entry per table, figure
//! and study, each carrying the paper's claims as executable checks.
//!
//! [`EXPERIMENTS`] lists every artifact of the paper's evaluation —
//! Tables 1–4, Theorem 1, the §4 classification and Figs. 5–13 — plus
//! the extension studies (`misstax` and the `ablation_*` family). An
//! [`Experiment`] names the schemes it reads from the shared sweep,
//! renders its text, lists the files it writes under `figures/`, and
//! carries its [`Claim`]s: a statement of the paper, measured on this
//! reproduction and held to the bound the reproduction guarantees.
//!
//! `pcache reproduce` runs one [`run_sweep`](crate::suite::run_sweep)
//! over the union of the selected entries' schemes, wraps it in a
//! [`Ctx`], then renders and checks each entry against it. The root
//! tests check the same claims, each in a context that
//! [`Ctx::with_reads`] fills with only the cells the claims declare they
//! read.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use primecache_cache::{CacheSim, CacheStats};
use primecache_core::index::SetIndexer;
use primecache_core::metrics::{strided_addresses, OnlineMetrics};
use primecache_trace::Event;
use primecache_workloads::{all, by_name, non_uniform_names, uniform_names, Workload};

use crate::report::render_table;
use crate::suite::{available_workers, fan_out, Cell, Sweep};
use crate::{run_workload, RunResult, Scheme};

mod paper;
mod studies;

pub use studies::{miss_taxonomy, run_workload_paged, MissTaxonomy};

/// Every table, figure and study, in the order `pcache reproduce` prints
/// them: the paper's artifacts in the paper's order, then the extension
/// studies.
pub const EXPERIMENTS: [Experiment; 28] = [
    paper::TABLE1,
    paper::THEOREM1,
    paper::TABLE2,
    paper::CLASSIFY,
    paper::TABLE3,
    paper::FIG5,
    paper::FIG6,
    paper::FIG7,
    paper::FIG8,
    paper::FIG9,
    paper::FIG10,
    paper::TABLE4,
    paper::FIG11,
    paper::FIG12,
    paper::FIG13,
    studies::MISSTAX,
    studies::ABLATION_CACHESIZE,
    studies::ABLATION_DRAM_MAPPING,
    studies::ABLATION_L1HASH,
    studies::ABLATION_MODULUS,
    studies::ABLATION_MULTIPROG,
    studies::ABLATION_PAGING,
    studies::ABLATION_PDISP,
    studies::ABLATION_PREFETCH,
    studies::ABLATION_REPLACEMENT,
    studies::ABLATION_SKEW_GEOMETRY,
    studies::ABLATION_VICTIM,
    studies::ABLATION_XOR_VARIANTS,
];

/// One table, figure or study.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Command-line name (`pcache reproduce fig7`).
    pub name: &'static str,
    /// Heading printed above the text.
    pub title: &'static str,
    /// Schemes the entry reads from the shared sweep; empty for an entry
    /// that simulates nothing or runs its own configurations.
    pub schemes: &'static [Scheme],
    /// Renders the entry's text.
    pub text: fn(&Ctx) -> String,
    /// Files the entry writes.
    pub files: &'static [Figure],
    /// The paper's statements this entry checks.
    pub claims: &'static [Claim],
}

/// A file an entry writes: its path under `figures/` and its renderer.
pub type Figure = (&'static str, fn(&Ctx) -> String);

/// A statement of the paper, measured on this reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// Unique id, `<entry>.<what>`.
    pub id: &'static str,
    /// The paper's statement, with its number where the paper gives one.
    pub paper: &'static str,
    /// The sweep cells `measure` reads.
    pub reads: Reads,
    /// Measures the claim.
    pub measure: fn(&Ctx) -> f64,
    /// What this reproduction guarantees of the measured value.
    pub bound: Bound,
    /// The shortest trace (`Ctx::refs`) the bound is guaranteed at; 0
    /// for a claim that does not depend on the trace length.
    pub min_refs: u64,
}

/// Which applications a claim reads.
#[derive(Debug, Clone, Copy)]
pub enum Apps {
    /// All 23 applications.
    All,
    /// The paper's non-uniform group.
    NonUniform,
    /// The paper's uniform group.
    Uniform,
    /// The named applications.
    Only(&'static [&'static str]),
}

impl Apps {
    /// The applications' names.
    #[must_use]
    pub fn names(self) -> Vec<&'static str> {
        match self {
            Apps::All => all().iter().map(|w| w.name).collect(),
            Apps::NonUniform => non_uniform_names(),
            Apps::Uniform => uniform_names(),
            Apps::Only(names) => names.to_vec(),
        }
    }
}

/// The sweep cells a claim reads: every pair of `apps` × `schemes`.
#[derive(Debug, Clone, Copy)]
pub struct Reads {
    /// The applications read.
    pub apps: Apps,
    /// The schemes read, `Base` included when the claim normalizes.
    pub schemes: &'static [Scheme],
}

impl Reads {
    /// A claim that reads no sweep cell.
    pub const NOTHING: Reads = Reads {
        apps: Apps::Only(&[]),
        schemes: &[],
    };
}

/// What a reproduction guarantees of a measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Strictly greater.
    Above(f64),
    /// Greater or equal.
    AtLeast(f64),
    /// Strictly less.
    Below(f64),
    /// Less or equal.
    AtMost(f64),
    /// Equal.
    Exactly(f64),
    /// Strictly between.
    Between(f64, f64),
}

impl Bound {
    /// Whether `v` satisfies the bound (never for NaN).
    #[must_use]
    pub fn holds(self, v: f64) -> bool {
        match self {
            Bound::Above(b) => v > b,
            Bound::AtLeast(b) => v >= b,
            Bound::Below(b) => v < b,
            Bound::AtMost(b) => v <= b,
            Bound::Exactly(b) => v == b,
            Bound::Between(lo, hi) => lo < v && v < hi,
        }
    }

    /// How far `v` is inside the bound (negative when outside).
    #[must_use]
    pub fn margin(self, v: f64) -> f64 {
        match self {
            Bound::Above(b) | Bound::AtLeast(b) => v - b,
            Bound::Below(b) | Bound::AtMost(b) => b - v,
            Bound::Exactly(b) => 0.0 - (v - b).abs(),
            Bound::Between(lo, hi) => (v - lo).min(hi - v),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bound::Above(b) => write!(f, "> {b}"),
            Bound::AtLeast(b) => write!(f, ">= {b}"),
            Bound::Below(b) => write!(f, "< {b}"),
            Bound::AtMost(b) => write!(f, "<= {b}"),
            Bound::Exactly(b) => write!(f, "= {b}"),
            Bound::Between(lo, hi) => write!(f, "in ({lo}, {hi})"),
        }
    }
}

/// A measured value: a count without decimals, a ratio with three.
fn value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// The outcome of checking a list of claims.
#[derive(Debug, Default)]
pub struct ClaimReport {
    /// One row per claim: id, paper, measured, bound, margin, verdict.
    pub table: String,
    /// Claims that hold.
    pub passed: usize,
    /// Ids of the claims that fail.
    pub failed: Vec<&'static str>,
    /// Claims not evaluated because `ctx.refs` is below their
    /// `min_refs`.
    pub skipped: usize,
}

/// Checks `claims` in `ctx` and renders one table row per claim. A
/// claim whose `min_refs` exceeds `ctx.refs` is not measured.
#[must_use]
pub fn check_claims(claims: &[Claim], ctx: &Ctx) -> ClaimReport {
    let mut report = ClaimReport::default();
    let rows: Vec<Vec<String>> = claims
        .iter()
        .map(|c| {
            let (measured, margin, verdict) = if c.min_refs > ctx.refs {
                report.skipped += 1;
                let why = format!("not evaluated (needs --refs >= {})", c.min_refs);
                ("-".to_owned(), "-".to_owned(), why)
            } else {
                let v = (c.measure)(ctx);
                let verdict = if c.bound.holds(v) {
                    report.passed += 1;
                    "pass"
                } else {
                    report.failed.push(c.id);
                    "FAIL"
                };
                (value(v), value(c.bound.margin(v)), verdict.to_owned())
            };
            vec![
                c.id.to_owned(),
                c.paper.to_owned(),
                measured,
                c.bound.to_string(),
                margin,
                verdict,
            ]
        })
        .collect();
    let header = ["claim", "paper", "measured", "bound", "margin", "verdict"];
    report.table = render_table(&header, &rows);
    report
}

/// The registry entry named `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Every claim of the registry.
pub fn claims() -> impl Iterator<Item = &'static Claim> {
    EXPERIMENTS.iter().flat_map(|e| e.claims)
}

/// The claim with id `id`.
///
/// # Panics
///
/// Panics when no entry has that claim.
#[must_use]
pub fn claim(id: &str) -> &'static Claim {
    claims()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no claim {id:?} in the registry"))
}

/// A memo slot: filled once, by whichever caller gets there first.
type Slot = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// What the entries render from: the trace length, the sweep cells, and
/// the study results computed so far.
#[derive(Debug)]
pub struct Ctx {
    /// Memory references per simulated (workload, scheme) cell.
    pub refs: u64,
    /// The simulated cells.
    pub sweep: Sweep,
    memo: Mutex<HashMap<&'static str, Slot>>,
}

impl Ctx {
    /// A context over an already simulated sweep.
    #[must_use]
    pub fn new(refs: u64, sweep: Sweep) -> Self {
        Self {
            refs,
            sweep,
            memo: Mutex::default(),
        }
    }

    /// Adds the cells `claims` read that the sweep lacks, simulated in
    /// parallel with [`run_workload`]; each equals its
    /// [`run_sweep`](crate::suite::run_sweep) cell bit for bit.
    #[must_use]
    pub fn with_reads<'a>(mut self, claims: impl IntoIterator<Item = &'a Claim>) -> Self {
        let mut cells: Vec<(&'static Workload, Scheme)> = Vec::new();
        for c in claims {
            for app in c.reads.apps.names() {
                let w = by_name(app).expect("claims read registered workloads");
                for &s in c.reads.schemes {
                    let listed = cells.iter().any(|&(v, t)| v.name == app && t == s);
                    if !listed && self.sweep.get(app, s).is_none() {
                        cells.push((w, s));
                    }
                }
            }
        }
        let results = par_map(&cells, |&(w, s)| run_workload(w, s, self.refs));
        for (&(w, _), result) in cells.iter().zip(results) {
            let cell = Cell {
                workload: w.name,
                non_uniform: w.expected_non_uniform,
                result,
            };
            let row = self.sweep.cells.entry(w.name).or_default();
            row.insert(cell.result.scheme.label(), cell);
        }
        self
    }

    /// The cell of `app` under `scheme`.
    ///
    /// # Panics
    ///
    /// Panics naming the cell when the context lacks it: an entry or a
    /// claim read a cell it did not declare.
    #[must_use]
    pub fn cell(&self, app: &str, scheme: Scheme) -> &RunResult {
        match self.sweep.get(app, scheme) {
            Some(cell) => &cell.result,
            None => panic!("no ({app}, {scheme}) cell: read but not declared"),
        }
    }

    /// Execution time of `app` under `scheme`, normalized to Base (the
    /// y-axis of Figs. 7–10).
    #[must_use]
    pub fn time(&self, app: &str, scheme: Scheme) -> f64 {
        let base = &self.cell(app, Scheme::Base).breakdown;
        self.cell(app, scheme).breakdown.normalized_to(base)
    }

    /// Speedup of `scheme` over Base on `app`.
    #[must_use]
    pub fn speedup(&self, app: &str, scheme: Scheme) -> f64 {
        1.0 / self.time(app, scheme)
    }

    /// L2 misses of `app` under `scheme`, normalized to Base (the y-axis
    /// of Figs. 11/12); `None` when Base has no misses. A zero-miss
    /// baseline has no meaningful normalization, and `0.0` would read as
    /// "the scheme eliminated every miss".
    #[must_use]
    pub fn misses(&self, app: &str, scheme: Scheme) -> Option<f64> {
        let base = self.cell(app, Scheme::Base).l2_misses();
        let mine = self.cell(app, scheme).l2_misses();
        (base > 0).then(|| mine as f64 / base as f64)
    }

    /// The value `make` computes, computed once per context and `key`:
    /// an entry's text, files and claims share one study run. Callers
    /// with different keys compute in parallel.
    ///
    /// # Panics
    ///
    /// Panics when `key` already holds a value of another type.
    pub fn memo<T: Any + Send + Sync>(
        &self,
        key: &'static str,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        let slot = {
            let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(memo.entry(key).or_default())
        };
        let value = slot.get_or_init(|| Arc::new(make()));
        Arc::clone(value)
            .downcast()
            .unwrap_or_else(|_| panic!("memo key {key} holds another type"))
    }
}

/// `f` of every item, computed on the sweep's worker threads, in order.
fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    fan_out(items.len(), available_workers(), |_, i| f(&items[i]))
}

/// Mean of `values` (0 when empty).
fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    sum / n.max(1) as f64
}

/// Maximum of `values` (negative infinity when empty).
fn max(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

/// Minimum of `values` (infinity when empty).
fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Feeds `refs` references of `workload` into a bare cache (no L1, no
/// timing) and returns its statistics.
fn feed<'c, C: CacheSim + ?Sized>(
    cache: &'c mut C,
    workload: &Workload,
    refs: u64,
) -> &'c CacheStats {
    for ev in workload.trace(refs) {
        if let Some(addr) = ev.addr() {
            cache.access(addr, matches!(ev, Event::Store { .. }));
        }
    }
    cache.stats()
}

/// Number of strided accesses behind every stride metric (a multiple of
/// the 2048-set geometry so ideal balance is attainable).
pub const METRIC_ACCESSES: usize = 8192;

/// Balance above this is non-ideal (Eq. 1; ideal is 1).
pub const NON_IDEAL_BALANCE: f64 = 1.05;

/// Concentration above this is non-ideal (Eq. 2; ideal is 0).
pub const NON_IDEAL_CONCENTRATION: f64 = 1.0;

/// The §2 metrics of one strided pattern.
#[derive(Debug, Clone, Copy)]
pub struct StridePoint {
    /// Stride in blocks.
    pub stride: u64,
    /// Balance (Eq. 1).
    pub balance: f64,
    /// Concentration (Eq. 2).
    pub concentration: f64,
}

/// Balance and concentration of the [`METRIC_ACCESSES`]-long strided
/// pattern of every stride in `1..=max_stride` under `indexer`, both from
/// one pass over each pattern.
pub fn stride_sweep(indexer: &dyn SetIndexer, max_stride: u64) -> Vec<StridePoint> {
    (1..=max_stride)
        .map(|stride| {
            let mut m = OnlineMetrics::new(indexer.n_set());
            for addr in strided_addresses(stride, METRIC_ACCESSES) {
                m.observe(indexer, addr);
            }
            StridePoint {
                stride,
                balance: m.balance(),
                concentration: m.concentration(),
            }
        })
        .collect()
}

/// Strides whose balance is non-ideal (above [`NON_IDEAL_BALANCE`]).
#[must_use]
pub fn non_ideal_balance(points: &[StridePoint]) -> usize {
    points
        .iter()
        .filter(|p| p.balance > NON_IDEAL_BALANCE)
        .count()
}

/// Strides whose concentration is non-ideal (above
/// [`NON_IDEAL_CONCENTRATION`]).
#[must_use]
pub fn non_ideal_concentration(points: &[StridePoint]) -> usize {
    points
        .iter()
        .filter(|p| p.concentration > NON_IDEAL_CONCENTRATION)
        .count()
}

/// Fraction of sets carrying `share` of all misses — the Fig. 13a claim
/// ("the vast majority of cache misses … concentrated in about 10% of the
/// sets").
#[must_use]
pub fn sets_carrying_share(set_misses: &[u64], share: f64) -> f64 {
    let total: u64 = set_misses.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = set_misses.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let target = (total as f64 * share) as u64;
    let mut acc = 0u64;
    let mut sets = 0usize;
    for m in sorted {
        if acc >= target {
            break;
        }
        acc += m;
        sets += 1;
    }
    sets as f64 / set_misses.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::run_sweep;

    #[test]
    fn names_and_claim_ids_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        let mut ids: Vec<&str> = claims().map(|c| c.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn every_paper_artifact_has_an_entry() {
        let tables = ["table1", "table2", "table3", "table4"];
        let figs = [
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        ];
        for name in tables
            .into_iter()
            .chain(figs)
            .chain(["fig13", "theorem1", "classify"])
        {
            assert!(find(name).is_some(), "{name}");
        }
    }

    #[test]
    fn claims_read_only_their_entry_schemes() {
        for e in &EXPERIMENTS {
            for c in e.claims {
                assert!(c.id.starts_with(&format!("{}.", e.name)), "{}", c.id);
                for s in c.reads.schemes {
                    assert!(e.schemes.contains(s), "{} reads {s}", c.id);
                }
            }
        }
    }

    #[test]
    fn sweep_entries_render_from_exactly_their_declared_schemes() {
        // A strict context panics on an undeclared cell, so an entry
        // that reads a scheme it does not declare fails here.
        for e in EXPERIMENTS.iter().filter(|e| !e.schemes.is_empty()) {
            let ctx = Ctx::new(2_000, run_sweep(e.schemes, 2_000));
            assert!(!(e.text)(&ctx).is_empty(), "{}", e.name);
            for (path, render) in e.files {
                assert!(!render(&ctx).is_empty(), "{path}");
            }
            for c in e.claims {
                let _ = (c.measure)(&ctx);
            }
        }
    }

    #[test]
    fn claims_below_their_scale_are_not_evaluated() {
        let fig13 = find("fig13").unwrap();
        let report = check_claims(fig13.claims, &Ctx::new(1_000, Sweep::default()));
        assert_eq!(report.skipped, fig13.claims.len());
        assert_eq!((report.passed, report.failed.len()), (0, 0));
        assert!(report.table.contains("not evaluated"));
    }

    #[test]
    fn bounds_hold_inside_and_measure_their_margin() {
        assert!(Bound::Above(1.5).holds(1.6) && !Bound::Above(1.5).holds(1.5));
        assert!(Bound::AtMost(2.0).holds(2.0) && !Bound::AtMost(2.0).holds(2.5));
        assert!(Bound::Between(0.9, 1.2).holds(1.0) && !Bound::Between(0.9, 1.2).holds(1.2));
        assert!(!Bound::Exactly(0.0).holds(f64::NAN));
        assert!((Bound::Below(1.05).margin(1.0) - 0.05).abs() < 1e-12);
        assert_eq!(Bound::Exactly(3.0).margin(5.0), -2.0);
        assert_eq!(Bound::AtLeast(0.95).to_string(), ">= 0.95");
    }

    #[test]
    fn memo_computes_once_per_key() {
        let ctx = Ctx::new(0, Sweep::default());
        let runs = std::sync::atomic::AtomicUsize::new(0);
        let make = || {
            runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            7u32
        };
        assert_eq!(*ctx.memo("k", make), 7);
        assert_eq!(*ctx.memo("k", make), 7);
        assert_eq!(runs.into_inner(), 1);
    }

    #[test]
    fn base_normalizes_to_one() {
        let ctx = Ctx::new(5_000, run_sweep(&[Scheme::Base], 5_000));
        for w in ["swim", "tree", "mcf"] {
            let n = ctx.time(w, Scheme::Base);
            assert!((n - 1.0).abs() < 1e-12, "{w}: {n}");
        }
    }

    #[test]
    fn normalized_misses_is_none_on_zero_miss_baseline() {
        // A baseline with zero misses must yield None, not a silent 0.0
        // that reads as "every miss eliminated".
        let mut sweep = run_sweep(&[Scheme::Base, Scheme::Xor], 4_000);
        let row = sweep.cells.get_mut("tree").expect("tree row");
        let base = &mut row.get_mut(Scheme::Base.label()).expect("Base cell").result;
        base.l2.misses = 0;
        base.l2.hits = base.l2.accesses;
        let ctx = Ctx::new(4_000, sweep);
        assert_eq!(ctx.misses("tree", Scheme::Xor), None);
        assert!(ctx.misses("swim", Scheme::Xor).is_some());
    }

    #[test]
    fn sets_carrying_share_handles_empty() {
        assert_eq!(sets_carrying_share(&[0, 0, 0], 0.9), 0.0);
    }
}
