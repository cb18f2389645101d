//! Registry entries for the paper's own artifacts: Tables 1–4,
//! Theorem 1, the §4 classification and Figs. 5–13.
//!
//! The entries are data tables laid out by hand, one claim per few
//! lines, like the CLI's command table.

use std::fmt::Write as _;
use std::sync::Arc;

use primecache_core::hw::{theorem1_iterations, IterativeLinear};
use primecache_core::index::{Geometry, HashKind};
use primecache_core::metrics::{
    is_non_uniform, strided_addresses, uniformity_ratio, violation_fraction,
};
use primecache_primes::frag::table1;
use primecache_primes::gcd;
use primecache_viz::{BarChart, BarGroup, LineChart, Series};
use primecache_workloads::{all, non_uniform_names, uniform_names};

use super::{
    max, mean, min, non_ideal_balance, non_ideal_concentration, par_map, sets_carrying_share,
    stride_sweep, Apps, Bound, Claim, Ctx, Experiment, Reads, StridePoint, METRIC_ACCESSES,
    NON_IDEAL_CONCENTRATION,
};
use crate::export::{distribution_csv, stride_csv, table_csv};
use crate::report::{f2, f3, render_table, sparkline};
use crate::{MachineConfig, Scheme};

use Apps::{NonUniform, Only, Uniform};
use Bound::{Above, AtLeast, AtMost, Below, Between, Exactly};
use Scheme::{
    Base, EightWay, FullyAssociative as Fa, PrimeDisplacement as PDisp, PrimeModulo as PMod,
    Skewed as Skw, SkewedPrimeDisplacement as SkwPDisp, Xor,
};

/// Table 1's and Theorem 1's claims, and the stride claims of Figs.
/// 5/6, do not depend on the trace length.
const EXACT: u64 = 0;
/// Group-average claims hold from this trace length on.
const SWEEP_REFS: u64 = 60_000;
/// Claims on conflict build-up need steady state.
const STEADY_REFS: u64 = 160_000;

/// Largest stride of Figs. 5 and 6.
const MAX_STRIDE: u64 = 2047;

const SINGLE: [Scheme; 5] = Scheme::SINGLE_HASH;
const MULTI: [Scheme; 4] = Scheme::MULTI_HASH;
const MISSES: [Scheme; 5] = Scheme::MISS_REDUCTION;

/// The cells `schemes` × `apps`.
const fn on(apps: Apps, schemes: &'static [Scheme]) -> Reads {
    Reads { apps, schemes }
}

#[rustfmt::skip]
pub(super) const TABLE1: Experiment = Experiment {
    name: "table1", title: "Table 1: prime modulo set fragmentation",
    schemes: &[], text: table1_text, files: &[],
    claims: &[
        Claim { id: "table1.matches-paper", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "7 rows: 256 -> 251 (1.95%) ... 16384 -> 16381 (0.02%)",
                measure: table1_mismatches, bound: Exactly(0.0) },
    ],
};

fn table1_text(_: &Ctx) -> String {
    let rows: Vec<Vec<String>> = table1()
        .iter()
        .map(|r| {
            let pct = format!("{:.2}%", r.fragmentation_pct());
            vec![r.n_set_phys.to_string(), r.n_set.to_string(), pct]
        })
        .collect();
    render_table(&["n_set_phys", "n_set", "Fragmentation (%)"], &rows)
}

/// Rows of Table 1 that differ from the paper's.
fn table1_mismatches(_: &Ctx) -> f64 {
    const PAPER: [(u64, u64, &str); 7] = [
        (256, 251, "1.95"),
        (512, 509, "0.59"),
        (1024, 1021, "0.29"),
        (2048, 2039, "0.44"),
        (4096, 4093, "0.07"),
        (8192, 8191, "0.01"),
        (16384, 16381, "0.02"),
    ];
    let ours = table1();
    let differ = PAPER.iter().zip(&ours).filter(|((phys, set, pct), r)| {
        (r.n_set_phys, r.n_set) != (*phys, *set) || format!("{:.2}", r.fragmentation_pct()) != *pct
    });
    let differ = differ.count();
    (differ + PAPER.len().abs_diff(ours.len())) as f64
}

#[rustfmt::skip]
pub(super) const THEOREM1: Experiment = Experiment {
    name: "theorem1", title: "Theorem 1: iterations of the iterative linear method (64-B lines)",
    schemes: &[], text: theorem1_text, files: &[],
    claims: &[
        Claim { id: "theorem1.32-bit-2048-sets", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "2 iterations (32-bit, 2048 sets)",
                measure: |_| f64::from(theorem1_iterations(32, 64, 2048, 0)),
                bound: Exactly(2.0) },
        Claim { id: "theorem1.64-bit-3-input-selector", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "6 iterations (64-bit, 3-input selector)",
                measure: |_| f64::from(theorem1_iterations(64, 64, 2048, 0)),
                bound: Exactly(6.0) },
        Claim { id: "theorem1.64-bit-258-input-selector", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "3 iterations (64-bit, 258-input selector)",
                measure: |_| f64::from(theorem1_iterations(64, 64, 2048, 8)),
                bound: Exactly(3.0) },
    ],
};

/// Worst iteration count of the bit-level unit over `bits`-wide block
/// addresses: all-ones values of decreasing width are the worst cases.
fn measured_worst(geom: Geometry, t: u32, bits: u32) -> u32 {
    let unit = IterativeLinear::new(geom, t);
    let mut v = u64::MAX >> (64 - bits.min(64));
    let mut worst = 0;
    while v > 0 {
        worst = worst.max(unit.reduce_with_cost(v).1.iterations);
        v >>= 1;
    }
    worst
}

fn theorem1_text(_: &Ctx) -> String {
    let machines = [
        (32u32, 2048u64, 0u32),
        (32, 2048, 8),
        (64, 2048, 0),
        (64, 2048, 8),
        (32, 8192, 0),
        (64, 8192, 0),
        (64, 16384, 0),
    ];
    let rows: Vec<Vec<String>> = machines
        .into_iter()
        .map(|(b, phys, t)| {
            // The block address drops the 64-B line offset.
            let measured = measured_worst(Geometry::new(phys), t, b - 6);
            vec![
                format!("{b}-bit"),
                phys.to_string(),
                format!("{} inputs", (1u32 << t) + 2),
                theorem1_iterations(b, 64, phys, t).to_string(),
                measured.to_string(),
            ]
        })
        .collect();
    let header = [
        "machine",
        "n_set_phys",
        "selector",
        "Theorem 1 bound",
        "model (Eq. 3, terminal selector)",
    ];
    render_table(&header, &rows)
}

#[rustfmt::skip]
pub(super) const TABLE2: Experiment = Experiment {
    name: "table2", title: "Table 2: qualitative comparison of hashing functions (measured)",
    schemes: &[], text: table2_text, files: &[], claims: &[],
};

/// Every qualitative cell of Table 2 measured over strides 1..=1024.
fn table2_text(_: &Ctx) -> String {
    let geom = Geometry::new(2048);
    let mut rows = Vec::new();
    for kind in HashKind::ALL {
        let idx = kind.build(geom);
        let ideal = 1024 - non_ideal_balance(&stride_sweep(idx.as_ref(), 1024));
        let addrs = |s| strided_addresses(s, METRIC_ACCESSES);
        let worst = max((1..=1024).map(|s| violation_fraction(idx.as_ref(), &addrs(s)))).max(0.0);
        let invariance = if worst == 0.0 {
            "Yes"
        } else if worst < 0.05 {
            "Partial"
        } else {
            "No"
        };
        let condition = match kind {
            HashKind::Traditional => "s odd",
            HashKind::Xor => "various",
            HashKind::PrimeModulo => "all s except k*n_set",
            HashKind::PrimeDisplacement => "most odd, all even s",
            HashKind::Expr(_) => unreachable!("HashKind::ALL lists only built-in kinds"),
        };
        let ideal = format!("{:.0}% of strides", ideal as f64 / 1024.0 * 100.0);
        // Every function has a hw model in crates/core/src/hw, and none
        // restricts the replacement policy.
        let cells = [
            kind.label(),
            condition,
            ideal.as_str(),
            invariance,
            "Yes",
            "No",
        ];
        rows.push(cells.map(str::to_owned).to_vec());
    }
    // The skewed rows: no single-function balance condition; pseudo-LRU
    // replacement restriction applies.
    for label in ["SKW", "skw+pDisp"] {
        let cells = [label, "none", "n/a (multi-bank)", "No", "Yes", "Yes"];
        rows.push(cells.map(str::to_owned).to_vec());
    }
    let header = [
        "scheme",
        "ideal balance condition",
        "ideal balance (measured)",
        "sequence invariant (measured)",
        "simple hw impl.",
        "replacement restriction",
    ];
    let mut out = render_table(&header, &rows);
    out += "\nProperty 1 spot check (modulo hashing): ideal balance iff gcd(s, n_set) = 1\n";
    for (n_set, label) in [(2048u64, "Base"), (2039, "pMod")] {
        let coprime = (1..=1024u64).filter(|&s| gcd(s, n_set) == 1).count();
        _ = writeln!(
            out,
            "  {label}: {coprime}/1024 strides coprime with {n_set}"
        );
    }
    out
}

#[rustfmt::skip]
pub(super) const CLASSIFY: Experiment = Experiment {
    name: "classify", title: "Section 4: uniformity of the L2 set accesses under Base",
    schemes: &[Base], text: classify_text, files: &[],
    claims: &[
        Claim { id: "classify.matches-paper", min_refs: STEADY_REFS,
                reads: on(Apps::All, &[Base]),
                paper: "7 non-uniform, 16 uniform apps (the paper's grouping)",
                measure: misclassified_apps, bound: Exactly(0.0) },
    ],
};

fn non_uniform(ctx: &Ctx, app: &str) -> bool {
    is_non_uniform(&ctx.cell(app, Base).l2.set_accesses)
}

fn misclassified(ctx: &Ctx, app: &str) -> bool {
    let paper = all()
        .iter()
        .any(|w| w.name == app && w.expected_non_uniform);
    non_uniform(ctx, app) != paper
}

/// Applications the measured uniformity puts in the other group than
/// the paper does.
fn misclassified_apps(ctx: &Ctx) -> f64 {
    all().iter().filter(|w| misclassified(ctx, w.name)).count() as f64
}

fn classify_text(ctx: &Ctx) -> String {
    let rows: Vec<Vec<String>> = all()
        .iter()
        .map(|w| {
            let cv = uniformity_ratio(&ctx.cell(w.name, Base).l2.set_accesses);
            let class = if non_uniform(ctx, w.name) {
                "non-uniform"
            } else {
                "uniform"
            };
            let verdict = if misclassified(ctx, w.name) {
                "MISMATCH"
            } else {
                "="
            };
            [w.name, format!("{cv:.3}").as_str(), class, verdict]
                .map(str::to_owned)
                .to_vec()
        })
        .collect();
    render_table(&["app", "stdev/mean", "class", "vs paper"], &rows)
}

#[rustfmt::skip]
pub(super) const TABLE3: Experiment = Experiment {
    name: "table3", title: "Table 3: parameters of the simulated architecture",
    schemes: &[], text: table3_text, files: &[], claims: &[],
};

fn table3_text(_: &Ctx) -> String {
    let m = MachineConfig::paper_default();
    let (cpu, mem) = (&m.cpu, &m.mem);
    format!(
        "PROCESSOR\n  {}-issue dynamic. 1.6 GHz. Pending ld, st: {}, {}. \
         Branch penalty: {} cycles\nMEMORY\n  \
         L1 data: write-back, 16 KB, 2 way, 32-B line, {}-cycle hit RT\n  \
         L2 data: write-back, {} KB, 4 way, {}-B line, {}-cycle hit RT\n  \
         RT memory latency: {} cycles (row miss), {} cycles (row hit)\n  \
         Memory bus: split-transaction, {} B, 400 MHz, 3.2 GB/sec peak \
         ({} cycles per 64-B line)\n  \
         DRAM: {} channels x {} banks, {}-B rows\n",
        cpu.issue_width,
        cpu.max_pending_loads,
        cpu.max_pending_stores,
        cpu.branch_penalty,
        cpu.l1_hit_cycles,
        m.l2_size / 1024,
        m.l2_line,
        cpu.l2_hit_cycles,
        mem.row_miss_cycles,
        mem.row_hit_cycles,
        mem.bus_bytes,
        mem.bus_occupancy_cycles(),
        mem.channels,
        mem.banks_per_channel,
        mem.row_bytes
    )
}

#[rustfmt::skip]
pub(super) const FIG5: Experiment = Experiment {
    name: "fig5", title: "Fig. 5: balance vs block stride (2048-set geometry, ideal = 1.0)",
    schemes: &[], text: |ctx| stride_text(&strides(ctx), true),
    files: &[
        ("fig5.svg", fig5_svg),
        ("csv/fig5_Base.csv", |ctx| stride_csv(&strides(ctx)[BASE_CURVE], BALANCE)),
        ("csv/fig5_XOR.csv", |ctx| stride_csv(&strides(ctx)[XOR_CURVE], BALANCE)),
        ("csv/fig5_pMod.csv", |ctx| stride_csv(&strides(ctx)[PMOD_CURVE], BALANCE)),
        ("csv/fig5_pDisp.csv", |ctx| stride_csv(&strides(ctx)[PDISP_CURVE], BALANCE)),
    ],
    claims: &[
        Claim { id: "fig5.base-ideal-on-odd-strides", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "Base: ideal balance on odd strides",
                measure: |ctx| max(over(ctx, BASE_CURVE, odd, BALANCE)), bound: Below(1.01) },
        Claim { id: "fig5.base-bad-on-even-strides", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "Base: non-ideal balance on even strides",
                measure: |ctx| min(over(ctx, BASE_CURVE, even, BALANCE)), bound: Above(1.2) },
        Claim { id: "fig5.pmod-bad-only-at-its-prime", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "pMod: ideal balance on every stride but n_set (2039)",
                measure: |ctx| max(over(ctx, PMOD_CURVE, off_its_prime, BALANCE)),
                bound: Below(1.02) },
        Claim { id: "fig5.xor-pdisp-mostly-ideal", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "XOR, pDisp: ideal balance on most strides",
                measure: xor_pdisp_bad_balance_share, bound: Below(0.5) },
    ],
};

fn fig5_svg(ctx: &Ctx) -> String {
    let y = "balance (ideal 1)";
    let chart = LineChart::new("Fig. 5: balance vs stride", "stride (blocks)", y);
    line_svg(chart.with_y_cap(10.0), &strides(ctx), BALANCE)
}

/// Share of the strides on which XOR or pDisp, whichever has more, has
/// non-ideal balance.
fn xor_pdisp_bad_balance_share(ctx: &Ctx) -> f64 {
    let c = strides(ctx);
    let worse = non_ideal_balance(&c[XOR_CURVE]).max(non_ideal_balance(&c[PDISP_CURVE]));
    worse as f64 / MAX_STRIDE as f64
}

#[rustfmt::skip]
pub(super) const FIG6: Experiment = Experiment {
    name: "fig6", title: "Fig. 6: concentration vs block stride (2048-set geometry, ideal = 0)",
    schemes: &[], text: |ctx| stride_text(&strides(ctx), false),
    files: &[
        ("fig6.svg", fig6_svg),
        ("csv/fig6_Base.csv", |ctx| stride_csv(&strides(ctx)[BASE_CURVE], CONCENTRATION)),
        ("csv/fig6_XOR.csv", |ctx| stride_csv(&strides(ctx)[XOR_CURVE], CONCENTRATION)),
        ("csv/fig6_pMod.csv", |ctx| stride_csv(&strides(ctx)[PMOD_CURVE], CONCENTRATION)),
        ("csv/fig6_pDisp.csv", |ctx| stride_csv(&strides(ctx)[PDISP_CURVE], CONCENTRATION)),
    ],
    claims: &[
        Claim { id: "fig6.base-even-strides-only", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "Base: non-ideal exactly on the even strides",
                measure: base_concentration_off_even_strides, bound: Exactly(0.0) },
        Claim { id: "fig6.pmod-bad-only-at-its-prime", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "pMod: ideal concentration (0) on every stride but n_set (2039)",
                measure: |ctx| max(over(ctx, PMOD_CURVE, off_its_prime, CONCENTRATION)),
                bound: Below(1e-9) },
        Claim { id: "fig6.xor-bad-on-most-small-strides", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "XOR: non-ideal on many strides (counted in 1..=64)",
                measure: |ctx| non_ideal_concentration(&strides(ctx)[XOR_CURVE][..64]) as f64,
                bound: Above(32.0) },
        Claim { id: "fig6.xor-pdisp-worse-than-base", min_refs: EXACT, reads: Reads::NOTHING,
                paper: "XOR, pDisp: non-ideal on more strides than Base",
                measure: xor_pdisp_extra_bad_concentration, bound: Above(0.0) },
    ],
};

fn fig6_svg(ctx: &Ctx) -> String {
    let y = "concentration (ideal 0)";
    let chart = LineChart::new("Fig. 6: concentration vs stride", "stride (blocks)", y);
    line_svg(chart, &strides(ctx), CONCENTRATION)
}

/// Strides on which Base's concentration is non-ideal although the
/// stride is odd, or ideal although it is even.
fn base_concentration_off_even_strides(ctx: &Ctx) -> f64 {
    let misplaced =
        |p: &&StridePoint| (p.concentration > NON_IDEAL_CONCENTRATION) != even(p.stride);
    strides(ctx)[BASE_CURVE].iter().filter(misplaced).count() as f64
}

/// How many more strides of non-ideal concentration XOR and pDisp (the
/// better of the two) have than Base, in the first 256 strides or in
/// all of them, whichever margin is smaller.
fn xor_pdisp_extra_bad_concentration(ctx: &Ctx) -> f64 {
    let c = strides(ctx);
    let extra = |n: usize| {
        let bad = |k: usize| non_ideal_concentration(&c[k][..n]) as f64;
        bad(XOR_CURVE).min(bad(PDISP_CURVE)) - bad(BASE_CURVE)
    };
    extra(256).min(extra(MAX_STRIDE as usize))
}

/// The stride sweeps behind Figs. 5 and 6 over the paper's
/// 2048-physical-set L2, one per [`HashKind::ALL`] entry.
fn strides(ctx: &Ctx) -> Arc<Vec<Vec<StridePoint>>> {
    let geom = Geometry::new(2048);
    ctx.memo("fig5_fig6", || {
        par_map(&HashKind::ALL, |&k| {
            stride_sweep(k.build(geom).as_ref(), MAX_STRIDE)
        })
    })
}

/// Positions of the Fig. 5/6 curves in [`HashKind::ALL`].
const BASE_CURVE: usize = 0;
const XOR_CURVE: usize = 1;
const PMOD_CURVE: usize = 2;
const PDISP_CURVE: usize = 3;

/// Fig. 5's metric.
const BALANCE: fn(&StridePoint) -> f64 = |p| p.balance;
/// Fig. 6's metric.
const CONCENTRATION: fn(&StridePoint) -> f64 = |p| p.concentration;

/// `metric` of the Fig. 5/6 curve `k` on the strides `at` selects.
fn over(ctx: &Ctx, k: usize, at: fn(u64) -> bool, metric: fn(&StridePoint) -> f64) -> Vec<f64> {
    strides(ctx)[k]
        .iter()
        .filter(|p| at(p.stride))
        .map(metric)
        .collect()
}

fn odd(stride: u64) -> bool {
    !even(stride)
}

fn even(stride: u64) -> bool {
    stride.is_multiple_of(2)
}

/// Every stride but the multiples of pMod's modulus, 2039.
fn off_its_prime(stride: u64) -> bool {
    !stride.is_multiple_of(2039)
}

/// Fig. 5 (balance) or Fig. 6 (concentration) as text: sampled values,
/// sparklines and per-function summaries. Fig. 5 caps balance at 10 as
/// the paper does.
fn stride_text(curves: &[Vec<StridePoint>], is_balance: bool) -> String {
    let (metric, hi) = if is_balance {
        (BALANCE, 10.0)
    } else {
        (CONCENTRATION, 2048.0)
    };
    let mut out = String::from("stride  ");
    for k in HashKind::ALL {
        _ = write!(out, "{:>8}", k.label());
    }
    out.push('\n');
    // An odd sampling step mixes even and odd strides (a step of 16
    // would show only odd strides, hiding the Base pathology).
    for i in (0..MAX_STRIDE as usize).step_by(13) {
        _ = write!(out, "{:>6}  ", curves[0][i].stride);
        for pts in curves {
            if is_balance {
                _ = write!(out, "{:>8.2}", metric(&pts[i]).min(10.0));
            } else {
                _ = write!(out, "{:>8.0}", metric(&pts[i]));
            }
        }
        out.push('\n');
    }
    _ = writeln!(out, "\nSketch (stride 1..{MAX_STRIDE}, downsampled):");
    for (k, pts) in HashKind::ALL.iter().zip(curves) {
        let vals: Vec<f64> = pts.iter().step_by(13).map(metric).collect();
        _ = writeln!(out, "  {:>6} |{}|", k.label(), sparkline(&vals, 0.0, hi));
    }
    let cap = if is_balance {
        " (value capped at 10 as in the paper)"
    } else {
        ""
    };
    _ = writeln!(out, "\nSummary over all {MAX_STRIDE} strides{cap}:");
    for (k, pts) in HashKind::ALL.iter().zip(curves) {
        let label = k.label();
        if is_balance {
            let (bad, worst) = (non_ideal_balance(pts), max(pts.iter().map(metric)).max(0.0));
            let worst = worst.min(10.0);
            _ = writeln!(
                out,
                "  {label:>6}: {bad} strides with non-ideal balance, worst {worst:.1}"
            );
        } else {
            let (bad, avg) = (non_ideal_concentration(pts), mean(pts.iter().map(metric)));
            _ = writeln!(
                out,
                "  {label:>6}: {bad} strides with non-ideal concentration, mean {avg:.0}"
            );
        }
    }
    out
}

fn line_svg(
    mut chart: LineChart,
    curves: &[Vec<StridePoint>],
    metric: fn(&StridePoint) -> f64,
) -> String {
    for (k, pts) in HashKind::ALL.iter().zip(curves) {
        let pts = pts.iter().map(|p| (p.stride as f64, metric(p))).collect();
        chart = chart.with_series(Series::new(k.label(), pts));
    }
    chart.render(760, 420)
}

#[rustfmt::skip]
pub(super) const FIG7: Experiment = Experiment {
    name: "fig7", title: "Fig. 7: single hashing functions, non-uniform applications",
    schemes: &SINGLE, text: |ctx| stacked_times_text(ctx, &SINGLE, &non_uniform_names()),
    files: &[
        ("fig7.svg", fig7_svg),
        ("csv/fig7.csv",
         |ctx| table_csv(&SINGLE, &non_uniform_names(), |a, s| Some(ctx.time(a, s)))),
    ],
    claims: &[
        Claim { id: "fig7.prime-beats-xor", min_refs: SWEEP_REFS,
                reads: on(NonUniform, &[Base, Xor, PMod, PDisp]),
                paper: "avg speedup pMod, pDisp 1.27 > XOR 1.21 (margin 0.06)",
                measure: prime_over_xor, bound: Above(0.0) },
        Claim { id: "fig7.tree-speedup", min_refs: STEADY_REFS,
                reads: on(Only(&["tree"]), &[Base, PMod]),
                paper: "tree 2.34x under pMod (Table 4 max)",
                measure: |ctx| ctx.speedup("tree", PMod), bound: Above(1.5) },
        Claim { id: "fig7.bt-eight-way-gain", min_refs: STEADY_REFS,
                reads: on(Only(&["bt"]), &[Base, EightWay]),
                paper: "8-way is no substitute (Section 5.2)",
                measure: |ctx| ctx.speedup("bt", EightWay), bound: Below(1.1) },
        Claim { id: "fig7.bt-pmod-over-eight-way", min_refs: STEADY_REFS,
                reads: on(Only(&["bt"]), &[Base, EightWay, PMod]),
                paper: "pMod gains far more than 8-way on bt",
                measure: |ctx| ctx.speedup("bt", PMod) - ctx.speedup("bt", EightWay),
                bound: Above(0.2) },
    ],
};

fn fig7_svg(ctx: &Ctx) -> String {
    let title = "Fig. 7: single hash, non-uniform apps";
    time_bars(ctx, &SINGLE, &non_uniform_names(), title)
}

/// How far the worse prime scheme's average non-uniform speedup is
/// above XOR's.
fn prime_over_xor(ctx: &Ctx) -> f64 {
    let avg = |s| avg_speedup(ctx, NonUniform, s);
    avg(PMod).min(avg(PDisp)) - avg(Xor)
}

#[rustfmt::skip]
pub(super) const FIG8: Experiment = Experiment {
    name: "fig8", title: "Fig. 8: single hashing functions, uniform applications",
    schemes: &SINGLE, text: |ctx| times_text(ctx, &SINGLE, &uniform_names()),
    files: &[
        ("fig8.svg", fig8_svg),
        ("csv/fig8.csv", |ctx| table_csv(&SINGLE, &uniform_names(), |a, s| Some(ctx.time(a, s)))),
    ],
    claims: &[
        Claim { id: "fig8.pmod-worst-uniform-time", min_refs: SWEEP_REFS,
                reads: on(Uniform, &[Base, PMod]),
                paper: "worst uniform slowdown ~2% (1.02)",
                measure: |ctx| max(uniform_names().iter().map(|a| ctx.time(a, PMod))),
                bound: Below(1.05) },
        Claim { id: "fig8.prime-safe-on-sampled-apps", min_refs: SWEEP_REFS,
                reads: on(Only(&SAMPLED_UNIFORM), &[Base, PMod, PDisp]),
                paper: "pMod, pDisp slow no uniform app by > ~2-3%",
                measure: sampled_prime_worst_time, bound: Below(1.05) },
    ],
};

fn fig8_svg(ctx: &Ctx) -> String {
    let title = "Fig. 8: single hash, uniform apps";
    time_bars(ctx, &SINGLE, &uniform_names(), title)
}

/// Uniform applications whose pMod and pDisp times are checked alone.
const SAMPLED_UNIFORM: [&str; 5] = ["swim", "lu", "is", "parser", "gap"];

/// The worst pMod or pDisp time on [`SAMPLED_UNIFORM`].
fn sampled_prime_worst_time(ctx: &Ctx) -> f64 {
    let times = |a| [ctx.time(a, PMod), ctx.time(a, PDisp)];
    max(SAMPLED_UNIFORM.into_iter().flat_map(times))
}

#[rustfmt::skip]
pub(super) const FIG9: Experiment = Experiment {
    name: "fig9", title: "Fig. 9: multiple hashing functions, non-uniform applications",
    schemes: &MULTI, text: |ctx| stacked_times_text(ctx, &MULTI, &non_uniform_names()),
    files: &[
        ("fig9.svg", fig9_svg),
        ("csv/fig9.csv",
         |ctx| table_csv(&MULTI, &non_uniform_names(), |a, s| Some(ctx.time(a, s)))),
    ],
    claims: &[
        Claim { id: "fig9.skw-pdisp-vs-pmod", min_refs: SWEEP_REFS,
                reads: on(NonUniform, &[Base, PMod, SkwPDisp]),
                paper: "avg speedup skw+pDisp 1.35 / pMod 1.27 = 1.06",
                measure: skw_pdisp_over_pmod, bound: AtLeast(0.95) },
        Claim { id: "fig9.mst-single-hash-flat", min_refs: SWEEP_REFS,
                reads: on(Only(&["mst"]), &[Base, PMod]),
                paper: "only skewed schemes speed up mst (Section 5.3)",
                measure: |ctx| ctx.time("mst", PMod), bound: Above(0.95) },
        Claim { id: "fig9.mst-skewing-helps", min_refs: SWEEP_REFS,
                reads: on(Only(&["mst"]), &[Base, Skw]),
                paper: "SKW speeds up mst",
                measure: |ctx| ctx.time("mst", Skw), bound: Below(0.9) },
    ],
};

fn fig9_svg(ctx: &Ctx) -> String {
    let title = "Fig. 9: multi hash, non-uniform apps";
    time_bars(ctx, &MULTI, &non_uniform_names(), title)
}

/// skw+pDisp's average non-uniform speedup relative to pMod's.
fn skw_pdisp_over_pmod(ctx: &Ctx) -> f64 {
    avg_speedup(ctx, NonUniform, SkwPDisp) / avg_speedup(ctx, NonUniform, PMod)
}

#[rustfmt::skip]
pub(super) const FIG10: Experiment = Experiment {
    name: "fig10", title: "Fig. 10: multiple hashing functions, uniform applications",
    schemes: &MULTI, text: |ctx| times_text(ctx, &MULTI, &uniform_names()),
    files: &[
        ("fig10.svg", fig10_svg),
        ("csv/fig10.csv", |ctx| table_csv(&MULTI, &uniform_names(), |a, s| Some(ctx.time(a, s)))),
    ],
    claims: &[
        Claim { id: "fig10.bzip2-skewed-slowdown", min_refs: STEADY_REFS,
                reads: on(Only(&["bzip2"]), &[Base, SkwPDisp]),
                paper: "skw+pDisp slows bzip2 (up to 1.07)",
                measure: |ctx| ctx.time("bzip2", SkwPDisp), bound: Above(1.005) },
        Claim { id: "fig10.bzip2-pmod-safe", min_refs: STEADY_REFS,
                reads: on(Only(&["bzip2"]), &[Base, PMod]),
                paper: "pMod is safe on bzip2",
                measure: |ctx| ctx.time("bzip2", PMod), bound: Below(1.01) },
    ],
};

fn fig10_svg(ctx: &Ctx) -> String {
    let title = "Fig. 10: multi hash, uniform apps";
    time_bars(ctx, &MULTI, &uniform_names(), title)
}

#[rustfmt::skip]
pub(super) const TABLE4: Experiment = Experiment {
    name: "table4", title: "Table 4: summary of the performance improvement",
    schemes: &[Base, Xor, PMod, PDisp, Skw, SkwPDisp], text: table4_text, files: &[],
    claims: &[
        Claim { id: "table4.pmod-non-uniform-avg", min_refs: SWEEP_REFS,
                reads: on(NonUniform, &[Base, PMod]),
                paper: "pMod avg speedup 1.27 (non-uniform)",
                measure: |ctx| avg_speedup(ctx, NonUniform, PMod), bound: Above(1.15) },
        Claim { id: "table4.pmod-uniform-avg", min_refs: SWEEP_REFS,
                reads: on(Uniform, &[Base, PMod]),
                paper: "uniform apps stay near 1.0 under pMod",
                measure: |ctx| avg_speedup(ctx, Uniform, PMod), bound: Between(0.9, 1.2) },
        Claim { id: "table4.pmod-pathological", min_refs: SWEEP_REFS,
                reads: on(Apps::All, &[Base, PMod]),
                paper: "pMod: 1 pathological case",
                measure: |ctx| pathological(ctx, PMod) as f64,
                bound: AtMost(2.0) },
        Claim { id: "table4.non-uniform-gain-exceeds-uniform", min_refs: SWEEP_REFS,
                reads: on(Apps::All, &[Base, PMod]),
                paper: "non-uniform apps gain more than uniform ones",
                measure: |ctx| avg_speedup(ctx, NonUniform, PMod) - avg_speedup(ctx, Uniform, PMod),
                bound: Above(0.1) },
    ],
};

/// Table 4: per scheme, the (min, avg, max) speedup over each group and
/// the applications slowed by more than 1% (the paper's pathological
/// cases).
fn table4_text(ctx: &Ctx) -> String {
    let speedups = |apps: Apps, s| apps.names().iter().map(|a| ctx.speedup(a, s)).collect();
    let min_avg_max = |v: Vec<f64>| {
        let (lo, avg) = (min(v.iter().copied()), mean(v.iter().copied()));
        format!("{},{},{}", f2(lo), f2(avg), f2(max(v)))
    };
    let rows: Vec<Vec<String>> = [Xor, PMod, PDisp, Skw, SkwPDisp]
        .into_iter()
        .map(|s| {
            let (u, nu) = (speedups(Uniform, s), speedups(NonUniform, s));
            let patho = pathological(ctx, s).to_string();
            vec![s.label().to_owned(), min_avg_max(u), min_avg_max(nu), patho]
        })
        .collect();
    let header = [
        "Cache Hashing",
        "Uniform Apps (min,avg,max)",
        "Nonuniform Apps (min,avg,max)",
        "Patho. Cases",
    ];
    render_table(&header, &rows)
}

#[rustfmt::skip]
pub(super) const FIG11: Experiment = Experiment {
    name: "fig11", title: "Fig. 11: normalized L2 misses, non-uniform applications",
    schemes: &MISSES, text: |ctx| misses_text(ctx, &MISSES, &non_uniform_names()),
    files: &[
        ("fig11.svg", fig11_svg),
        ("csv/fig11.csv", |ctx| table_csv(&MISSES, &non_uniform_names(), |a, s| ctx.misses(a, s))),
    ],
    claims: &[
        Claim { id: "fig11.avg-miss-reduction", min_refs: STEADY_REFS,
                reads: on(NonUniform, &[Base, PMod]),
                paper: "pMod removes > 30% of misses on average",
                measure: |ctx| 1.0 - mean(non_uniform_names().iter().map(|a| misses(ctx, a, PMod))),
                bound: Above(0.3) },
        Claim { id: "fig11.tree-misses-eliminated", min_refs: STEADY_REFS,
                reads: on(Only(&["tree"]), &[Base, PMod]),
                paper: "pMod removes nearly all of tree's misses",
                measure: |ctx| 1.0 / misses(ctx, "tree", PMod), bound: Above(3.0) },
        Claim { id: "fig11.bt-fa-below-base", min_refs: STEADY_REFS,
                reads: on(Only(&["bt"]), &[Base, Fa]),
                paper: "FA removes all conflict misses",
                measure: |ctx| misses(ctx, "bt", Fa), bound: Below(1.0) },
        Claim { id: "fig11.bt-pmod-near-fa", min_refs: STEADY_REFS,
                reads: on(Only(&["bt"]), &[PMod, Fa]),
                paper: "pMod approaches the FA floor on bt",
                measure: bt_pmod_over_fa_misses, bound: AtMost(2.0) },
    ],
};

fn fig11_svg(ctx: &Ctx) -> String {
    let title = "Fig. 11: misses, non-uniform apps";
    miss_bars(ctx, &MISSES, &non_uniform_names(), title)
}

/// bt's pMod misses as a multiple of its FA misses.
fn bt_pmod_over_fa_misses(ctx: &Ctx) -> f64 {
    let bt = |s| ctx.cell("bt", s).l2_misses() as f64;
    bt(PMod) / bt(Fa)
}

#[rustfmt::skip]
pub(super) const FIG12: Experiment = Experiment {
    name: "fig12", title: "Fig. 12: normalized L2 misses, uniform applications",
    schemes: &MISSES, text: |ctx| misses_text(ctx, &MISSES, &uniform_names()),
    files: &[
        ("fig12.svg", fig12_svg),
        ("csv/fig12.csv", |ctx| table_csv(&MISSES, &uniform_names(), |a, s| ctx.misses(a, s))),
    ],
    claims: &[
        Claim { id: "fig12.pmod-worst-uniform-misses", min_refs: SWEEP_REFS,
                reads: on(Uniform, &[Base, PMod]),
                paper: "pMod never increases misses (1.00)",
                measure: |ctx| max(uniform_names().iter().map(|a| misses(ctx, a, PMod))),
                bound: Below(1.05) },
        Claim { id: "fig12.skw-pdisp-inflates-misses", min_refs: SWEEP_REFS,
                reads: on(Uniform, &[Base, SkwPDisp]),
                paper: "skw+pDisp adds up to 20% misses (1.20)",
                measure: |ctx| max(uniform_names().iter().map(|a| misses(ctx, a, SkwPDisp))),
                bound: Above(1.1) },
    ],
};

fn fig12_svg(ctx: &Ctx) -> String {
    let title = "Fig. 12: misses, uniform apps";
    miss_bars(ctx, &MISSES, &uniform_names(), title)
}

/// Normalized L2 misses, NaN (a failed claim) on a zero-miss Base.
fn misses(ctx: &Ctx, app: &str, scheme: Scheme) -> f64 {
    ctx.misses(app, scheme).unwrap_or(f64::NAN)
}

#[rustfmt::skip]
pub(super) const FIG13: Experiment = Experiment {
    name: "fig13", title: "Fig. 13: distribution of L2 misses across sets for tree",
    schemes: &[Base, PMod], text: fig13_text,
    files: &[
        ("fig13a.svg", |ctx| miss_histogram(ctx, "Fig. 13a: tree misses per set (Base)", Base)),
        ("fig13b.svg", |ctx| miss_histogram(ctx, "Fig. 13b: tree misses per set (pMod)", PMod)),
        ("csv/fig13_base.csv", |ctx| distribution_csv(tree(ctx, Base))),
        ("csv/fig13_pmod.csv", |ctx| distribution_csv(tree(ctx, PMod))),
    ],
    claims: &[
        Claim { id: "fig13.base-concentrates-early", min_refs: SWEEP_REFS,
                reads: on(Only(&["tree"]), &[Base]),
                paper: "90% of Base misses in ~10% of the sets (0.10), from 60k refs",
                measure: |ctx| hot_sets(ctx, Base), bound: Below(0.25) },
        Claim { id: "fig13.base-concentrates", min_refs: STEADY_REFS,
                reads: on(Only(&["tree"]), &[Base]),
                paper: "90% of Base misses in ~10% of the sets (0.10)",
                measure: |ctx| hot_sets(ctx, Base), bound: Below(0.2) },
        Claim { id: "fig13.pmod-spreads", min_refs: STEADY_REFS,
                reads: on(Only(&["tree"]), &[Base, PMod]),
                paper: "pMod spreads the misses over the sets",
                measure: |ctx| hot_sets(ctx, PMod) / hot_sets(ctx, Base), bound: Above(2.0) },
        Claim { id: "fig13.pmod-eliminates-most", min_refs: STEADY_REFS,
                reads: on(Only(&["tree"]), &[Base, PMod]),
                paper: "pMod eliminates most of those misses",
                measure: |ctx| tree_misses(ctx, Base) / tree_misses(ctx, PMod),
                bound: Above(2.0) },
    ],
};

fn fig13_text(ctx: &Ctx) -> String {
    let panel = |label, scheme| distribution_text(label, tree(ctx, scheme));
    panel("(a) Base", Base) + &panel("(b) pMod", PMod)
}

/// tree's per-set L2 misses under `scheme`.
fn tree(ctx: &Ctx, scheme: Scheme) -> &[u64] {
    &ctx.cell("tree", scheme).l2.set_misses
}

/// tree's L2 misses under `scheme`.
fn tree_misses(ctx: &Ctx, scheme: Scheme) -> f64 {
    tree(ctx, scheme).iter().sum::<u64>() as f64
}

/// Fraction of the sets carrying 90% of tree's L2 misses under `scheme`.
fn hot_sets(ctx: &Ctx, scheme: Scheme) -> f64 {
    sets_carrying_share(tree(ctx, scheme), 0.90)
}

/// Mean speedup of `scheme` over Base across a group of applications.
fn avg_speedup(ctx: &Ctx, apps: Apps, scheme: Scheme) -> f64 {
    mean(apps.names().iter().map(|a| ctx.speedup(a, scheme)))
}

/// Applications `scheme` slows by more than 1% (Table 4's pathological
/// cases).
fn pathological(ctx: &Ctx, scheme: Scheme) -> usize {
    all()
        .iter()
        .filter(|w| ctx.speedup(w.name, scheme) < 0.99)
        .count()
}

/// A table of `apps` × `schemes` values, one row per application.
fn app_table(schemes: &[Scheme], apps: &[&str], cell: impl Fn(&str, Scheme) -> String) -> String {
    let mut header = vec!["app"];
    header.extend(schemes.iter().map(|s| s.label()));
    let rows: Vec<Vec<String>> = apps
        .iter()
        .map(|&app| {
            let values = schemes.iter().map(|&s| cell(app, s));
            [app.to_owned()].into_iter().chain(values).collect()
        })
        .collect();
    render_table(&header, &rows)
}

/// Normalized execution times (Figs. 7–10), with the paper's
/// average-speedup summary row.
fn times_text(ctx: &Ctx, schemes: &[Scheme], apps: &[&str]) -> String {
    let times = app_table(schemes, apps, |app, s| f3(ctx.time(app, s)));
    let mut header = vec![""];
    header.extend(schemes.iter().map(|s| s.label()));
    let avg = |s| f2(mean(apps.iter().map(|a| ctx.speedup(a, s))));
    let summary = ["avg speedup".to_owned()]
        .into_iter()
        .chain(schemes.iter().map(|&s| avg(s)));
    let summary = render_table(&header, &[summary.collect()]);
    format!("(execution time normalized to Base; lower is better)\n\n{times}{summary}\n")
}

/// Figs. 7 and 9: the normalized times, then the stacked-bar
/// composition of the paper's bars — busy, other-stall and memory-stall
/// cycles, each as a fraction of the Base total.
fn stacked_times_text(ctx: &Ctx, schemes: &[Scheme], apps: &[&str]) -> String {
    let table = app_table(schemes, apps, |app, s| {
        let base = ctx.cell(app, Base).breakdown.total().max(1) as f64;
        let b = ctx.cell(app, s).breakdown;
        let part = |cycles: u64| cycles as f64 / base;
        format!(
            "{:.2}+{:.2}+{:.2}",
            part(b.busy),
            part(b.other_stall),
            part(b.mem_stall)
        )
    });
    times_text(ctx, schemes, apps)
        + "Stacked bars (Busy + Other Stalls + Memory Stall)\n\
           (busy+other+memory, each normalized to the Base total)\n\n"
        + &table
        + "\n"
}

/// Normalized L2 miss counts (Figs. 11/12).
fn misses_text(ctx: &Ctx, schemes: &[Scheme], apps: &[&str]) -> String {
    let table = app_table(schemes, apps, |app, s| f3(misses(ctx, app, s)));
    format!("(L2 misses normalized to Base; lower is better)\n\n{table}\n")
}

/// One panel of Fig. 13: total misses, the 90% share, and a 32-bucket
/// histogram.
fn distribution_text(label: &str, dist: &[u64]) -> String {
    let total: u64 = dist.iter().sum();
    let mut out = format!("{label}: {total} misses over {} sets\n", dist.len());
    let hot = sets_carrying_share(dist, 0.90) * 100.0;
    _ = writeln!(out, "  90% of misses fall in {hot:.1}% of the sets");
    let sketch: Vec<u64> = dist
        .chunks(dist.len().div_ceil(32))
        .map(|c| c.iter().sum())
        .collect();
    let peak = sketch.iter().copied().max().unwrap_or(1).max(1);
    for (i, &v) in sketch.iter().enumerate() {
        let bar = "#".repeat((v * 50 / peak) as usize);
        _ = writeln!(out, "  sets {:>5}+ |{bar}", i * dist.len() / 32);
    }
    out + "\n"
}

/// Normalized execution times (Figs. 7–10) as grouped bars.
fn time_bars(ctx: &Ctx, schemes: &[Scheme], apps: &[&str], title: &str) -> String {
    let value = |app: &str, s| Some(ctx.time(app, s));
    bars(schemes, apps, title, "normalized execution time", value)
}

/// Normalized L2 misses (Figs. 11/12) as grouped bars.
fn miss_bars(ctx: &Ctx, schemes: &[Scheme], apps: &[&str], title: &str) -> String {
    bars(schemes, apps, title, "normalized L2 misses", |app, s| {
        ctx.misses(app, s)
    })
}

/// One bar group per application, one bar per scheme.
fn bars(
    schemes: &[Scheme],
    apps: &[&str],
    title: &str,
    y_label: &str,
    value: impl Fn(&str, Scheme) -> Option<f64>,
) -> String {
    let labels: Vec<&str> = schemes.iter().map(|s| s.label()).collect();
    let mut chart = BarChart::new(title, y_label, &labels);
    for &app in apps {
        // A zero-miss Base has no normalization: skip the group rather
        // than plot a zero-height bar that reads as "all eliminated".
        match schemes.iter().map(|&s| value(app, s)).collect() {
            Some(values) => chart = chart.with_group(BarGroup::new(app, values)),
            None => eprintln!("{title}: skipping {app} (zero-miss baseline)"),
        }
    }
    chart.render(900, 420)
}

/// A Fig. 13 panel as a 64-bucket histogram on Base's y scale, so the
/// elimination shows as it does in the paper.
fn miss_histogram(ctx: &Ctx, title: &str, scheme: Scheme) -> String {
    let dist = tree(ctx, scheme);
    let buckets = |d: &[u64]| -> Vec<u64> {
        d.chunks(d.len().div_ceil(64))
            .map(|c| c.iter().sum())
            .collect()
    };
    let y_max = buckets(tree(ctx, Base))
        .iter()
        .map(|&v| v as f64)
        .fold(1.0f64, f64::max);
    let chunk = dist.len().div_ceil(64);
    let mut chart = BarChart::new(title, "misses", &["misses"]).with_y_max(y_max);
    for (i, total) in buckets(dist).into_iter().enumerate() {
        let label = if i % 8 == 0 {
            (i * chunk).to_string()
        } else {
            String::new()
        };
        chart = chart.with_group(BarGroup::new(label, vec![total as f64]));
    }
    chart.render(900, 320)
}
