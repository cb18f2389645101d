//! Shared helpers for the per-table/per-figure binaries.
//!
//! Every table and figure of the paper has a binary that regenerates it:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 (prime-modulo fragmentation) |
//! | `table2` | Table 2 (qualitative hash-function comparison, checked) |
//! | `table3` | Table 3 (simulated machine parameters) |
//! | `table4` | Table 4 (speedup summary + pathological counts) |
//! | `fig5` / `fig6` | balance / concentration vs stride |
//! | `fig7` / `fig8` | single-hash normalized execution times |
//! | `fig9` / `fig10` | multi-hash normalized execution times |
//! | `fig11` / `fig12` | normalized L2 miss counts |
//! | `fig13` | per-set miss distribution of `tree` |
//! | `theorem1` | iterative-linear iteration bounds |
//! | `reproduce` | everything above in one run |
//! | `figures_svg` | SVG renderings of Figs. 5-13 into `figures/` |
//! | `export_csv` | raw CSV data per figure into `figures/csv/` |
//! | `misstax` | three-C miss taxonomy (extension) |
//! | `ablation_*` | pdisp factor, modulus, replacement, prefetch, paging, victim, XOR variants, DRAM mapping, multiprogramming, L1 hashing, skew geometry, cache size |
//!
//! Run any of them with `cargo run --release -p primecache-bench --bin <target>`.
//! Figure binaries accept `--refs N` to set the trace length (default
//! 1,000,000 memory references).

use primecache_sim::suite::Sweep;
use primecache_sim::{report, Scheme};
use primecache_workloads::{non_uniform_names, uniform_names};

/// Default trace length (memory references) for figure binaries.
pub const DEFAULT_REFS: u64 = 1_000_000;

/// Parses `--refs N` from the command line, defaulting to
/// [`DEFAULT_REFS`].
///
/// # Panics
///
/// Panics with a usage message when `--refs` is present without a valid
/// number.
#[must_use]
pub fn refs_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--refs") {
        None => DEFAULT_REFS,
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("usage: {} [--refs N]", args[0])),
    }
}

/// Prints a normalized-execution-time table (Figs. 7–10) for one group of
/// applications.
pub fn print_normalized_times(sweep: &Sweep, schemes: &[Scheme], names: &[&str], title: &str) {
    let mut header = vec!["app"];
    header.extend(schemes.iter().map(|s| s.label()));
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|&name| {
            let mut row = vec![name.to_owned()];
            for &s in schemes {
                let v = sweep.normalized_time(name, s).unwrap_or(f64::NAN);
                row.push(report::f3(v));
            }
            row
        })
        .collect();
    println!("{title}");
    println!("(execution time normalized to Base; lower is better)\n");
    print!("{}", report::render_table(&header, &rows));
    // Geometric-mean speedup row, as the paper summarizes.
    let mut summary = vec!["avg speedup".to_owned()];
    for &s in schemes {
        let speedups: Vec<f64> = names.iter().filter_map(|n| sweep.speedup(n, s)).collect();
        let avg = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
        summary.push(report::f2(avg));
    }
    let mut header2 = vec![""];
    header2.extend(schemes.iter().map(|s| s.label()));
    print!("{}", report::render_table(&header2, &[summary]));
    println!();
}

/// Prints the stacked-bar composition of Figs. 7–10: each cell shows
/// busy/other/memory as fractions of the *Base* execution time, so the
/// three segments of the paper's bars can be read directly.
pub fn print_breakdown_segments(sweep: &Sweep, schemes: &[Scheme], names: &[&str], title: &str) {
    let mut header = vec!["app"];
    header.extend(schemes.iter().map(|s| s.label()));
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|&name| {
            let mut row = vec![name.to_owned()];
            let base_total = sweep
                .get(name, Scheme::Base)
                .map(|c| c.result.breakdown.total())
                .unwrap_or(1)
                .max(1) as f64;
            for &s in schemes {
                match sweep.get(name, s) {
                    Some(cell) => {
                        let b = cell.result.breakdown;
                        row.push(format!(
                            "{:.2}+{:.2}+{:.2}",
                            b.busy as f64 / base_total,
                            b.other_stall as f64 / base_total,
                            b.mem_stall as f64 / base_total,
                        ));
                    }
                    None => row.push("-".to_owned()),
                }
            }
            row
        })
        .collect();
    println!("{title}");
    println!(
        "(busy+other+memory, each normalized to the Base total)
"
    );
    print!("{}", report::render_table(&header, &rows));
    println!();
}

/// Prints a normalized-miss-count table (Figs. 11/12).
pub fn print_normalized_misses(sweep: &Sweep, schemes: &[Scheme], names: &[&str], title: &str) {
    let mut header = vec!["app"];
    header.extend(schemes.iter().map(|s| s.label()));
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|&name| {
            let mut row = vec![name.to_owned()];
            for &s in schemes {
                let v = sweep.normalized_misses(name, s).unwrap_or(f64::NAN);
                row.push(report::f3(v));
            }
            row
        })
        .collect();
    println!("{title}");
    println!("(L2 misses normalized to Base; lower is better)\n");
    print!("{}", report::render_table(&header, &rows));
    println!();
}

/// The two application groups of the figures.
#[must_use]
pub fn groups() -> (Vec<&'static str>, Vec<&'static str>) {
    (non_uniform_names(), uniform_names())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_partition_the_suite() {
        let (nu, u) = groups();
        assert_eq!(nu.len() + u.len(), 23);
        assert!(nu.contains(&"tree"));
        assert!(u.contains(&"swim"));
    }

    #[test]
    fn refs_default_applies_without_a_flag() {
        // The test harness's argv has no `--refs`, so the default rules.
        assert_eq!(refs_from_args(), DEFAULT_REFS);
    }
}
