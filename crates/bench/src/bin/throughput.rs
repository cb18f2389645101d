//! End-to-end throughput benchmark: simulated refs/sec per scheme over
//! the full 23-workload suite, written to `BENCH_throughput.json`.
//!
//! ```text
//! cargo run --release -p primecache-bench --bin throughput -- \
//!     [--refs N] [--out FILE] [--baseline FILE] [--max-regress PCT]
//!     [--strict] [--reference] [--live] [--gen-only]
//! ```
//!
//! The default mode is the generate-once/replay-per-scheme pipeline
//! (the dataflow `run_sweep` uses): the suite is recorded into the
//! compact encoded trace store once, every scheme simulates from replay
//! cursors, and the report carries `gen:*`/`replay:*`/`sweep:aggregate`
//! entries alongside the per-scheme numbers. `--live` times the
//! generate-per-scheme path instead; `--reference` times the
//! pre-batching event-at-a-time driver; `--gen-only` skips simulation
//! entirely and times just the trace pipeline stages.
//!
//! With `--baseline`, the run compares against the committed baseline
//! and exits nonzero when any entry's refs/sec falls more than
//! `--max-regress` percent (default 30) below it — the CI smoke gate.
//! A measured entry missing from the baseline is never gated by that
//! check; it always prints a loud warning, and with `--strict` (the CI
//! default) it fails the run so new entries can't dodge the floor.

use primecache_core::expr::register;
use primecache_sim::throughput::{
    baseline_refs_per_sec, measure, measure_gen_only, measure_reference, measure_replayed,
};
use primecache_sim::Scheme;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let refs: u64 = flag_value(&args, "--refs")
        .map(|v| v.parse().expect("--refs expects a number"))
        .unwrap_or(100_000);
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_throughput.json".to_owned());
    let max_regress: f64 = flag_value(&args, "--max-regress")
        .map(|v| v.parse().expect("--max-regress expects a percentage"))
        .unwrap_or(30.0)
        / 100.0;

    // --reference: time the pre-batching `Box<dyn SetIndexer>` driver
    // instead (bit-identical results) — the before/after comparison
    // should come from the same machine, same session. --live: the
    // generate-per-scheme path replay replaced. --gen-only: just the
    // trace pipeline, no simulation.
    let reference = args.iter().any(|a| a == "--reference");
    let live = args.iter().any(|a| a == "--live");
    let gen_only = args.iter().any(|a| a == "--gen-only");
    let mode = if gen_only {
        "trace pipeline only"
    } else if reference {
        "reference driver"
    } else if live {
        "live generation"
    } else {
        "recorded replay"
    };
    println!("throughput ({mode}): {refs} refs/workload x 23 workloads per scheme\n");
    // The built-in schemes plus one DSL-compiled scheme: pMod re-expressed
    // in the expression language, so the compiled-closure hot path is held
    // to the same regression floor as the hand-written indexers.
    let expr_pmod = register("expr:pMod", "a % 2039").expect("builtin pMod source compiles");
    let mut schemes = Scheme::ALL.to_vec();
    schemes.push(Scheme::Expr(expr_pmod));
    let report = if gen_only {
        measure_gen_only(refs)
    } else if reference {
        measure_reference(&schemes, refs)
    } else if live {
        measure(&schemes, refs)
    } else {
        measure_replayed(&schemes, refs)
    };
    for s in &report.schemes {
        println!(
            "  {:>10}  {:>12.0} refs/sec  ({} refs in {:.2}s)",
            s.scheme.label(),
            s.refs_per_sec,
            s.refs,
            s.seconds
        );
    }
    for e in &report.extras {
        println!(
            "  {:>15}  {:>12.0} refs/sec  ({} refs in {:.2}s)",
            e.label, e.refs_per_sec, e.refs, e.seconds
        );
    }

    std::fs::write(&out, report.to_json()).expect("write throughput JSON");
    println!("\nwrote {out}");

    if let Some(baseline_path) = flag_value(&args, "--baseline") {
        let json = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let baseline = baseline_refs_per_sec(&json);
        assert!(
            !baseline.is_empty(),
            "baseline {baseline_path} contains no scheme entries"
        );
        let missing = report.missing_from_baseline(&baseline);
        if !missing.is_empty() {
            eprintln!(
                "WARNING: {} entr(y/ies) measured but absent from baseline {baseline_path} \
                 (ungated by the regression check): {}",
                missing.len(),
                missing.join(", ")
            );
            if args.iter().any(|a| a == "--strict") {
                eprintln!(
                    "--strict: unbaselined entries are an error; \
                     add entries to {baseline_path}"
                );
                std::process::exit(1);
            }
        }
        let regressions = report.regressions(&baseline, max_regress);
        if regressions.is_empty() {
            println!(
                "no entry regressed more than {:.0}% vs {baseline_path}",
                max_regress * 100.0
            );
        } else {
            eprintln!("throughput regression vs {baseline_path}:");
            for msg in &regressions {
                eprintln!("  {msg}");
            }
            std::process::exit(1);
        }
    }
}
