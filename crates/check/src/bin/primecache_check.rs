//! `primecache-check`: runs the full differential-oracle battery and
//! prints a pass/fail report.
//!
//! Every set-index function, hardware modulo unit, cache organization,
//! the DRAM timing model, and the text trace reader is checked against
//! a deliberately naive reference implementation over randomized and
//! adversarial inputs. Any disagreement is shrunk to a minimal
//! counterexample and reported; the process exits nonzero.
//!
//! Usage: `primecache-check [--cases N] [--seed S]`
//! (default: 1,000,000 addresses/accesses per unit, seed 0).

use primecache_check::{run_battery, BatteryConfig};

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1).and_then(|v| v.parse().ok()) {
        Some(v) => Some(v),
        None => {
            eprintln!("usage: primecache-check [--cases N] [--seed S]");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = BatteryConfig::default();
    if let Some(cases) = parse_flag::<usize>(&args, "--cases") {
        cfg.addrs_per_unit = cases;
    }
    if let Some(seed) = parse_flag::<u64>(&args, "--seed") {
        cfg.seed = seed;
    }

    println!(
        "primecache-check: differential-oracle battery \
         ({} cases/unit, seed {})\n",
        cfg.addrs_per_unit, cfg.seed
    );

    let start = std::time::Instant::now();
    let reports = run_battery(&cfg);
    let elapsed = start.elapsed();

    let width = reports.iter().map(|r| r.unit.len()).max().unwrap_or(0);
    let mut total_cases = 0usize;
    let mut failures = 0usize;
    for r in &reports {
        total_cases += r.cases;
        if r.passed {
            println!("  {:<width$}  ok    {:>9} cases", r.unit, r.cases);
        } else {
            failures += 1;
            println!(
                "  {:<width$}  FAIL  (shrunk {} steps)",
                r.unit, r.shrink_steps
            );
            if let Some(ce) = &r.counterexample {
                for line in ce.lines() {
                    println!("        {line}");
                }
            }
        }
    }

    println!(
        "\n{} units, {} cases, {} failure(s) in {:.1}s",
        reports.len(),
        total_cases,
        failures,
        elapsed.as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
