//! `pcache` — command-line driver for the primecache simulators.
//!
//! ```text
//! pcache list                              list the 23 workload models
//! pcache run <app> [--scheme S] [--refs N] simulate one (workload, scheme)
//! pcache classify [--refs N]               §4 uniformity classification
//! pcache sweep [--refs N]                  all apps x main schemes
//! pcache metrics --stride S                balance/concentration at a stride
//! pcache analyze [--json|--self-check]     static certificates + config lints
//! pcache attack [--scheme S] [--json]      black-box index recovery + eviction cost
//! pcache report <app> [--out FILE]         self-describing run report (JSON)
//! pcache trace-events <app>|--sweep        event trace (JSONL)
//! pcache trace <app> --out FILE [--refs N] dump a trace (pct1/pcte/text)
//! pcache import FILE [--run]               validate + convert an external trace
//! pcache sweep --tenants A,B [--refs N]    multi-tenant interference sweep
//! pcache inspect FILE                      summarize a binary trace
//! ```

use primecache_cli::commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("list") => commands::list(&argv[1..]),
        Some("run") => commands::run(&argv[1..]),
        Some("classify") => commands::classify(&argv[1..]),
        Some("sweep") => commands::sweep(&argv[1..]),
        Some("metrics") => commands::metrics(&argv[1..]),
        Some("taxonomy") => commands::taxonomy(&argv[1..]),
        Some("analyze") => commands::analyze(&argv[1..]),
        Some("attack") => commands::attack(&argv[1..]),
        Some("report") => commands::report(&argv[1..]),
        Some("trace-events") => commands::trace_events(&argv[1..]),
        Some("trace") => commands::trace(&argv[1..]),
        Some("import") => commands::import(&argv[1..]),
        Some("inspect") => commands::inspect(&argv[1..]),
        Some("help" | "--help" | "-h") | None => {
            print!("{}", commands::USAGE);
            0
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n");
            eprint!("{}", commands::USAGE);
            2
        }
    };
    std::process::exit(code);
}
