//! `pcache` — command-line driver for the primecache simulators;
//! `pcache help` prints every subcommand
//! ([`primecache_cli::commands::help_text`]).

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(primecache_cli::commands::main(&argv));
}
