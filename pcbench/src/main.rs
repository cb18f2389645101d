//! `pcbench`: see `primecache_benchmark::cli` for the flags.

fn main() {
    std::process::exit(primecache_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
