//! Extension study: DRAM bank hashing vs cache hashing.
//!
//! The paper's related work (\[26\], Zhang/Zhu/Zhang MICRO 2000) applies the
//! same permute-the-index idea one level down, to DRAM banks. This study
//! runs the suite under all four combinations of {Base, pMod} L2 x
//! {row-interleaved, permutation-based} DRAM, asking: are the two remedies
//! redundant or complementary?

use primecache_bench::refs_from_args;
use primecache_mem::MemConfig;
use primecache_sim::report::render_table;
use primecache_sim::{run_trace, MachineConfig, Scheme};
use primecache_workloads::all;

fn run(
    workload: &primecache_workloads::Workload,
    scheme: Scheme,
    mem: MemConfig,
    refs: u64,
) -> u64 {
    let machine = MachineConfig {
        mem,
        ..MachineConfig::paper_default()
    };
    run_trace(workload.trace(refs), scheme, &machine)
        .breakdown
        .total()
}

fn main() {
    let refs = refs_from_args().min(300_000);
    println!("DRAM-mapping ablation (row-interleaved vs permutation-based [26]), {refs} refs\n");
    let plain = MemConfig::paper_default();
    let perm = MemConfig::paper_default().with_permutation_mapping();
    let mut rows = Vec::new();
    for w in all().iter().filter(|w| w.expected_non_uniform) {
        let base_plain = run(w, Scheme::Base, plain, refs);
        let base_perm = run(w, Scheme::Base, perm, refs);
        let pmod_plain = run(w, Scheme::PrimeModulo, plain, refs);
        let pmod_perm = run(w, Scheme::PrimeModulo, perm, refs);
        rows.push(vec![
            w.name.to_owned(),
            format!("{:.3}", base_perm as f64 / base_plain as f64),
            format!("{:.3}", pmod_plain as f64 / base_plain as f64),
            format!("{:.3}", pmod_perm as f64 / base_plain as f64),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "app",
                "Base + perm DRAM",
                "pMod + plain DRAM",
                "pMod + perm DRAM",
            ],
            &rows
        )
    );
    println!("\n(normalized to Base + plain DRAM; lower is better)");
    println!("\nBank permutation attacks the *latency* of misses with bank-conflicting");
    println!("strides; prime cache indexing attacks their *count*. For this suite the");
    println!("L2 miss streams are already row-friendly sweeps, so the bank hash is");
    println!("close to neutral — the conflict problem lives in the cache's set index,");
    println!("which is precisely the paper's argument for fixing it there.");
}
