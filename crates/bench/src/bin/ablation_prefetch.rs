//! Extension study: does next-line prefetching subsume prime indexing?
//!
//! A sequential prefetcher hides streaming misses — the cheap kind — but
//! conflict misses evict lines that *will* be re-used at distance, which a
//! next-line prefetcher cannot anticipate. This study runs the non-uniform
//! apps with an idealized depth-2 next-line prefetcher under Base and pMod
//! and shows that prime indexing's gains survive.

use primecache_bench::refs_from_args;
use primecache_cache::{Hierarchy, HierarchyOp, L2Sim};
use primecache_cpu::Cpu;
use primecache_mem::Dram;
use primecache_sim::report::render_table;
use primecache_sim::{MachineConfig, Scheme};
use primecache_workloads::{all, Workload};

/// Total cycles of `refs` references of a workload on a hierarchy.
struct Cycles<'w>(&'w Workload, u64);

impl HierarchyOp for Cycles<'_> {
    type Out = u64;

    fn run<X: L2Sim>(self, mut h: Hierarchy<X>) -> u64 {
        let machine = MachineConfig::paper_default();
        let mut d = Dram::new(machine.mem);
        let trace = self.0.trace(self.1);
        Cpu::new(machine.cpu).run(trace, &mut h, &mut d).total()
    }
}

fn run(workload: &Workload, scheme: Scheme, depth: u32, refs: u64) -> u64 {
    let cfg = MachineConfig::paper_default().hierarchy_config(scheme);
    cfg.with_prefetch_depth(depth).build(Cycles(workload, refs))
}

fn main() {
    let refs = refs_from_args().min(300_000);
    println!("Prefetch ablation: idealized depth-2 next-line prefetch, {refs} refs\n");
    let mut rows = Vec::new();
    for w in all().iter().filter(|w| w.expected_non_uniform) {
        let base = run(w, Scheme::Base, 0, refs);
        let base_pf = run(w, Scheme::Base, 2, refs);
        let pmod_pf = run(w, Scheme::PrimeModulo, 2, refs);
        rows.push(vec![
            w.name.to_owned(),
            format!("{:.2}", base as f64 / base_pf as f64),
            format!("{:.2}", base as f64 / pmod_pf as f64),
            format!("{:.2}", base_pf as f64 / pmod_pf as f64),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "app",
                "prefetch alone (vs Base)",
                "pMod + prefetch (vs Base)",
                "pMod gain on top of prefetch",
            ],
            &rows
        )
    );
    println!("\nIf the last column stays well above 1.0, prime indexing removes");
    println!("misses the prefetcher cannot — conflict evictions of far-future reuse.");
}
