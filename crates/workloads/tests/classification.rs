//! End-to-end validation of the §4 uniformity classification: running each
//! workload through the paper's L1 + Base L2 must classify exactly the
//! paper's seven applications (bt, cg, ft, irr, mcf, sp, tree) as
//! non-uniform by the stdev/mean > 0.5 criterion.

use primecache_cache::{Cache, CacheConfig, Hierarchy, HierarchyConfig, L2Organization};
use primecache_core::metrics::uniformity_ratio;
use primecache_workloads::all;

/// Memory refs per workload for the classification run. Kept moderate so
/// the test is fast; the full reproduction uses larger traces.
const REFS: u64 = 200_000;

fn l2_histogram(workload: &primecache_workloads::Workload) -> Vec<u64> {
    let l2 = CacheConfig::new(512 * 1024, 4, 64);
    let mut h = Hierarchy::with_l2(
        HierarchyConfig::paper_default(L2Organization::SetAssoc(l2)),
        Cache::new(l2),
    );
    for ev in workload.trace(REFS) {
        if let Some(addr) = ev.addr() {
            let write = matches!(ev, primecache_trace::Event::Store { .. });
            h.access(addr, write);
        }
    }
    h.l2_stats().set_accesses.clone()
}

#[test]
fn classification_matches_the_paper() {
    let mut mismatches = Vec::new();
    for w in all() {
        let hist = l2_histogram(w);
        let cv = uniformity_ratio(&hist);
        let non_uniform = cv > 0.5;
        if non_uniform != w.expected_non_uniform {
            mismatches.push(format!(
                "{}: cv = {cv:.3}, expected {}",
                w.name,
                if w.expected_non_uniform {
                    "non-uniform"
                } else {
                    "uniform"
                }
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "classification mismatches:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn non_uniform_apps_have_substantial_l2_traffic() {
    // A workload whose L2 demand stream is tiny cannot drive the figures.
    for w in all().iter().filter(|w| w.expected_non_uniform) {
        let hist = l2_histogram(w);
        let total: u64 = hist.iter().sum();
        assert!(
            total > REFS / 50,
            "{}: only {total} L2 demand accesses from {REFS} refs",
            w.name
        );
    }
}
