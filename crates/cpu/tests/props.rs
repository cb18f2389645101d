//! Property-based tests of the timing model.

use primecache_cache::{Cache, CacheConfig, Hierarchy, HierarchyConfig, L2Organization};
use primecache_check::prop::{forall, Rng, Shrink};
use primecache_cpu::{Cpu, CpuConfig};
use primecache_mem::{Dram, MemConfig};
use primecache_trace::Event;

/// Event wrapper so randomized traces can shrink (toward dropping events).
#[derive(Debug, Clone)]
struct Ev(Event);

impl Shrink for Ev {
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

fn arb_event(rng: &mut Rng) -> Ev {
    Ev(match rng.range_u32(0, 4) {
        0 => Event::Work(rng.range_u32(1, 200)),
        1 => Event::Branch {
            mispredict: rng.bool(),
        },
        2 => Event::Load {
            addr: rng.range_u64(0, 1 << 24) * 8,
            dep: rng.bool(),
        },
        _ => Event::Store {
            addr: rng.range_u64(0, 1 << 24) * 8,
        },
    })
}

fn events_of(evs: &[Ev]) -> Vec<Event> {
    evs.iter().map(|e| e.0).collect()
}

fn run(events: &[Event]) -> primecache_cpu::ExecBreakdown {
    let l2 = CacheConfig::new(512 * 1024, 4, 64);
    let mut h = Hierarchy::with_l2(
        HierarchyConfig::paper_default(L2Organization::SetAssoc(l2)),
        Cache::new(l2),
    );
    let mut d = Dram::new(MemConfig::paper_default());
    Cpu::new(CpuConfig::paper_default()).run(events.to_vec(), &mut h, &mut d)
}

#[test]
fn busy_time_equals_instruction_throughput() {
    forall(
        "busy_time_equals_instruction_throughput",
        64,
        |rng| rng.vec(1, 400, arb_event),
        |evs: &Vec<Ev>| {
            let events = events_of(evs);
            let b = run(&events);
            let instrs: u64 = events.iter().map(Event::instructions).sum();
            // Busy time is instructions / width, within rounding.
            assert!(b.busy <= instrs);
            assert!(b.busy >= (instrs / 6).saturating_sub(1));
        },
    );
}

#[test]
fn other_stall_is_exactly_branch_penalties() {
    forall(
        "other_stall_is_exactly_branch_penalties",
        64,
        |rng| rng.vec(1, 400, arb_event),
        |evs: &Vec<Ev>| {
            let events = events_of(evs);
            let b = run(&events);
            let mispredicts = events
                .iter()
                .filter(|e| matches!(e, Event::Branch { mispredict: true }))
                .count() as u64;
            assert_eq!(b.other_stall, mispredicts * 12);
        },
    );
}

#[test]
fn total_is_sum_of_parts() {
    forall(
        "total_is_sum_of_parts",
        64,
        |rng| rng.vec(1, 400, arb_event),
        |evs: &Vec<Ev>| {
            let b = run(&events_of(evs));
            assert_eq!(b.total(), b.busy + b.other_stall + b.mem_stall);
        },
    );
}

#[test]
fn adding_work_never_reduces_time() {
    forall(
        "adding_work_never_reduces_time",
        64,
        |rng| rng.vec(1, 200, arb_event),
        |evs: &Vec<Ev>| {
            let events = events_of(evs);
            let t1 = run(&events).total();
            let mut more = events.clone();
            more.push(Event::Work(600));
            let t2 = run(&more).total();
            assert!(t2 >= t1);
        },
    );
}

#[test]
fn dependent_loads_never_run_faster() {
    forall(
        "dependent_loads_never_run_faster",
        64,
        |rng| rng.vec(1, 200, |r| r.range_u64(0, 1 << 24)),
        |seed: &Vec<u64>| {
            let indep: Vec<Event> = seed.iter().map(|&a| Event::load(a * 64)).collect();
            let dep: Vec<Event> = seed.iter().map(|&a| Event::chase(a * 64)).collect();
            assert!(run(&dep).total() >= run(&indep).total());
        },
    );
}

#[test]
fn runs_are_deterministic() {
    forall(
        "runs_are_deterministic",
        64,
        |rng| rng.vec(1, 200, arb_event),
        |evs: &Vec<Ev>| {
            let events = events_of(evs);
            assert_eq!(run(&events), run(&events));
        },
    );
}
