//! The cycle-accounting core model.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use primecache_cache::{AccessOutcome, Hierarchy, L1Sim, L2Sim};
use primecache_core::index::FastMod;
use primecache_mem::Dram;
use primecache_obs::ObsHandle;
use primecache_trace::Event;

use crate::{CpuConfig, ExecBreakdown};

/// Trace-driven timing model of the Table-3 core.
///
/// See the crate docs for the modelling rules. A [`Cpu`] is reusable:
/// each [`Cpu::run`] starts from a clean pipeline. A trace that arrives
/// in pieces goes through [`Cpu::feed`], once per piece, and then
/// [`Cpu::finish`]; that is exactly [`Cpu::run`] over the whole trace.
#[derive(Debug, Clone)]
pub struct Cpu {
    config: CpuConfig,
    /// Reciprocals of the three issue widths, built once so issuing
    /// divides by nothing.
    widths: Widths,
    /// Pipeline state of the run in progress.
    st: RunState,
    /// Stall attribution of the most recently finished run.
    last_stalls: StallAttribution,
    /// Sim-time clock feed for event timestamps.
    obs: Option<ObsHandle>,
}

/// Fine-grained attribution of [`ExecBreakdown`] stall cycles — the
/// data behind a Figure-8-style stacked breakdown.
///
/// The memory-side fields partition `mem_stall` exactly:
/// `rob + mlp + dep + store + drain == mem_stall`, and
/// `branch == other_stall`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallAttribution {
    /// Cycles stalled because the ROB window filled behind an
    /// outstanding load.
    pub rob: u64,
    /// Cycles stalled because the maximum number of in-flight loads
    /// (MSHR/MLP limit) was reached.
    pub mlp: u64,
    /// Cycles a dependent (serializing) load exposed directly.
    pub dep: u64,
    /// Cycles waiting on a full store buffer.
    pub store: u64,
    /// Cycles waiting for the last in-flight loads at program end.
    pub drain: u64,
    /// Branch-mispredict penalty cycles (`other_stall`).
    pub branch: u64,
}

/// Why the core is waiting on the oldest in-flight load.
#[derive(Debug, Clone, Copy)]
enum StallCause {
    /// The ROB window filled behind it.
    Rob,
    /// The in-flight-load limit was reached.
    Mlp,
}

/// Issue class of an instruction (which functional units it occupies).
#[derive(Debug, Clone, Copy)]
enum IssueClass {
    /// Integer / control work: only the global issue width limits it.
    Generic,
    /// Floating-point operation.
    Fp,
    /// Load or store.
    Mem,
}

/// The issue widths as reciprocals.
#[derive(Debug, Clone, Copy)]
struct Widths {
    issue: FastMod,
    fp: FastMod,
    mem: FastMod,
}

impl Widths {
    fn new(cfg: &CpuConfig) -> Self {
        let width = |name: &str, w: u32| {
            assert!(w > 0, "CpuConfig::{name} must be nonzero");
            FastMod::new(u64::from(w))
        };
        Self {
            issue: width("issue_width", cfg.issue_width),
            fp: width("fp_width", cfg.fp_width),
            mem: width("mem_width", cfg.mem_width),
        }
    }
}

/// One in-flight load, retired in program order.
#[derive(Debug, Clone, Copy)]
struct InflightLoad {
    completion: u64,
    /// Instruction count at which this load fills the ROB window: its
    /// issue point plus the ROB size.
    rob_limit: u64,
}

/// Mutable per-run state.
///
/// The oldest load's completion and ROB limit, and the earliest store
/// completion, are mirrored in plain fields (`u64::MAX` when nothing is
/// in flight), so the per-event retire and ROB checks are one compare
/// each and touch the queues only when something retires.
///
/// The per-event steps (`issue`, `retire_completed`, `enforce_rob`) are
/// `#[inline]`: `Cpu::feed` is monomorphized in the caller's crate, so
/// without the hint each would be a call into this crate on the
/// per-event path.
#[derive(Debug, Clone)]
struct RunState {
    now: u64,
    busy: u64,
    other_stall: u64,
    mem_stall: u64,
    /// Instructions issued so far (for the ROB-window constraint).
    instr_total: u64,
    /// Floating-point instructions issued so far (FP-FU constraint).
    fp_total: u64,
    /// Memory instructions issued so far (ld/st-FU constraint).
    mem_total: u64,
    /// `fp_total / fp_width` and `mem_total / mem_width`: the busy time
    /// those units need, refreshed only when their totals move.
    fp_cycles: u64,
    mem_cycles: u64,
    /// In-flight loads in program order (front = oldest).
    pending_loads: VecDeque<InflightLoad>,
    /// The front load's `completion` and `rob_limit`.
    oldest_load_done: u64,
    oldest_load_rob_limit: u64,
    /// Completion times of in-flight stores (min-heap; the store buffer
    /// drains out of order and does not occupy the ROB).
    pending_stores: BinaryHeap<Reverse<u64>>,
    /// The heap's minimum.
    first_store_done: u64,
    /// Per-cause stall attribution (partitions `mem_stall` exactly).
    stalls: StallAttribution,
}

impl RunState {
    fn new() -> Self {
        Self {
            now: 0,
            busy: 0,
            other_stall: 0,
            mem_stall: 0,
            instr_total: 0,
            fp_total: 0,
            mem_total: 0,
            fp_cycles: 0,
            mem_cycles: 0,
            pending_loads: VecDeque::new(),
            oldest_load_done: u64::MAX,
            oldest_load_rob_limit: u64::MAX,
            pending_stores: BinaryHeap::new(),
            first_store_done: u64::MAX,
            stalls: StallAttribution::default(),
        }
    }

    /// Retires instructions through the issue stage, honouring the
    /// per-class functional-unit limits: busy time is the maximum of the
    /// class throughput requirements
    /// (`total/issue_width`, `fp/fp_width`, `mem/mem_width`).
    #[inline]
    fn issue(&mut self, n: u64, class: IssueClass, widths: &Widths) {
        self.instr_total += n;
        match class {
            IssueClass::Generic => {}
            IssueClass::Fp => {
                self.fp_total += n;
                self.fp_cycles = widths.fp.quotient(self.fp_total);
            }
            IssueClass::Mem => {
                self.mem_total += n;
                self.mem_cycles = widths.mem.quotient(self.mem_total);
            }
        }
        let target = widths
            .issue
            .quotient(self.instr_total)
            .max(self.fp_cycles)
            .max(self.mem_cycles);
        if target > self.busy {
            let delta = target - self.busy;
            self.busy += delta;
            self.now += delta;
        }
    }

    /// Refreshes the mirrored front-of-queue load fields.
    fn sync_oldest_load(&mut self) {
        (self.oldest_load_done, self.oldest_load_rob_limit) = self
            .pending_loads
            .front()
            .map_or((u64::MAX, u64::MAX), |l| (l.completion, l.rob_limit));
    }

    /// Refreshes the mirrored earliest store completion.
    fn sync_first_store(&mut self) {
        self.first_store_done = self.pending_stores.peek().map_or(u64::MAX, |r| r.0);
    }

    /// Drops pending operations that completed by `now` (in program order
    /// for loads — the ROB retires in order).
    #[inline]
    fn retire_completed(&mut self) {
        if self.oldest_load_done <= self.now {
            while matches!(self.pending_loads.front(), Some(l) if l.completion <= self.now) {
                self.pending_loads.pop_front();
            }
            self.sync_oldest_load();
        }
        if self.first_store_done <= self.now {
            while matches!(self.pending_stores.peek(), Some(&Reverse(t)) if t <= self.now) {
                self.pending_stores.pop();
            }
            self.sync_first_store();
        }
    }

    /// Starts tracking an in-flight load.
    fn push_load(&mut self, completion: u64, rob: u64) {
        self.pending_loads.push_back(InflightLoad {
            completion,
            rob_limit: self.instr_total.saturating_add(rob),
        });
        if self.pending_loads.len() == 1 {
            self.sync_oldest_load();
        }
    }

    /// Stalls until the oldest in-flight load completes, attributing the
    /// exposed cycles to `cause`.
    fn wait_oldest_load(&mut self, cause: StallCause) {
        if let Some(l) = self.pending_loads.pop_front() {
            self.sync_oldest_load();
            if l.completion > self.now {
                let delta = l.completion - self.now;
                self.mem_stall += delta;
                match cause {
                    StallCause::Rob => self.stalls.rob += delta,
                    StallCause::Mlp => self.stalls.mlp += delta,
                }
                self.now = l.completion;
            }
            self.retire_completed();
        }
    }

    /// Enforces the ROB window: the core cannot run more than the ROB
    /// size in instructions past an outstanding load.
    #[inline]
    fn enforce_rob(&mut self) {
        while self.instr_total >= self.oldest_load_rob_limit {
            self.wait_oldest_load(StallCause::Rob);
        }
    }

    /// Waits for the earliest store if the store buffer is full, then
    /// starts tracking a store completing at `completion`.
    fn push_store(&mut self, completion: u64, max_pending: usize) {
        if self.pending_stores.len() >= max_pending {
            if let Some(Reverse(done)) = self.pending_stores.pop() {
                if done > self.now {
                    self.mem_stall += done - self.now;
                    self.stalls.store += done - self.now;
                    self.now = done;
                }
            }
        }
        self.pending_stores.push(Reverse(completion));
        self.sync_first_store();
    }
}

impl Cpu {
    /// Creates a core model with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if `issue_width`, `fp_width` or
    /// `mem_width` is zero.
    #[must_use]
    pub fn new(config: CpuConfig) -> Self {
        Self {
            widths: Widths::new(&config),
            config,
            st: RunState::new(),
            last_stalls: StallAttribution::default(),
            obs: None,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Attaches an observability recorder; the core advances its
    /// sim-time clock so cache/DRAM events carry cycle timestamps.
    pub fn attach_obs(&mut self, handle: ObsHandle) {
        self.obs = Some(handle);
    }

    /// Per-cause stall attribution of the most recently finished run
    /// (all zeros before the first one).
    ///
    /// Invariants: the memory-side causes sum to the run's
    /// `ExecBreakdown::mem_stall` and `branch` equals its
    /// `other_stall`.
    #[must_use]
    pub fn last_stall_attribution(&self) -> StallAttribution {
        self.last_stalls
    }

    /// Runs a trace through the hierarchy and DRAM, returning the cycle
    /// breakdown: [`Cpu::feed`] over the whole trace, then
    /// [`Cpu::finish`].
    pub fn run<T, X, L>(
        &mut self,
        trace: T,
        hierarchy: &mut Hierarchy<X, L>,
        dram: &mut Dram,
    ) -> ExecBreakdown
    where
        T: IntoIterator<Item = Event>,
        X: L2Sim,
        L: L1Sim,
    {
        self.feed(trace, hierarchy, dram);
        self.finish()
    }

    /// Continues the run in progress over `events`. Feeding a trace in
    /// pieces and then calling [`Cpu::finish`] gives exactly the
    /// breakdown [`Cpu::run`] gives over the whole trace.
    ///
    /// Dirty L2 victims are issued to DRAM as write traffic (they occupy
    /// banks and bus but nothing waits on them).
    pub fn feed<T, X, L>(&mut self, events: T, hierarchy: &mut Hierarchy<X, L>, dram: &mut Dram)
    where
        T: IntoIterator<Item = Event>,
        X: L2Sim,
        L: L1Sim,
    {
        let cfg = self.config;
        let widths = self.widths;
        let line = hierarchy.config().l2.line_bytes();
        // The loop works on a local copy of the pipeline state; it goes
        // back into `self` when this piece of the trace is done.
        let mut st = std::mem::replace(&mut self.st, RunState::new());
        for ev in events {
            st.retire_completed();
            st.enforce_rob();
            // Whether the event reached the L2, the only way dirty L2
            // victims (memory writes) arise.
            let missed_l1 = match ev {
                Event::Work(n) | Event::FpWork(n) => {
                    let class = if matches!(ev, Event::FpWork(_)) {
                        IssueClass::Fp
                    } else {
                        IssueClass::Generic
                    };
                    // Issue in ROB-sized chunks so an outstanding load
                    // stalls the pipeline mid-burst, not only at event
                    // boundaries.
                    let mut remaining = u64::from(n);
                    let chunk = (cfg.rob_size / 4).max(1);
                    while remaining > 0 {
                        let step = remaining.min(chunk);
                        st.issue(step, class, &widths);
                        remaining -= step;
                        if remaining > 0 {
                            st.retire_completed();
                            st.enforce_rob();
                        }
                    }
                    false
                }
                Event::Branch { mispredict } => {
                    st.issue(1, IssueClass::Generic, &widths);
                    if mispredict {
                        st.now += cfg.branch_penalty;
                        st.other_stall += cfg.branch_penalty;
                        st.stalls.branch += cfg.branch_penalty;
                    }
                    false
                }
                Event::Load { addr, dep } => {
                    st.issue(1, IssueClass::Mem, &widths);
                    let completion = self.service(addr, false, &st, hierarchy, dram);
                    match completion {
                        None => {} // L1 hit: fully pipelined
                        // Serializing load: expose the full latency.
                        Some(t) if dep && t > st.now => {
                            st.mem_stall += t - st.now;
                            st.stalls.dep += t - st.now;
                            st.now = t;
                        }
                        Some(_) if dep => {}
                        Some(t) => {
                            if st.pending_loads.len() >= cfg.max_pending_loads {
                                st.wait_oldest_load(StallCause::Mlp);
                            }
                            st.push_load(t, cfg.rob_size);
                        }
                    }
                    completion.is_some()
                }
                Event::Store { addr } => {
                    st.issue(1, IssueClass::Mem, &widths);
                    let completion = self.service(addr, true, &st, hierarchy, dram);
                    if let Some(t) = completion {
                        st.push_store(t, cfg.max_pending_stores);
                    }
                    completion.is_some()
                }
            };
            if missed_l1 {
                // Dirty L2 victims stream to DRAM without blocking the core.
                let writebacks = hierarchy.take_memory_writes();
                if !writebacks.as_slice().is_empty() {
                    if let Some(h) = &self.obs {
                        h.borrow_mut().set_now(st.now);
                    }
                }
                for block in writebacks {
                    dram.request(block * line, st.now, true);
                }
            }
        }
        self.st = st;
    }

    /// Ends the run in progress and returns its breakdown; the next
    /// [`Cpu::feed`] starts from a clean pipeline.
    pub fn finish(&mut self) -> ExecBreakdown {
        let mut st = std::mem::replace(&mut self.st, RunState::new());
        // The program cannot finish before its last load returns.
        let last = st.pending_loads.iter().map(|l| l.completion).max();
        if let Some(t) = last {
            if t > st.now {
                st.mem_stall += t - st.now;
                st.stalls.drain += t - st.now;
                st.now = t;
            }
        }
        self.last_stalls = st.stalls;
        ExecBreakdown {
            busy: st.busy,
            other_stall: st.other_stall,
            mem_stall: st.mem_stall,
        }
    }

    /// Services one memory reference; returns its completion time, or
    /// `None` for a (pipelined) L1 hit.
    fn service<X: L2Sim, L: L1Sim>(
        &self,
        addr: u64,
        write: bool,
        st: &RunState,
        hierarchy: &mut Hierarchy<X, L>,
        dram: &mut Dram,
    ) -> Option<u64> {
        if let Some(h) = &self.obs {
            h.borrow_mut().set_now(st.now);
        }
        match hierarchy.access(addr, write) {
            AccessOutcome::L1Hit => None,
            AccessOutcome::L2Hit => Some(st.now + self.config.l2_hit_cycles),
            AccessOutcome::Memory => {
                let c = dram.request(addr, st.now + self.config.l2_hit_cycles, false);
                Some(c.complete)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primecache_cache::{Cache, CacheConfig, HierarchyConfig, L2Organization};
    use primecache_mem::MemConfig;
    use primecache_trace::strided;

    fn setup() -> (Hierarchy<Cache>, Dram, Cpu) {
        let l2 = CacheConfig::new(512 * 1024, 4, 64);
        (
            Hierarchy::with_l2(
                HierarchyConfig::paper_default(L2Organization::SetAssoc(l2)),
                Cache::new(l2),
            ),
            Dram::new(MemConfig::paper_default()),
            Cpu::new(CpuConfig::paper_default()),
        )
    }

    #[test]
    fn pure_compute_is_all_busy() {
        let (mut h, mut d, mut cpu) = setup();
        let b = cpu.run([Event::Work(600)], &mut h, &mut d);
        assert_eq!(b.busy, 100);
        assert_eq!(b.other_stall, 0);
        assert_eq!(b.mem_stall, 0);
    }

    #[test]
    fn issue_width_rounds_across_events() {
        let (mut h, mut d, mut cpu) = setup();
        // 4 x Work(3) = 12 instructions = exactly 2 cycles at width 6.
        let b = cpu.run(vec![Event::Work(3); 4], &mut h, &mut d);
        assert_eq!(b.busy, 2);
    }

    #[test]
    fn fp_work_is_four_wide() {
        let (mut h, mut d, mut cpu) = setup();
        let b = cpu.run([Event::FpWork(600)], &mut h, &mut d);
        assert_eq!(b.busy, 150, "600 FP ops at 4/cycle");
        let (mut h2, mut d2, _) = setup();
        let b2 = cpu.run([Event::Work(600)], &mut h2, &mut d2);
        assert_eq!(b2.busy, 100, "600 generic ops at 6/cycle");
    }

    #[test]
    fn memory_ops_are_two_wide() {
        // 64 back-to-back L1 hits: throughput-bound at 2/cycle.
        let (mut h, mut d, mut cpu) = setup();
        cpu.run([Event::load(0)], &mut h, &mut d); // warm the line
        let b = cpu.run(vec![Event::load(0); 64], &mut h, &mut d);
        assert_eq!(b.busy, 32);
    }

    #[test]
    fn mixed_classes_take_the_maximum_requirement() {
        // 16 FP + 16 generic = 32 total: total/6 = 5, fp/4 = 4 => busy 5.
        let (mut h, mut d, mut cpu) = setup();
        let b = cpu.run([Event::FpWork(16), Event::Work(16)], &mut h, &mut d);
        assert_eq!(b.busy, 5);
    }

    #[test]
    fn mispredicts_cost_twelve_cycles() {
        let (mut h, mut d, mut cpu) = setup();
        let b = cpu.run(
            [
                Event::Branch { mispredict: true },
                Event::Branch { mispredict: false },
                Event::Branch { mispredict: true },
            ],
            &mut h,
            &mut d,
        );
        assert_eq!(b.other_stall, 24);
    }

    #[test]
    fn l1_hits_are_free_of_stall() {
        let (mut h, mut d, mut cpu) = setup();
        // Warm one line, then hammer it.
        let warm: Vec<Event> = vec![Event::load(0)];
        cpu.run(warm, &mut h, &mut d);
        let b = cpu.run(vec![Event::load(0); 100], &mut h, &mut d);
        assert_eq!(b.mem_stall, 0);
    }

    #[test]
    fn dependent_misses_expose_full_memory_latency() {
        let (mut h, mut d, mut cpu) = setup();
        // 64 cold dependent loads, far apart: every one is an L2 miss and
        // fully serialized (≥ row-miss or row-hit latency apiece).
        let trace: Vec<Event> = (0..64u64).map(|i| Event::chase(i << 20)).collect();
        let b = cpu.run(trace, &mut h, &mut d);
        assert!(
            b.mem_stall >= 64 * 200,
            "mem stall {} for 64 serialized misses",
            b.mem_stall
        );
    }

    #[test]
    fn independent_misses_overlap() {
        // Addresses chosen to spread across channels and banks (odd line
        // stride), so the window — not the memory system — is the limit.
        let spread = |i: u64| i * 64 * 65;
        let (mut h1, mut d1, mut cpu) = setup();
        let dep: Vec<Event> = (0..64u64).map(|i| Event::chase(spread(i))).collect();
        let b_dep = cpu.run(dep, &mut h1, &mut d1);

        let (mut h2, mut d2, _) = setup();
        let indep: Vec<Event> = (0..64u64).map(|i| Event::load(spread(i))).collect();
        let b_ind = cpu.run(indep, &mut h2, &mut d2);

        assert!(
            b_ind.mem_stall * 2 < b_dep.mem_stall,
            "independent {} vs dependent {}",
            b_ind.mem_stall,
            b_dep.mem_stall
        );
    }

    #[test]
    fn rob_limits_latency_hiding() {
        // A lone miss followed by a long compute tail: with a 128-entry
        // ROB at width 6, only ~21 cycles of the ~224-cycle miss can be
        // hidden — the rest must surface as memory stall.
        let (mut h, mut d, mut cpu) = setup();
        let trace = vec![Event::load(1 << 22), Event::Work(6000)];
        let b = cpu.run(trace, &mut h, &mut d);
        assert!(
            b.mem_stall > 150,
            "ROB must expose most of an isolated miss: stall {}",
            b.mem_stall
        );
        assert!(b.busy >= 1000);
    }

    #[test]
    fn dense_misses_amortize_within_the_rob() {
        // Eight misses issued back-to-back resolve together: total stall
        // is far less than eight full latencies.
        let (mut h, mut d, mut cpu) = setup();
        let mut trace: Vec<Event> = (0..8u64).map(|i| Event::load(i * 64 * 65)).collect();
        trace.push(Event::Work(6000));
        let b = cpu.run(trace, &mut h, &mut d);
        assert!(
            b.mem_stall < 4 * 240,
            "dense misses must overlap: stall {}",
            b.mem_stall
        );
    }

    #[test]
    fn l2_hits_cost_less_than_memory() {
        // Working set fits L2 but not L1: second pass is all L2 hits.
        let (mut h, mut d, mut cpu) = setup();
        let pass: Vec<Event> = (0..1024u64).map(|i| Event::chase(i * 256)).collect();
        cpu.run(pass.clone(), &mut h, &mut d); // cold pass: memory
        let warm = cpu.run(pass, &mut h, &mut d); // warm pass: L2 hits
        let per_load = warm.mem_stall as f64 / 1024.0;
        assert!(
            per_load < 20.0,
            "L2-hit chase should cost ~16 cycles, got {per_load}"
        );
        assert!(per_load > 10.0, "L2 hits are not free, got {per_load}");
    }

    #[test]
    fn breakdown_total_is_consistent() {
        let (mut h, mut d, mut cpu) = setup();
        let b = cpu.run(strided(4096, 5000, 12), &mut h, &mut d);
        assert_eq!(b.total(), b.busy + b.other_stall + b.mem_stall);
        assert!(b.busy > 0 && b.mem_stall > 0);
    }

    #[test]
    fn stall_attribution_partitions_the_breakdown() {
        // The per-cause attribution must account for every stall cycle:
        // memory causes sum to mem_stall, branch equals other_stall.
        let mixes: Vec<Vec<Event>> = vec![
            strided(4096, 5000, 12).collect(),
            (0..64u64).map(|i| Event::chase(i << 20)).collect(),
            (0..256u64)
                .flat_map(|i| [Event::load(i * 64 * 65), Event::Store { addr: i * 64 * 65 }])
                .collect(),
        ];
        for trace in mixes {
            let (mut h, mut d, mut cpu) = setup();
            let b = cpu.run(trace, &mut h, &mut d);
            let s = cpu.last_stall_attribution();
            let mem = s.rob + s.mlp + s.dep + s.store + s.drain;
            assert_eq!(mem, b.mem_stall, "{s:?} vs {b:?}");
            assert_eq!(s.branch, b.other_stall, "{s:?} vs {b:?}");
        }
    }

    #[test]
    fn feeding_in_pieces_matches_one_run() {
        let trace: Vec<Event> = strided(4096, 5000, 12).collect();
        let (mut h1, mut d1, mut whole) = setup();
        let once = whole.run(trace.iter().copied(), &mut h1, &mut d1);
        let (mut h2, mut d2, mut pieces) = setup();
        for piece in trace.chunks(777) {
            pieces.feed(piece.iter().copied(), &mut h2, &mut d2);
        }
        assert_eq!(pieces.finish(), once);
        assert_eq!(
            pieces.last_stall_attribution(),
            whole.last_stall_attribution()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let (mut h, mut d, mut cpu) = setup();
            cpu.run(strided(4096, 5000, 12), &mut h, &mut d)
        };
        assert_eq!(run(), run());
    }
}
