//! Deliberately naive reference implementations ("oracles").
//!
//! Every function and model here recomputes a result the slow, obvious
//! way — plain `/` and `%` arithmetic, `u128` widening instead of wrapping
//! tricks, `Vec` scans instead of packed arrays — so that a bug in a fast
//! path (bit-field extraction, shift-add networks, slot arithmetic) cannot
//! hide in a matching bug here. The [battery](crate::battery) drives the
//! production implementations and these oracles over the same inputs and
//! asserts bit-exact agreement.

use std::collections::HashMap;

use primecache_cache::{
    AccessOutcome, CacheConfig, CacheStats, Evicted, HierarchyConfig, L2Organization,
    ReplacementKind, SkewHashKind, SkewReplacement,
};
use primecache_core::index::{HashKind, SKEW_DISP_FACTORS};
use primecache_cpu::{CpuConfig, ExecBreakdown, StallAttribution};
use primecache_ingest::{TextError, TextErrorKind, MAX_LINE_BYTES};
use primecache_mem::{Completion, DramMapping, DramStats, MemConfig};
use primecache_sim::{MachineConfig, RunResult, Scheme};
use primecache_trace::{Event, FrameError, TraceCodecError};

// ---------------------------------------------------------------------------
// Index-function oracles (crates/core/src/index).
//
// The production indexers carve bit fields with shifts and masks; the
// oracles below derive the same fields with division and remainder, which
// is correct for any power-of-two set count without sharing a single
// operator with the fast path.
// ---------------------------------------------------------------------------

/// Traditional indexing: the low index bits, i.e. `block mod n_set_phys`.
#[must_use]
pub fn ref_traditional(block: u64, n_set_phys: u64) -> u64 {
    block % n_set_phys
}

/// XOR indexing: `x ^ t1` with both fields derived by division.
#[must_use]
pub fn ref_xor(block: u64, n_set_phys: u64) -> u64 {
    let x = block % n_set_phys;
    let t1 = (block / n_set_phys) % n_set_phys;
    x ^ t1
}

/// Fully-folded XOR: fold every base-`n_set_phys` digit of the address.
#[must_use]
pub fn ref_xor_folded(block: u64, n_set_phys: u64) -> u64 {
    let mut h = 0u64;
    let mut v = block;
    while v != 0 {
        h ^= v % n_set_phys;
        v /= n_set_phys;
    }
    h
}

/// Prime modulo: `block mod prime` (the paper's headline function).
#[must_use]
pub fn ref_prime_modulo(block: u64, prime: u64) -> u64 {
    block % prime
}

/// Prime displacement (Eq. 6): `(p·T + x) mod n_set_phys`, computed in
/// `u128` so no wrapping behaviour of the fast path is replicated.
#[must_use]
pub fn ref_prime_displacement(block: u64, n_set_phys: u64, factor: u64) -> u64 {
    let t = u128::from(block / n_set_phys);
    let x = u128::from(block % n_set_phys);
    ((u128::from(factor) * t + x) % u128::from(n_set_phys)) as u64
}

/// Seznec skewing: `rotate(t1, bank) ^ x`, with the circular rotation done
/// arithmetically — rotating an `index_bits`-wide value left by one is
/// `(2v) mod n + (2v) div n` (the top bit wraps to the bottom).
#[must_use]
pub fn ref_skew_xor(block: u64, n_set_phys: u64, bank: u32) -> u64 {
    let x = block % n_set_phys;
    let mut t1 = (block / n_set_phys) % n_set_phys;
    let bits = n_set_phys.trailing_zeros();
    for _ in 0..(bank % bits) {
        let doubled = t1 * 2;
        t1 = doubled % n_set_phys + doubled / n_set_phys;
    }
    t1 ^ x
}

/// Mersenne fold: `a mod (2^k − 1)`, by a plain remainder.
#[must_use]
pub fn ref_mersenne(a: u64, k: u32) -> u64 {
    a % ((1u64 << k) - 1)
}

/// TLB-assisted indexing: the block address modulo the prime, from the
/// byte address.
#[must_use]
pub fn ref_tlb_index(byte_addr: u64, line_size: u64, prime: u64) -> u64 {
    (byte_addr / line_size) % prime
}

/// Subtract&select: `x mod n_set` when `x` is within the selector's reach
/// (`x div n_set < inputs`), `None` otherwise.
#[must_use]
pub fn ref_subtract_select(x: u64, n_set: u64, inputs: u32) -> Option<u64> {
    if x / n_set >= u64::from(inputs) {
        None
    } else {
        Some(x % n_set)
    }
}

/// The largest prime not above `n` (the pMod set count), by trial
/// division.
#[must_use]
fn ref_prev_prime(n: u64) -> u64 {
    (2..=n)
        .rev()
        .find(|&p| (2..p).take_while(|d| d * d <= p).all(|d| p % d != 0))
        .expect("a set count of at least 2")
}

// ---------------------------------------------------------------------------
// Set-associative cache oracle.
// ---------------------------------------------------------------------------

/// Replacement disciplines the textbook cache model understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OraclePolicy {
    /// Least-recently-used: evict the line touched longest ago.
    Lru,
    /// First-in first-out: evict the line filled longest ago.
    Fifo,
}

/// What one oracle access observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleAccess {
    /// The set the block maps to (in bank 0, for a skewed cache): where
    /// demand statistics attribute the access.
    pub set: usize,
    /// Whether the block was resident.
    pub hit: bool,
    /// The valid line this access's fill evicted, clean or dirty, if
    /// any.
    pub evicted: Option<Evicted>,
}

#[derive(Debug, Clone, Copy)]
struct OracleLine {
    block: u64,
    dirty: bool,
}

/// A textbook set-associative cache: one `Vec` per set, ordered oldest →
/// newest, scanned linearly. Under LRU a hit moves the line to the back;
/// under FIFO the order is pure insertion order.
pub struct OracleCache {
    sets: Vec<Vec<OracleLine>>,
    assoc: usize,
    policy: OraclePolicy,
    index: Box<dyn Fn(u64) -> u64>,
}

impl OracleCache {
    /// Creates the model with `n_set` sets of `assoc` ways, using `index`
    /// to place blocks.
    #[must_use]
    pub fn new(
        n_set: usize,
        assoc: usize,
        policy: OraclePolicy,
        index: impl Fn(u64) -> u64 + 'static,
    ) -> Self {
        assert!(n_set > 0 && assoc > 0);
        Self {
            sets: vec![Vec::new(); n_set],
            assoc,
            policy,
            index: Box::new(index),
        }
    }

    /// Simulates one access to a block address.
    pub fn access_block(&mut self, block: u64, write: bool) -> OracleAccess {
        let index = (self.index)(block) as usize;
        let set = &mut self.sets[index];
        if let Some(pos) = set.iter().position(|l| l.block == block) {
            let mut line = set.remove(pos);
            line.dirty |= write;
            match self.policy {
                // LRU: a hit makes the line the newest.
                OraclePolicy::Lru => set.push(line),
                // FIFO: a hit leaves the insertion order untouched.
                OraclePolicy::Fifo => set.insert(pos, line),
            }
            return OracleAccess {
                set: index,
                hit: true,
                evicted: None,
            };
        }
        let mut evicted = None;
        if set.len() == self.assoc {
            let line = set.remove(0);
            evicted = Some(Evicted {
                block: line.block,
                dirty: line.dirty,
            });
        }
        set.push(OracleLine {
            block,
            dirty: write,
        });
        OracleAccess {
            set: index,
            hit: false,
            evicted,
        }
    }

    /// Number of lines currently resident in set `set`.
    #[must_use]
    pub fn occupancy(&self, set: usize) -> usize {
        self.sets[set].len()
    }
}

// ---------------------------------------------------------------------------
// Skewed-associative cache oracle.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SkewLine {
    block: u64,
    dirty: bool,
    r: bool,
    w: bool,
}

/// A plain-structured skewed-associative cache: banks are separate
/// two-dimensional grids of `Option<line>` rather than one flat slab, and
/// the inter-bank ENRU/NRUNRW policy is restated from its §5.3 description
/// (invalid first, then the least-privileged usage class, round-robin
/// among ties, with aging once every candidate is referenced).
///
/// One behaviour is not the textbook one: a write hit leaves the line
/// clean (see its private `write_hit`), mirroring a known defect of the
/// production cache.
pub struct OracleSkewed {
    /// `banks[b][set][way]`.
    banks: Vec<Vec<Vec<Option<SkewLine>>>>,
    index_fns: Vec<Box<dyn Fn(u64) -> u64>>,
    /// `true` = NRUNRW (r and w bits), `false` = ENRU (r bit only).
    write_aware: bool,
    rr: u32,
}

impl OracleSkewed {
    /// Creates the model: one index function per bank, each bank holding
    /// `sets_per_bank × ways` lines.
    #[must_use]
    pub fn new(
        sets_per_bank: usize,
        ways: usize,
        write_aware: bool,
        index_fns: Vec<Box<dyn Fn(u64) -> u64>>,
    ) -> Self {
        assert!(!index_fns.is_empty() && sets_per_bank > 0 && ways > 0);
        Self {
            banks: vec![vec![vec![None; ways]; sets_per_bank]; index_fns.len()],
            index_fns,
            write_aware,
            rr: 0,
        }
    }

    fn class(&self, line: &SkewLine) -> u32 {
        if self.write_aware {
            (u32::from(line.r) << 1) | u32::from(line.w)
        } else {
            u32::from(line.r)
        }
    }

    /// The candidate (bank, set, way) coordinates of a block, in the same
    /// bank-major order the production cache scans.
    fn candidates(&self, block: u64) -> Vec<(usize, usize, usize)> {
        let ways = self.banks[0][0].len();
        let mut out = Vec::new();
        for (b, index) in self.index_fns.iter().enumerate() {
            let set = index(block) as usize;
            for way in 0..ways {
                out.push((b, set, way));
            }
        }
        out
    }

    fn line(&self, c: (usize, usize, usize)) -> &Option<SkewLine> {
        &self.banks[c.0][c.1][c.2]
    }

    /// Clears usage bits of every candidate except `keep` once all valid
    /// candidates are referenced (Seznec's aging).
    fn age(&mut self, cands: &[(usize, usize, usize)], keep: usize) {
        let saturated = cands.iter().all(|&c| self.line(c).is_none_or(|l| l.r));
        if saturated {
            for (i, &(b, s, w)) in cands.iter().enumerate() {
                if i != keep {
                    if let Some(l) = &mut self.banks[b][s][w] {
                        l.r = false;
                        l.w = false;
                    }
                }
            }
        }
    }

    /// A write hit as `SkewedCache` performs it, a known production
    /// defect mirrored here: it sets only the NRUNRW `w` bit and leaves
    /// the line clean, so the written data never reaches memory. A
    /// textbook write-back cache also sets `dirty`. ROADMAP.md's open
    /// item "Fix the skewed L2's lost write hits" records the fix, which
    /// adds that one line here and one in the cache.
    fn write_hit(line: &mut SkewLine) {
        line.w = true;
    }

    /// Simulates one access to a block address.
    pub fn access_block(&mut self, block: u64, write: bool) -> OracleAccess {
        let cands = self.candidates(block);
        let set = cands[0].1;
        for (i, &(b, s, w)) in cands.iter().enumerate() {
            if let Some(l) = &mut self.banks[b][s][w] {
                if l.block == block {
                    l.r = true;
                    if write {
                        Self::write_hit(l);
                    }
                    self.age(&cands, i);
                    return OracleAccess {
                        set,
                        hit: true,
                        evicted: None,
                    };
                }
            }
        }
        // Miss: invalid slot first, else round-robin over the best class.
        let victim_i = match (0..cands.len()).find(|&i| self.line(cands[i]).is_none()) {
            Some(i) => i,
            None => {
                let best = cands
                    .iter()
                    .map(|&c| self.class(&self.line(c).expect("all valid")))
                    .min()
                    .expect("non-empty candidates");
                self.rr = self.rr.wrapping_add(1);
                let n = cands.len();
                let start = self.rr as usize % n;
                (0..n)
                    .map(|off| (start + off) % n)
                    .find(|&i| self.class(&self.line(cands[i]).expect("all valid")) == best)
                    .expect("best class present")
            }
        };
        let (b, s, w) = cands[victim_i];
        let evicted = self.banks[b][s][w].map(|l| Evicted {
            block: l.block,
            dirty: l.dirty,
        });
        self.banks[b][s][w] = Some(SkewLine {
            block,
            dirty: write,
            r: true,
            w: write,
        });
        self.age(&cands, victim_i);
        OracleAccess {
            set,
            hit: false,
            evicted,
        }
    }
}

// ---------------------------------------------------------------------------
// Victim-cache oracle.
// ---------------------------------------------------------------------------

/// What one victim-cache oracle access observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VictimAccess {
    /// Whether the access hit (main cache or victim buffer).
    pub hit: bool,
    /// Whether the hit was served by the victim buffer.
    pub from_buffer: bool,
    /// Dirty blocks pushed out of the buffer to memory by this access.
    pub writebacks: Vec<u64>,
}

/// A textbook victim cache: an [`OracleCache`] main array plus an ordered
/// buffer (front = oldest). Matching the production model, only dirty
/// evictions are parked, and a buffer hit removes the entry without
/// re-inserting the displaced main-cache line.
pub struct OracleVictim {
    main: OracleCache,
    buffer: Vec<(u64, bool)>,
    capacity: usize,
}

impl OracleVictim {
    /// Creates the model with `entries` buffer slots over a main cache.
    #[must_use]
    pub fn new(main: OracleCache, entries: usize) -> Self {
        assert!(entries > 0);
        Self {
            main,
            buffer: Vec::new(),
            capacity: entries,
        }
    }

    fn park(&mut self, block: u64, dirty: bool, spilled: &mut Vec<u64>) {
        if self.buffer.len() == self.capacity {
            let (old, was_dirty) = self.buffer.remove(0);
            if was_dirty {
                spilled.push(old);
            }
        }
        self.buffer.push((block, dirty));
    }

    /// Simulates one access to a block address.
    pub fn access_block(&mut self, block: u64, write: bool) -> VictimAccess {
        let mut writebacks = Vec::new();
        let main = self.main.access_block(block, write);
        if let Some(victim) = main.evicted.filter(|v| v.dirty) {
            self.park(victim.block, true, &mut writebacks);
        }
        if main.hit {
            return VictimAccess {
                hit: true,
                from_buffer: false,
                writebacks,
            };
        }
        if let Some(pos) = self.buffer.iter().position(|&(b, _)| b == block) {
            self.buffer.remove(pos);
            return VictimAccess {
                hit: true,
                from_buffer: true,
                writebacks,
            };
        }
        VictimAccess {
            hit: false,
            from_buffer: false,
            writebacks,
        }
    }
}

// ---------------------------------------------------------------------------
// DRAM oracle.
// ---------------------------------------------------------------------------

/// A straight-line re-derivation of the event-driven DRAM model: the
/// address decomposition is restated digit-by-digit, and per-bank state
/// lives in `HashMap`s keyed by the decomposed coordinates instead of flat
/// pre-sized vectors.
pub struct OracleDram {
    cfg: MemConfig,
    stats: DramStats,
    /// Open row per (channel, bank-in-channel).
    open_rows: HashMap<(u64, u64), u64>,
    /// Cycle each (channel, bank-in-channel) becomes free.
    bank_free: HashMap<(u64, u64), u64>,
    /// Cycle each channel's bus becomes free.
    bus_free: HashMap<u64, u64>,
}

impl OracleDram {
    /// Creates the model for a memory configuration.
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        Self {
            cfg,
            stats: DramStats::default(),
            open_rows: HashMap::new(),
            bank_free: HashMap::new(),
            bus_free: HashMap::new(),
        }
    }

    /// Request counts so far.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Naive address decomposition into (channel, bank-in-channel, row):
    /// lines interleave across channels, rows across banks, with the
    /// optional permutation XOR restated from its description.
    fn map(&self, addr: u64) -> (u64, u64, u64) {
        let line = addr / self.cfg.line_bytes;
        let channel = line % u64::from(self.cfg.channels);
        let line_in_channel = line / u64::from(self.cfg.channels);
        let lines_per_row = self.cfg.row_bytes / self.cfg.line_bytes;
        let row_linear = line_in_channel / lines_per_row;
        let banks = u64::from(self.cfg.banks_per_channel);
        let mut bank = row_linear % banks;
        let row = row_linear / banks;
        if self.cfg.mapping == DramMapping::PermutationBased {
            bank ^= row % banks;
        }
        (channel, bank, row)
    }

    /// Simulates one request; returns what the production model's
    /// [`Completion`] must equal.
    pub fn request(&mut self, addr: u64, now: u64, write: bool) -> Completion {
        let (channel, bank, row) = self.map(addr);
        let key = (channel, bank);
        let row_hit = self.open_rows.get(&key) == Some(&row);
        self.open_rows.insert(key, row);

        let service = if row_hit {
            self.cfg.row_hit_cycles
        } else {
            self.cfg.row_miss_cycles
        };
        let bank_busy = if row_hit {
            self.cfg.bank_busy_row_hit
        } else {
            self.cfg.bank_busy_row_miss
        };
        let bus_occ = self.cfg.bus_occupancy_cycles();
        let start = now.max(*self.bank_free.get(&key).unwrap_or(&0));
        let tentative = start + service;
        let data_start = tentative
            .saturating_sub(bus_occ)
            .max(*self.bus_free.get(&channel).unwrap_or(&0));
        let complete = data_start + bus_occ;
        self.bank_free.insert(key, start + bank_busy);
        self.bus_free.insert(channel, complete);
        // Queueing is whatever the request waited beyond its service.
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.stats.queue_cycles += complete - now - service;
        Completion {
            complete,
            latency: complete - now,
            row_hit,
        }
    }
}

// ---------------------------------------------------------------------------
// CPU timing oracle (crates/cpu).
//
// Restated from the rules in the `primecache-cpu` crate docs: busy time
// is recomputed from the class totals with plain `/` after every issue,
// and in-flight loads and stores are plain `Vec`s scanned linearly.
// ---------------------------------------------------------------------------

/// The memory side [`OracleCpu`] drives: the caches, and the DRAM behind
/// them.
pub trait OracleMemory {
    /// One demand access: which level served it, and the byte addresses
    /// of the dirty L2 victims it sends to memory, in eviction order.
    fn access(&mut self, addr: u64, write: bool) -> (AccessOutcome, Vec<u64>);

    /// One DRAM request issued at cycle `now`; returns the cycle it
    /// completes.
    fn dram(&mut self, addr: u64, now: u64, write: bool) -> u64;
}

/// A straight-line restatement of the trace-driven core model, over any
/// [`OracleMemory`].
pub struct OracleCpu {
    cfg: CpuConfig,
    clock: u64,
    busy: u64,
    other: u64,
    mem_stall: u64,
    stalls: StallAttribution,
    /// Instructions issued: all, FP, loads and stores.
    all: u64,
    fp: u64,
    mem: u64,
    /// In-flight loads as `(completion, instructions issued when it
    /// issued)`, oldest first.
    loads: Vec<(u64, u64)>,
    /// Completion times of in-flight stores, in no particular order.
    stores: Vec<u64>,
}

impl OracleCpu {
    /// A core with the given configuration, before its first event.
    #[must_use]
    pub fn new(cfg: CpuConfig) -> Self {
        Self {
            cfg,
            clock: 0,
            busy: 0,
            other: 0,
            mem_stall: 0,
            stalls: StallAttribution::default(),
            all: 0,
            fp: 0,
            mem: 0,
            loads: Vec::new(),
            stores: Vec::new(),
        }
    }

    /// Runs `events` from a clean pipeline and returns the breakdown and
    /// its stall attribution.
    pub fn run(
        mut self,
        events: &[Event],
        memory: &mut impl OracleMemory,
    ) -> (ExecBreakdown, StallAttribution) {
        for &ev in events {
            self.retire_and_bound();
            match ev {
                Event::Work(n) => self.issue_run(u64::from(n), false),
                Event::FpWork(n) => self.issue_run(u64::from(n), true),
                Event::Branch { mispredict } => {
                    self.issue(1, false, false);
                    if mispredict {
                        self.clock += self.cfg.branch_penalty;
                        self.other += self.cfg.branch_penalty;
                        self.stalls.branch += self.cfg.branch_penalty;
                    }
                }
                Event::Load { addr, dep } => {
                    self.issue(1, false, true);
                    let (done, writes) = self.access(addr, false, memory);
                    if let Some(done) = done {
                        if dep {
                            self.stalls.dep += self.stall_to(done);
                        } else {
                            if self.loads.len() >= self.cfg.max_pending_loads {
                                let (oldest, _) = self.loads.remove(0);
                                self.stalls.mlp += self.stall_to(oldest);
                                self.retire();
                            }
                            self.loads.push((done, self.all));
                        }
                    }
                    self.write_back(writes, memory);
                }
                Event::Store { addr } => {
                    self.issue(1, false, true);
                    let (done, writes) = self.access(addr, true, memory);
                    if let Some(done) = done {
                        if self.stores.len() >= self.cfg.max_pending_stores {
                            let first = (0..self.stores.len())
                                .min_by_key(|&i| self.stores[i])
                                .expect("a full store buffer is not empty");
                            let earliest = self.stores.remove(first);
                            self.stalls.store += self.stall_to(earliest);
                        }
                        self.stores.push(done);
                    }
                    self.write_back(writes, memory);
                }
            }
        }
        if let Some(last) = self.loads.iter().map(|&(done, _)| done).max() {
            self.stalls.drain += self.stall_to(last);
        }
        let breakdown = ExecBreakdown {
            busy: self.busy,
            other_stall: self.other,
            mem_stall: self.mem_stall,
        };
        (breakdown, self.stalls)
    }

    /// Issues `n` instructions and raises busy time (and the clock) to
    /// the bound the class totals set.
    fn issue(&mut self, n: u64, fp: bool, mem: bool) {
        self.all += n;
        if fp {
            self.fp += n;
        }
        if mem {
            self.mem += n;
        }
        let need = (self.all / u64::from(self.cfg.issue_width))
            .max(self.fp / u64::from(self.cfg.fp_width))
            .max(self.mem / u64::from(self.cfg.mem_width));
        if need > self.busy {
            self.clock += need - self.busy;
            self.busy = need;
        }
    }

    /// `Work(n)` / `FpWork(n)`: chunks of a quarter ROB, with the retire
    /// and ROB step between chunks.
    fn issue_run(&mut self, n: u64, fp: bool) {
        let chunk = (self.cfg.rob_size / 4).max(1);
        let mut left = n;
        while left > 0 {
            let step = left.min(chunk);
            self.issue(step, fp, false);
            left -= step;
            if left > 0 {
                self.retire_and_bound();
            }
        }
    }

    /// Stalls until `t` if `t` is later; returns the cycles stalled.
    fn stall_to(&mut self, t: u64) -> u64 {
        let wait = t.saturating_sub(self.clock);
        self.clock += wait;
        self.mem_stall += wait;
        wait
    }

    /// Drops complete loads from the oldest, and every complete store.
    fn retire(&mut self) {
        while !self.loads.is_empty() && self.loads[0].0 <= self.clock {
            self.loads.remove(0);
        }
        let clock = self.clock;
        self.stores.retain(|&done| done > clock);
    }

    /// Retires, then waits out every oldest load the ROB bound holds.
    fn retire_and_bound(&mut self) {
        self.retire();
        while !self.loads.is_empty() && self.all - self.loads[0].1 >= self.cfg.rob_size {
            let (oldest, _) = self.loads.remove(0);
            self.stalls.rob += self.stall_to(oldest);
            self.retire();
        }
    }

    /// One access: `None` on an L1 hit, else its completion time; and
    /// the memory writes it caused.
    fn access(
        &self,
        addr: u64,
        write: bool,
        memory: &mut impl OracleMemory,
    ) -> (Option<u64>, Vec<u64>) {
        let at_l2 = self.clock + self.cfg.l2_hit_cycles;
        let (outcome, writes) = memory.access(addr, write);
        let done = match outcome {
            AccessOutcome::L1Hit => None,
            AccessOutcome::L2Hit => Some(at_l2),
            AccessOutcome::Memory => Some(memory.dram(addr, at_l2, false)),
        };
        (done, writes)
    }

    /// Writes an access's dirty L2 victims to DRAM at the current clock.
    fn write_back(&self, writes: Vec<u64>, memory: &mut impl OracleMemory) {
        for addr in writes {
            memory.dram(addr, self.clock, true);
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-machine oracle (crates/cache/src/hierarchy.rs, crates/sim).
//
// Composes the cache, DRAM and CPU oracles above, restating the
// hierarchy's composition from the `Hierarchy` docs: the L1 probe, then
// the L2 demand read, then the L1 victim's write into the L2, with every
// dirty L2 victim sent to memory in eviction order. Statistics are
// counted here, field by field, from the `CacheStats` docs: the L1's,
// the L2's demand traffic, and the L2 cache's own (every access and
// eviction).
// ---------------------------------------------------------------------------

/// A block-level L2 oracle behind one access function.
type OracleL2 = Box<dyn FnMut(u64, bool) -> OracleAccess>;

/// Counts one access as the `CacheStats` fields define it.
fn count_access(stats: &mut CacheStats, access: &OracleAccess, write: bool) {
    let (set, hit) = (access.set, access.hit);
    stats.accesses += 1;
    stats.set_accesses[set] += 1;
    if write {
        stats.writes += 1;
    }
    if hit {
        stats.hits += 1;
    } else {
        stats.misses += 1;
        stats.set_misses[set] += 1;
    }
}

/// Counts what one access evicted as the `CacheStats` fields define it:
/// an eviction in the access's set (the per-set counts are empty until
/// the first one), and a writeback if it was dirty.
fn count_eviction(stats: &mut CacheStats, access: &OracleAccess) {
    if let Some(victim) = access.evicted {
        if stats.set_evictions.is_empty() {
            stats.set_evictions = vec![0; stats.set_accesses.len()];
        }
        stats.evictions += 1;
        stats.set_evictions[access.set] += 1;
        if victim.dirty {
            stats.writebacks += 1;
        }
    }
}

/// Number of sets and the index function of a set-associative cache.
pub(crate) fn ref_set_index(c: CacheConfig) -> (u64, Box<dyn Fn(u64) -> u64>) {
    let phys = c.n_set_phys();
    match c.hash() {
        HashKind::Traditional => (phys, Box::new(move |b| ref_traditional(b, phys))),
        HashKind::Xor => (phys, Box::new(move |b| ref_xor(b, phys))),
        HashKind::PrimeModulo => {
            let p = ref_prev_prime(phys);
            (p, Box::new(move |b| ref_prime_modulo(b, p)))
        }
        HashKind::PrimeDisplacement => {
            (phys, Box::new(move |b| ref_prime_displacement(b, phys, 9)))
        }
        // The expression's tree walk, not its compiled program.
        HashKind::Expr(id) => (id.n_set(), Box::new(move |b| id.ast().eval(b))),
    }
}

/// Index function of bank `bank` of a skewed cache.
pub(crate) fn ref_bank_index(hash: SkewHashKind, sets: u64, bank: u32) -> Box<dyn Fn(u64) -> u64> {
    match hash {
        SkewHashKind::Xor => Box::new(move |b| ref_skew_xor(b, sets, bank)),
        SkewHashKind::PrimeDisplacement => {
            // The four paper factors in turn, each repeat beyond the
            // fourth bank raised by 82 so the factors stay odd and distinct.
            let (bank, n) = (u64::from(bank), SKEW_DISP_FACTORS.len() as u64);
            let factor = SKEW_DISP_FACTORS[(bank % n) as usize] + 2 * (bank / n) * 41;
            Box::new(move |b| ref_prime_displacement(b, sets, factor))
        }
    }
}

/// The L2 oracle an organization describes, and its number of demand
/// statistics sets (bank 0's for a skewed cache, one pseudo-set for FA).
fn oracle_l2(org: L2Organization) -> (OracleL2, u64) {
    match org {
        L2Organization::SetAssoc(c) => {
            let policy = match c.replacement() {
                ReplacementKind::Lru => OraclePolicy::Lru,
                ReplacementKind::Fifo => OraclePolicy::Fifo,
                other => panic!("no oracle for {other:?} replacement"),
            };
            let (sets, index) = ref_set_index(c);
            let mut cache = OracleCache::new(sets as usize, c.assoc() as usize, policy, index);
            (Box::new(move |b, w| cache.access_block(b, w)), sets)
        }
        L2Organization::Skewed(c) => {
            let sets = c.sets_per_bank();
            let banks = (0..c.banks())
                .map(|bank| ref_bank_index(c.hash(), sets, bank))
                .collect();
            let write_aware = c.replacement() == SkewReplacement::Nrunrw;
            let ways = c.ways_per_bank() as usize;
            let mut cache = OracleSkewed::new(sets as usize, ways, write_aware, banks);
            (Box::new(move |b, w| cache.access_block(b, w)), sets)
        }
        L2Organization::FullyAssociative {
            size_bytes,
            line_bytes,
        } => {
            let lines = (size_bytes / line_bytes) as usize;
            let mut cache = OracleCache::new(1, lines, OraclePolicy::Lru, |_| 0);
            (Box::new(move |b, w| cache.access_block(b, w)), 1)
        }
    }
}

/// The two-level hierarchy restated from the `Hierarchy` docs: an LRU
/// [`OracleCache`] L1 under traditional indexing over the scheme's L2
/// oracle, with no prefetching.
pub struct OracleCaches {
    l1: OracleCache,
    l1_line: u64,
    l1_stats: CacheStats,
    l2: OracleL2,
    l2_line: u64,
    l2_demand: CacheStats,
    l2_cache: CacheStats,
}

impl OracleCaches {
    /// The model of `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` prefetches, or if its L1 is not an LRU cache
    /// under traditional indexing.
    #[must_use]
    pub fn new(config: &HierarchyConfig) -> Self {
        let l1 = config.l1;
        assert_eq!(config.prefetch_depth, 0, "no prefetching in the oracle");
        assert_eq!(l1.hash(), HashKind::Traditional, "a traditional L1");
        assert_eq!(l1.replacement(), ReplacementKind::Lru, "an LRU L1");
        let l1_sets = l1.n_set_phys();
        let (l2, l2_sets) = oracle_l2(config.l2);
        Self {
            l1: OracleCache::new(
                l1_sets as usize,
                l1.assoc() as usize,
                OraclePolicy::Lru,
                move |b| ref_traditional(b, l1_sets),
            ),
            l1_line: l1.line_bytes(),
            l1_stats: CacheStats::new(l1_sets as usize),
            l2,
            l2_line: config.l2.line_bytes(),
            l2_demand: CacheStats::new(l2_sets as usize),
            l2_cache: CacheStats::new(l2_sets as usize),
        }
    }

    /// One access to the L2 cache, counted in its own statistics.
    fn l2_access(&mut self, block: u64, write: bool) -> OracleAccess {
        let access = (self.l2)(block, write);
        count_access(&mut self.l2_cache, &access, write);
        count_eviction(&mut self.l2_cache, &access);
        access
    }

    /// One demand access: which level served it, and the block addresses
    /// of the dirty L2 victims it sends to memory, in eviction order.
    pub fn access(&mut self, addr: u64, write: bool) -> (AccessOutcome, Vec<u64>) {
        // 1. The L1 probe; a hit ends the access.
        let l1_block = addr / self.l1_line;
        let l1 = self.l1.access_block(l1_block, write);
        count_access(&mut self.l1_stats, &l1, write);
        count_eviction(&mut self.l1_stats, &l1);
        if l1.hit {
            return (AccessOutcome::L1Hit, Vec::new());
        }
        // 2. The L2 demand read, counted in the demand statistics with
        //    the access's write flag.
        let block = addr / self.l2_line;
        let demand = self.l2_access(block, false);
        count_access(&mut self.l2_demand, &demand, write);
        let dirty_block = |a: OracleAccess| a.evicted.filter(|v| v.dirty).map(|v| v.block);
        let mut to_memory: Vec<u64> = dirty_block(demand).into_iter().collect();
        // 3. The L1 fill's dirty victim is written into the L2.
        if let Some(victim) = l1.evicted.filter(|v| v.dirty) {
            let victim_block = victim.block * self.l1_line / self.l2_line;
            to_memory.extend(dirty_block(self.l2_access(victim_block, true)));
        }
        let outcome = if demand.hit {
            AccessOutcome::L2Hit
        } else {
            AccessOutcome::Memory
        };
        (outcome, to_memory)
    }

    /// L1 statistics so far.
    #[must_use]
    pub fn l1_stats(&self) -> &CacheStats {
        &self.l1_stats
    }

    /// L2 demand statistics so far: L1 misses only.
    #[must_use]
    pub fn l2_stats(&self) -> &CacheStats {
        &self.l2_demand
    }

    /// The L2 cache's own statistics so far: demand reads and L1
    /// victims' writes, and every eviction they caused.
    #[must_use]
    pub fn l2_cache_stats(&self) -> &CacheStats {
        &self.l2_cache
    }
}

impl OracleMemory for (OracleCaches, OracleDram) {
    fn access(&mut self, addr: u64, write: bool) -> (AccessOutcome, Vec<u64>) {
        let (outcome, blocks) = self.0.access(addr, write);
        let line = self.0.l2_line;
        (outcome, blocks.into_iter().map(|b| b * line).collect())
    }

    fn dram(&mut self, addr: u64, now: u64, write: bool) -> u64 {
        self.1.request(addr, now, write).complete
    }
}

/// The whole simulated machine restated from its docs: an
/// [`OracleCaches`] over an [`OracleDram`], driven by an
/// [`OracleCpu`]. It runs no production cache, DRAM or core code, so
/// `run_trace` must match it exactly.
pub struct OracleMachine {
    scheme: Scheme,
    cpu: CpuConfig,
    memory: (OracleCaches, OracleDram),
}

impl OracleMachine {
    /// The model of `scheme` on `machine`.
    #[must_use]
    pub fn new(machine: &MachineConfig, scheme: Scheme) -> Self {
        Self {
            scheme,
            cpu: machine.cpu,
            memory: (
                OracleCaches::new(&machine.hierarchy_config(scheme)),
                OracleDram::new(machine.mem),
            ),
        }
    }

    /// Runs `events` from cold caches and returns what `run_trace` must.
    #[must_use]
    pub fn run(mut self, events: &[Event]) -> RunResult {
        let (breakdown, _) = OracleCpu::new(self.cpu).run(events, &mut self.memory);
        let (hierarchy, dram) = self.memory;
        RunResult {
            scheme: self.scheme,
            breakdown,
            l1: hierarchy.l1_stats,
            l2: hierarchy.l2_demand,
            dram: dram.stats,
        }
    }
}

// ---------------------------------------------------------------------------
// Text trace oracle (crates/ingest/src/text.rs).
//
// The importer parses bytes in place as they stream through a buffer.
// The reference parses `&str` lines with `split_once`,
// `split_ascii_whitespace` and the standard integer parsers, over the
// whole input split at newlines, so the two share no technique.
// ---------------------------------------------------------------------------

/// What reading a whole text trace yields: the events before the first
/// error, that error, and the line counts `TextEvents` reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextRead {
    /// Events in input order, up to the first error.
    pub events: Vec<Event>,
    /// The first error, which ends the stream.
    pub error: Option<TextError>,
    /// Lines consumed, the failing one included.
    pub lines: u64,
    /// Lines among them that carried no event.
    pub silent_lines: u64,
}

/// Hex address with optional `0x`/`0X` prefix and `,size` suffix; the
/// grammar admits no sign, which `from_str_radix` would take.
fn ref_parse_addr(token: &str) -> Result<u64, TextErrorKind> {
    let bad = || TextErrorKind::BadAddress(token.to_string());
    let (addr, size) = match token.split_once(',') {
        Some((a, s)) => (a, Some(s)),
        None => (token, None),
    };
    if let Some(size) = size {
        if size.is_empty() || !size.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad());
        }
    }
    let digits = addr
        .strip_prefix("0x")
        .or_else(|| addr.strip_prefix("0X"))
        .unwrap_or(addr);
    if digits.is_empty() || digits.starts_with('+') {
        return Err(bad());
    }
    u64::from_str_radix(digits, 16).map_err(|_| bad())
}

/// Decimal `u32` count, unsigned as the grammar says.
fn ref_parse_count(token: &str) -> Result<u32, TextErrorKind> {
    let bad = || TextErrorKind::BadCount(token.to_string());
    if token.starts_with('+') {
        return Err(bad());
    }
    token.parse::<u32>().map_err(|_| bad())
}

/// Parses one line (already UTF-8, terminator stripped). `Ok(None)` is
/// a blank or comment-only line.
///
/// # Errors
///
/// The grammar's error class for the first field that fails.
fn ref_parse_line(line: &str) -> Result<Option<Event>, TextErrorKind> {
    let line = line.split_once('#').map_or(line, |(pre, _)| pre);
    let mut fields = line.split_ascii_whitespace();
    let Some(tag) = fields.next() else {
        return Ok(None);
    };
    let addr_field =
        |fields: &mut std::str::SplitAsciiWhitespace<'_>| -> Result<u64, TextErrorKind> {
            ref_parse_addr(
                fields
                    .next()
                    .ok_or(TextErrorKind::MissingField("address"))?,
            )
        };
    let event = match tag {
        "I" => {
            let _ = addr_field(&mut fields)?;
            Event::Work(1)
        }
        "L" => {
            let addr = addr_field(&mut fields)?;
            let dep = match fields.next() {
                None => false,
                Some("d") => true,
                Some(other) => return Err(TextErrorKind::BadMarker(other.to_string())),
            };
            Event::Load { addr, dep }
        }
        "S" => Event::Store {
            addr: addr_field(&mut fields)?,
        },
        "W" => Event::Work(ref_parse_count(
            fields.next().ok_or(TextErrorKind::MissingField("count"))?,
        )?),
        "F" => Event::FpWork(ref_parse_count(
            fields.next().ok_or(TextErrorKind::MissingField("count"))?,
        )?),
        "B" => Event::Branch {
            mispredict: match fields.next() {
                None => false,
                Some("m") => true,
                Some(other) => return Err(TextErrorKind::BadMarker(other.to_string())),
            },
        },
        other => return Err(TextErrorKind::UnknownTag(other.to_string())),
    };
    if let Some(extra) = fields.next() {
        return Err(TextErrorKind::TrailingField(extra.to_string()));
    }
    Ok(Some(event))
}

/// Reads a whole text trace: split at `\n`, look at no more than
/// `MAX_LINE_BYTES + 2` bytes of each line (newline included), strip
/// the newline and then one `\r`, reject a longer remainder, check
/// UTF-8, then `ref_parse_line`.
#[must_use]
pub fn ref_read_text(data: &[u8]) -> TextRead {
    let mut out = TextRead::default();
    let mut rest = data;
    while !rest.is_empty() {
        out.lines += 1;
        let len = rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
        let (line, tail) = rest.split_at(len);
        rest = tail;
        let seen = &line[..line.len().min(MAX_LINE_BYTES + 2)];
        let text = match seen.strip_suffix(b"\n") {
            Some(l) => l.strip_suffix(b"\r").unwrap_or(l),
            None => seen,
        };
        let parsed = if text.len() > MAX_LINE_BYTES {
            Err(TextErrorKind::LineTooLong(text.len()))
        } else {
            std::str::from_utf8(text).map_or(Err(TextErrorKind::NotUtf8), ref_parse_line)
        };
        match parsed {
            Ok(Some(ev)) => out.events.push(ev),
            Ok(None) => {}
            Err(kind) => {
                out.error = Some(TextError {
                    line: out.lines,
                    kind,
                });
                break;
            }
        }
    }
    out.silent_lines = out.lines - out.events.len() as u64;
    out
}

// ---------------------------------------------------------------------------
// PCTE frame oracle (crates/trace/src/encode.rs).
//
// Restated from TRACE_FORMAT.md: header fields are little-endian byte
// folds, an event is one `match` on its (kind, flag) pair, varints
// accumulate in a `u128` group by group, and a zigzag delta is undone in
// `i128`. Nothing but the `Event` and error types is shared with
// `primecache-trace`. A failure is the first one met in byte order, at
// the offset of the field or event that holds it.
// ---------------------------------------------------------------------------

/// A frame as [`ref_decode_frame`] reads it, with the layout a fuzzer
/// aims its mutations by.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefFrame {
    /// Every event, in order.
    pub events: Vec<Event>,
    /// The header's encoder chunk size.
    pub chunk_events: usize,
    /// Each chunk's event count, in order.
    pub chunks: Vec<usize>,
    /// Byte offset of each chunk header.
    pub chunk_offsets: Vec<usize>,
    /// Byte offset of each event's tag byte.
    pub tag_offsets: Vec<usize>,
}

/// A LEB128 varint read group by group: a missing byte is truncation;
/// an 11th group, or a 10th past the top bit of a `u64`, overflows.
fn ref_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceCodecError> {
    let mut value = 0u128;
    for group in 0u32.. {
        let byte = *bytes.get(*pos).ok_or(TraceCodecError::Truncated)?;
        *pos += 1;
        value += u128::from(byte & 0x7F) << (7 * group);
        if group >= 10 || value > u128::from(u64::MAX) {
            return Err(TraceCodecError::Corrupt("varint overflows 64 bits"));
        }
        if byte < 0x80 {
            return Ok(u64::try_from(value).expect("checked against u64::MAX"));
        }
    }
    unreachable!("the group counter is unbounded")
}

/// Decodes one chunk payload, appending its events and their tag
/// offsets (relative to the payload); a failure carries its payload
/// offset.
fn ref_decode_chunk(
    payload: &[u8],
    count: u32,
    base_addr: u64,
    events: &mut Vec<Event>,
    tags: &mut Vec<usize>,
) -> Result<(), (usize, TraceCodecError)> {
    let mut prev = base_addr;
    let mut pos = 0;
    for _ in 0..count {
        let start = pos;
        let at = |e| (start, e);
        let tag = *payload.get(pos).ok_or(at(TraceCodecError::Truncated))?;
        pos += 1;
        let (kind, flag, nibble) = (tag % 8, (tag / 8) % 2 == 1, tag / 16);
        let event = match (kind, flag) {
            (0 | 1, false) => {
                let n = if nibble < 15 {
                    u64::from(nibble)
                } else {
                    ref_varint(payload, &mut pos).map_err(at)?
                };
                let n = u32::try_from(n)
                    .map_err(|_| at(TraceCodecError::Corrupt("work count exceeds u32")))?;
                if kind == 0 {
                    Event::Work(n)
                } else {
                    Event::FpWork(n)
                }
            }
            (2, mispredict) if nibble == 0 => Event::Branch { mispredict },
            (3, _) | (4, false) => {
                let high = ref_varint(payload, &mut pos).map_err(at)?;
                let z = u128::from(high) * 16 + u128::from(nibble);
                if z > u128::from(u64::MAX) {
                    return Err(at(TraceCodecError::Corrupt(
                        "address delta overflows 64 bits",
                    )));
                }
                let z = i128::try_from(z).expect("below 2^64");
                let delta = if z % 2 == 0 { z / 2 } else { -(z + 1) / 2 };
                let addr = (i128::from(prev) + delta).rem_euclid(1 << 64);
                prev = u64::try_from(addr).expect("reduced mod 2^64");
                if kind == 3 {
                    Event::Load {
                        addr: prev,
                        dep: flag,
                    }
                } else {
                    Event::Store { addr: prev }
                }
            }
            _ => return Err(at(TraceCodecError::BadTag(tag))),
        };
        events.push(event);
        tags.push(start);
    }
    if pos != payload.len() {
        return Err((
            pos,
            TraceCodecError::Corrupt("trailing bytes after last event"),
        ));
    }
    Ok(())
}

/// A read position in a frame.
struct FrameBytes<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> FrameBytes<'a> {
    /// The next `len` bytes, or truncation at their start.
    fn take(&mut self, len: usize) -> Result<&'a [u8], FrameError> {
        let bytes = self.data.get(self.pos..self.pos + len).ok_or(FrameError {
            offset: self.pos,
            error: TraceCodecError::Truncated,
        })?;
        self.pos += len;
        Ok(bytes)
    }

    /// The next `len`-byte little-endian field.
    fn field(&mut self, len: usize) -> Result<u64, FrameError> {
        let bytes = self.take(len)?;
        Ok(bytes.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b)))
    }
}

/// Reads and fully validates a `PCTE` frame the way TRACE_FORMAT.md
/// specifies it: magic, version, reserved bytes, the four totals, each
/// chunk header and payload, no trailing bytes, then the totals against
/// the chunks.
///
/// # Errors
///
/// The first failure, at the byte offset of its field or event.
pub fn ref_decode_frame(data: &[u8]) -> Result<RefFrame, FrameError> {
    let fail = |offset: usize, error: TraceCodecError| FrameError { offset, error };
    if data.get(..4) != Some(&b"PCTE"[..]) {
        return Err(fail(0, TraceCodecError::BadMagic));
    }
    let mut bytes = FrameBytes { data, pos: 4 };
    let version = bytes.field(1)?;
    if version != 1 {
        let v = u8::try_from(version).expect("one byte");
        return Err(fail(4, TraceCodecError::BadVersion(v)));
    }
    if bytes.field(3)? != 0 {
        return Err(fail(
            5,
            TraceCodecError::Corrupt("nonzero reserved header bytes"),
        ));
    }
    let total_events = bytes.field(8)?;
    let total_refs = bytes.field(8)?;
    let chunk_events = bytes.field(4)?;
    let n_chunks = bytes.field(4)?;
    if chunk_events == 0 {
        return Err(fail(24, TraceCodecError::Corrupt("zero chunk_events")));
    }
    let mut frame = RefFrame {
        chunk_events: usize::try_from(chunk_events).expect("a u32 fits usize"),
        ..RefFrame::default()
    };
    for _ in 0..n_chunks {
        frame.chunk_offsets.push(bytes.pos);
        let count = u32::try_from(bytes.field(4)?).expect("a 4-byte field");
        let base_addr = bytes.field(8)?;
        let len = usize::try_from(bytes.field(4)?).expect("a u32 fits usize");
        let payload_at = bytes.pos;
        let payload = bytes.take(len)?;
        let mut tags = Vec::new();
        ref_decode_chunk(payload, count, base_addr, &mut frame.events, &mut tags)
            .map_err(|(off, e)| fail(payload_at + off, e))?;
        frame
            .tag_offsets
            .extend(tags.iter().map(|t| payload_at + t));
        frame.chunks.push(tags.len());
    }
    if bytes.pos != data.len() {
        return Err(fail(
            bytes.pos,
            TraceCodecError::Corrupt("trailing bytes after last chunk"),
        ));
    }
    if frame.events.len() as u64 != total_events {
        return Err(fail(
            8,
            TraceCodecError::Corrupt("event count contradicts chunks"),
        ));
    }
    let refs = frame.events.iter().filter(|e| e.addr().is_some()).count();
    if refs as u64 != total_refs {
        return Err(fail(
            16,
            TraceCodecError::Corrupt("ref count contradicts chunks"),
        ));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_xor_matches_hand_example() {
        // 16 sets, stride 15 from 0: sets 0, 15, 15, 15 (paper §3.3).
        let sets: Vec<u64> = (0..4).map(|i| ref_xor(i * 15, 16)).collect();
        assert_eq!(sets, [0, 15, 15, 15]);
    }

    #[test]
    fn ref_skew_rotation_wraps_top_bit() {
        // 16 sets => 4 index bits. t1 = 0b1000 rotated left by 1 = 0b0001.
        // block = t1 << 4 (x = 0).
        assert_eq!(ref_skew_xor(0b1000 << 4, 16, 1), 0b0001);
        // bank 0 leaves t1 unrotated.
        assert_eq!(ref_skew_xor(0b1000 << 4, 16, 0), 0b1000);
    }

    #[test]
    fn ref_subtract_select_bounds() {
        assert_eq!(ref_subtract_select(2040, 2039, 2), Some(1));
        assert_eq!(ref_subtract_select(2 * 2039, 2039, 2), None);
    }

    #[test]
    fn oracle_cache_lru_evicts_least_recent() {
        let mut c = OracleCache::new(1, 2, OraclePolicy::Lru, |_| 0);
        assert!(!c.access_block(1, false).hit);
        assert!(!c.access_block(2, false).hit);
        assert!(c.access_block(1, false).hit); // 2 is now LRU
        let miss = c.access_block(3, false);
        assert!(!miss.hit);
        assert!(c.access_block(1, false).hit, "1 must survive");
        assert!(!c.access_block(2, false).hit, "2 must have been evicted");
    }

    #[test]
    fn oracle_cache_fifo_ignores_hits() {
        let mut c = OracleCache::new(1, 2, OraclePolicy::Fifo, |_| 0);
        c.access_block(1, false);
        c.access_block(2, false);
        assert!(c.access_block(1, false).hit);
        c.access_block(3, false); // evicts 1 (oldest insert) despite the hit
        assert!(!c.access_block(1, false).hit);
    }

    #[test]
    fn oracle_cache_reports_clean_and_dirty_victims() {
        let mut c = OracleCache::new(1, 1, OraclePolicy::Lru, |_| 0);
        assert_eq!(c.access_block(7, true).evicted, None, "a cold fill");
        let out = c.access_block(8, false);
        let dirty = Evicted {
            block: 7,
            dirty: true,
        };
        assert_eq!(out.evicted, Some(dirty));
        let out = c.access_block(9, false);
        let clean = Evicted {
            block: 8,
            dirty: false,
        };
        assert_eq!(out.evicted, Some(clean));
    }

    #[test]
    fn oracle_caches_count_evictions_as_cache_stats_define_them() {
        // Direct-mapped L1 and L2 of two sets; every address below maps
        // to set 0 of both, so every L1 miss evicts the previous line.
        let l2 = CacheConfig::new(128, 1, 64);
        let config = HierarchyConfig {
            l1: CacheConfig::new(64, 1, 32),
            l2: L2Organization::SetAssoc(l2),
            prefetch_depth: 0,
        };
        let mut caches = OracleCaches::new(&config);
        caches.access(0, true); // cold misses
                                // Evicts dirty L1 line 0, whose write then evicts L2 block 2.
        caches.access(128, false);
        // Evicts L2 block 0, dirty from that write: a memory write.
        let (_, writes) = caches.access(256, false);
        assert_eq!(writes, [0]);
        let l1 = caches.l1_stats();
        assert_eq!(
            (l1.evictions, l1.writebacks, l1.set_evictions[0]),
            (2, 1, 2)
        );
        let l2 = caches.l2_cache_stats();
        assert_eq!((l2.accesses, l2.writes), (4, 1));
        assert_eq!((l2.evictions, l2.writebacks), (3, 1));
        assert_eq!(caches.l2_stats().evictions, 0, "demand stats count none");
        assert_eq!(l1.validate(), Ok(()));
        assert_eq!(l2.validate(), Ok(()));
    }

    #[test]
    fn oracle_victim_parks_and_rescues() {
        let main = OracleCache::new(1, 1, OraclePolicy::Lru, |_| 0);
        let mut v = OracleVictim::new(main, 2);
        v.access_block(1, true);
        v.access_block(2, false); // evicts dirty 1 into the buffer
        let back = v.access_block(1, false);
        assert!(back.hit && back.from_buffer);
    }

    #[test]
    fn oracle_dram_first_touch_is_row_miss() {
        let mut d = OracleDram::new(MemConfig::paper_default());
        let c = d.request(0, 0, false);
        assert!(!c.row_hit);
        assert_eq!(c.latency, 243);
    }
}
