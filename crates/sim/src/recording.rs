//! The L1 stage: each chunk of a run's events together with the
//! outcomes of the paper's L1 over them, built once and replayed into
//! any scheme's engine.
//!
//! The paper rehashes only the L2. Every scheme runs the same
//! traditionally indexed L1, and nothing below the L1 feeds back into
//! it: no level back-invalidates it, and the prefetcher fills only the
//! L2. So each reference's L1 outcome, and the dirty L1 victim the
//! hierarchy forwards into the L2, do not depend on the scheme or on
//! the run's timing. An [`L1Writer`] runs that L1 over each pushed
//! chunk and writes the chunk and its outcomes into a [`Batch`]; an
//! engine around an [`L1Replay`] pushes the batch's events into one
//! scheme's L2, DRAM and core and replays the outcomes instead of
//! simulating the L1 again. The writer, the batch and the replay serve
//! two drivers:
//! - every unobserved run (`crate::run`), a tenant mix's included,
//!   writes its batches on a second thread and replays each as it
//!   arrives;
//! - a [`Recording`] keeps every batch of a workload in memory, and
//!   each [`Recording::run`] replays them all into one scheme's engine
//!   (a sweep's cells).
//!
//! A batch keeps its events decoded (16 B per event, about 25 B per
//! reference). Its outcomes are compact:
//! - 2 bits per reference: hit, miss, or miss with a dirty victim;
//! - each dirty victim as a zigzag varint of its tag minus the missing
//!   block's tag. The victim sits in the missing block's L1 set, so its
//!   set bits need no storing;
//! - the reference count. A replay that runs out of a batch's outcomes,
//!   or ends the batch with outcomes left, panics in every build
//!   profile.

use primecache_cache::{
    Cache, CacheConfig, CacheOutcome, CacheSim, CacheStats, Evicted, HierarchyConfig, L1Sim,
    ReplayedL1,
};
use primecache_core::index::Traditional;
use primecache_trace::encode::{read_varint, unzigzag, write_varint, zigzag};
use primecache_trace::Event;
use primecache_workloads::{Workload, STREAM_CHUNK};

use crate::run::dispatch_replayed;
use crate::{MachineConfig, RunResult, Scheme};

/// Outcome code of an L1 hit.
const HIT: u8 = 0;
/// Outcome code of an L1 miss whose fill evicted no dirty line.
const MISS: u8 = 1;
/// Outcome code of an L1 miss whose fill evicted a dirty line.
const DIRTY_MISS: u8 = 2;

/// One pushed chunk of events and the paper's L1's outcomes over its
/// references: what the L1 stage hands an engine around an
/// [`L1Replay`].
#[derive(Debug, Default)]
pub(crate) struct Batch {
    /// The lane of the events: a tenant's index in a mix, 0 otherwise.
    pub(crate) lane: usize,
    events: Vec<Event>,
    /// References among `events`.
    refs: usize,
    /// One 2-bit outcome code per reference, four per byte, the first
    /// reference in the low bits.
    codes: Vec<u8>,
    /// One zigzag varint per [`DIRTY_MISS`]: the victim's tag minus the
    /// missing block's tag.
    victims: Vec<u8>,
}

impl Batch {
    /// The batch's events.
    pub(crate) fn events(&self) -> &[Event] {
        &self.events
    }
}

/// A workload's events and the outcomes of the paper's L1 over them,
/// built in one pass: the input a sweep builds once per workload and
/// replays into every scheme's cell.
///
/// # Examples
///
/// ```
/// use primecache_sim::{run_workload, MachineConfig, Recording, Scheme};
/// use primecache_workloads::by_name;
///
/// let tree = by_name("tree").unwrap();
/// let rec = Recording::of_workload(tree, 5_000);
/// let replayed = rec.run(Scheme::PrimeModulo, &MachineConfig::paper_default());
/// let live = run_workload(tree, Scheme::PrimeModulo, 5_000);
/// assert_eq!(replayed.breakdown, live.breakdown);
/// assert_eq!(replayed.l1, live.l1);
/// ```
#[derive(Debug)]
pub struct Recording {
    /// The L1 the batches were written on.
    l1: CacheConfig,
    /// One batch per pushed chunk, in order, each exact-size.
    batches: Vec<Batch>,
    /// The L1's statistics at the end of the run.
    stats: CacheStats,
}

impl Recording {
    /// Records `workload`'s first `target_refs` references in one
    /// generator pass: each chunk [`Workload::push_chunks`] pushes is
    /// kept as an exact-size copy and run through the paper's L1.
    #[must_use]
    pub fn of_workload(workload: &Workload, target_refs: u64) -> Self {
        Self::record(|push| workload.push_chunks(target_refs, push))
    }

    /// Records an explicit event sequence: keeps it in
    /// [`STREAM_CHUNK`]-event chunks and runs the paper's L1 over its
    /// references.
    #[must_use]
    pub fn of_events(events: &[Event]) -> Self {
        Self::record(|push| events.chunks(STREAM_CHUNK).for_each(push))
    }

    /// Writes one batch per chunk `feed` pushes.
    fn record(feed: impl FnOnce(&mut dyn FnMut(&[Event]))) -> Self {
        let machine = MachineConfig::paper_default();
        let mut writer = L1Writer::new(&machine.hierarchy_config(Scheme::Base));
        let mut batches = Vec::new();
        feed(&mut |chunk| {
            let mut batch = Batch::default();
            writer.write(chunk, &mut batch);
            batch.codes.shrink_to_fit();
            batch.victims.shrink_to_fit();
            batches.push(batch);
        });
        Self {
            l1: *writer.l1.config(),
            batches,
            stats: writer.stats().clone(),
        }
    }

    /// Runs the recorded events under `scheme` on `machine`, its L1
    /// replayed from the record. The result equals a live run of the
    /// same events: breakdown, L1, L2 and DRAM statistics.
    ///
    /// # Panics
    ///
    /// Panics when the config linter rejects `scheme`, or when
    /// `machine`'s L1 is not the recorded one.
    #[must_use]
    pub fn run(&self, scheme: Scheme, machine: &MachineConfig) -> RunResult {
        let mut engine = dispatch_replayed(machine, scheme);
        assert_eq!(
            self.l1,
            machine.hierarchy_config(scheme).l1,
            "the L1 was recorded on another configuration"
        );
        for batch in &self.batches {
            engine.push(batch);
        }
        engine.finish(self.stats.clone())
    }

    /// Events recorded.
    pub(crate) fn events(&self) -> u64 {
        self.batches.iter().map(|b| b.events.len() as u64).sum()
    }

    /// Bytes the recording holds: its events plus the batches' outcome
    /// codes and dirty victims.
    pub(crate) fn bytes(&self) -> u64 {
        let outcomes: usize = self
            .batches
            .iter()
            .map(|b| b.codes.len() + b.victims.len())
            .sum();
        self.events() * std::mem::size_of::<Event>() as u64 + outcomes as u64
    }
}

/// How a traditionally indexed L1 splits an address: `line_shift` bits
/// of line offset, then `set_bits` of set index, then the tag. Writer
/// and replay both take it from here, so a victim's tag delta decodes
/// on the geometry it was encoded on.
#[derive(Debug, Clone, Copy)]
struct AddrBits {
    line_shift: u32,
    set_bits: u32,
}

impl AddrBits {
    fn of(config: &CacheConfig) -> Self {
        Self {
            line_shift: config.line_bytes().trailing_zeros(),
            set_bits: config.n_set_phys().trailing_zeros(),
        }
    }
}

/// The live L1 of the L1 stage, writing each chunk and its outcomes
/// into a batch.
pub(crate) struct L1Writer {
    l1: Cache<Traditional>,
    bits: AddrBits,
}

impl L1Writer {
    /// A writer around the live L1 `config` describes, the one every
    /// hierarchy built from it runs.
    pub(crate) fn new(config: &HierarchyConfig) -> Self {
        let l1 = config.live_l1();
        Self {
            bits: AddrBits::of(l1.config()),
            l1,
        }
    }

    /// Runs the L1 over `chunk`'s references and writes the chunk and
    /// their outcomes into `batch`, replacing whatever it held.
    pub(crate) fn write(&mut self, chunk: &[Event], batch: &mut Batch) {
        batch.events.clear();
        batch.events.extend_from_slice(chunk);
        batch.codes.clear();
        batch.victims.clear();
        let (mut refs, mut byte) = (0, 0u8);
        for ev in chunk {
            let Some(addr) = ev.addr() else { continue };
            let code = self.access(addr, matches!(ev, Event::Store { .. }), &mut batch.victims);
            byte |= code << (2 * (refs % 4));
            refs += 1;
            if refs % 4 == 0 {
                batch.codes.push(byte);
                byte = 0;
            }
        }
        if refs % 4 != 0 {
            batch.codes.push(byte);
        }
        batch.refs = refs;
    }

    /// One access; returns its outcome code and appends a dirty victim
    /// to `victims`.
    fn access(&mut self, addr: u64, write: bool, victims: &mut Vec<u8>) -> u8 {
        let AddrBits {
            line_shift,
            set_bits,
        } = self.bits;
        let block = addr >> line_shift;
        let out = self.l1.access_block(block, write);
        match (out.hit, out.evicted.filter(|v| v.dirty)) {
            (true, _) => HIT,
            (false, None) => MISS,
            (false, Some(victim)) => {
                let delta = (victim.block >> set_bits).wrapping_sub(block >> set_bits);
                write_varint(victims, zigzag(delta as i64));
                DIRTY_MISS
            }
        }
    }

    /// The L1's statistics over every chunk written so far.
    pub(crate) fn stats(&self) -> &CacheStats {
        CacheSim::stats(&self.l1)
    }
}

/// The L1 of an engine whose L1 stage runs elsewhere: it returns the
/// outcomes of the batch last loaded ([`L1Replay::load`]), so it must
/// see that batch's references in order.
#[derive(Debug)]
pub(crate) struct L1Replay {
    bits: AddrBits,
    /// The loaded batch's reference count, outcome codes and dirty
    /// victims.
    refs: usize,
    codes: Vec<u8>,
    victims: Vec<u8>,
    /// Index of the next reference.
    next: usize,
    /// Byte offset of the next dirty victim.
    victim_pos: usize,
}

impl L1Replay {
    /// A replay of the L1 `config` describes, with nothing loaded.
    pub(crate) fn new(config: &CacheConfig) -> Self {
        Self {
            bits: AddrBits::of(config),
            refs: 0,
            codes: Vec::new(),
            victims: Vec::new(),
            next: 0,
            victim_pos: 0,
        }
    }

    /// Loads `batch`'s outcomes, in buffers the replay reuses.
    pub(crate) fn load(&mut self, batch: &Batch) {
        self.refs = batch.refs;
        self.codes.clone_from(&batch.codes);
        self.victims.clone_from(&batch.victims);
        self.next = 0;
        self.victim_pos = 0;
    }

    /// Checks that every loaded outcome has been replayed.
    ///
    /// # Panics
    ///
    /// Panics with the number of outcomes left.
    pub(crate) fn check_drained(&self) {
        assert_eq!(
            self.next,
            self.refs,
            "L1 replay ended with {} of {} outcomes left",
            self.refs - self.next,
            self.refs
        );
    }
}

impl L1Sim for L1Replay {
    /// The recorded outcome. A batch keeps only dirty victims, so a
    /// clean one reads as none (see [`L1Sim::access`]).
    #[inline]
    fn access(&mut self, block: u64, _write: bool) -> CacheOutcome {
        let i = self.next;
        assert!(
            i < self.refs,
            "L1 replay ran out of outcomes after {i} references"
        );
        self.next = i + 1;
        let code = (self.codes[i / 4] >> (2 * (i % 4))) & 3;
        let set_bits = self.bits.set_bits;
        let set = block & ((1 << set_bits) - 1);
        let evicted = (code == DIRTY_MISS).then(|| {
            let z = read_varint(&self.victims, &mut self.victim_pos)
                .expect("a batch holds one victim per dirty miss");
            let tag = (block >> set_bits).wrapping_add(unzigzag(z) as u64);
            Evicted {
                block: (tag << set_bits) | set,
                dirty: true,
            }
        });
        CacheOutcome {
            set: set as usize,
            hit: code == HIT,
            evicted,
        }
    }
}

impl ReplayedL1 for L1Replay {}

#[cfg(test)]
mod tests {
    use super::*;
    use primecache_workloads::by_name;

    fn paper_writer() -> L1Writer {
        L1Writer::new(&MachineConfig::paper_default().hierarchy_config(Scheme::Base))
    }

    /// A load or a store of `addr`.
    fn reference((addr, write): (u64, bool)) -> Event {
        if write {
            Event::Store { addr }
        } else {
            Event::Load { addr, dep: false }
        }
    }

    #[test]
    fn recorded_chunks_are_the_workloads_pushes() {
        for name in ["tree", "mcf", "swim"] {
            let w = by_name(name).unwrap();
            let mut live: Vec<Vec<Event>> = Vec::new();
            w.push_chunks(40_000, &mut |c| live.push(c.to_vec()));
            let rec = Recording::of_workload(w, 40_000);
            assert!(rec.batches.len() > 1, "{name} spans several chunks");
            let recorded: Vec<Vec<Event>> = rec.batches.iter().map(|b| b.events.clone()).collect();
            assert_eq!(recorded, live, "{name}");
            assert_eq!(
                rec.events(),
                live.iter().map(|c| c.len() as u64).sum::<u64>()
            );
        }
    }

    #[test]
    fn replay_returns_the_live_outcomes() {
        // References to 64 lines 16 KB apart share one L1 set, so nearly
        // every fill evicts a line, at tag distances of both signs; every
        // other one is a store, so about half the victims are dirty. The
        // replay returns the live outcomes, clean victims read as none,
        // across batches written into reused buffers, with work events
        // between the references.
        let addrs: Vec<(u64, bool)> = (0..2_000u64)
            .map(|i| ((i * 7919 % 64) * (16 << 10) + (i % 3) * 8, i % 2 == 0))
            .collect();
        let mut writer = paper_writer();
        let mut live = paper_writer().l1;
        let mut replay = L1Replay::new(live.config());
        let mut batch = Batch::default();
        let (mut expected, mut replayed) = (Vec::new(), Vec::new());
        for part in addrs.chunks(333) {
            let chunk: Vec<Event> = part
                .iter()
                .flat_map(|&r| [reference(r), Event::Work(1)])
                .collect();
            writer.write(&chunk, &mut batch);
            replay.load(&batch);
            for &(addr, write) in part {
                let mut out = live.access_block(addr >> 5, write);
                out.evicted = out.evicted.filter(|v| v.dirty);
                expected.push(out);
                replayed.push(replay.access(addr >> 5, write));
            }
            replay.check_drained();
        }
        assert_eq!(replayed, expected);
        assert!(expected.iter().filter(|o| o.evicted.is_some()).count() > 500);
        assert_eq!(writer.stats(), CacheSim::stats(&live));
    }

    #[test]
    #[should_panic(expected = "ran out of outcomes")]
    fn replay_past_the_batch_panics() {
        let mut batch = Batch::default();
        paper_writer().write(&[reference((0, false))], &mut batch);
        let mut replay = L1Replay::new(paper_writer().l1.config());
        replay.load(&batch);
        replay.access(0, false);
        replay.access(0, false);
    }

    #[test]
    #[should_panic(expected = "outcomes left")]
    fn replay_ending_a_batch_early_panics() {
        let mut batch = Batch::default();
        let refs = [reference((0, false)), reference((64, false))];
        paper_writer().write(&refs, &mut batch);
        let mut replay = L1Replay::new(paper_writer().l1.config());
        replay.load(&batch);
        replay.access(0, false);
        replay.check_drained();
    }
}
