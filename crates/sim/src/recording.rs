//! Build once, replay into every scheme: a workload's events together
//! with the outcomes of the paper's L1 over them.
//!
//! The paper rehashes only the L2. Every scheme runs the same
//! traditionally indexed L1, and nothing below the L1 feeds back into
//! it: no level back-invalidates it, and the prefetcher fills only the
//! L2. So each reference's L1 outcome, and the dirty L1 victim the
//! hierarchy forwards into the L2, are the same under every scheme. A
//! [`Recording`] runs that L1 once, in the generator pass that collects
//! the events, and each [`Recording::run`] pushes the same event slices
//! into one scheme's engine and replays the L1's outcomes into its L2,
//! DRAM and core instead of generating, decoding or simulating the L1
//! again.
//!
//! The events are kept decoded, in the chunks the generator pushed
//! them, each an exact-size slice (16 B per event, about 25 B per
//! reference). The L1 record is compact:
//! - 2 bits per reference: hit, miss, or miss with a dirty victim;
//! - each dirty victim as a zigzag varint of its tag minus the missing
//!   block's tag. The victim sits in the missing block's L1 set, so its
//!   set bits need no storing;
//! - the reference count. A replay that runs out of outcomes, or ends
//!   with outcomes left, panics in every build profile.

use primecache_cache::{Cache, CacheConfig, CacheOutcome, CacheStats, Evicted, L1Sim};
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
    /// The events, in the chunks they were pushed in.
    chunks: Vec<Box<[Event]>>,
    l1: L1Record,
}

impl Recording {
    /// Records `workload`'s first `target_refs` references in one
    /// generator pass: each chunk [`Workload::push_chunks`] pushes is
    /// kept as an exact-size copy and run through the paper's L1.
    #[must_use]
    pub fn of_workload(workload: &Workload, target_refs: u64) -> Self {
        let mut chunks = Vec::new();
        let mut l1 = L1Writer::paper();
        workload.push_chunks(target_refs, &mut |chunk| {
            chunks.push(Box::from(chunk));
            l1.push(chunk);
        });
        Self {
            chunks,
            l1: l1.finish(),
        }
    }

    /// Records an explicit event sequence: keeps it in
    /// [`STREAM_CHUNK`]-event chunks and runs the paper's L1 over its
    /// references.
    #[must_use]
    pub fn of_events(events: &[Event]) -> Self {
        let mut l1 = L1Writer::paper();
        l1.push(events);
        Self {
            chunks: events.chunks(STREAM_CHUNK).map(Box::from).collect(),
            l1: l1.finish(),
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
        let mut engine = dispatch_replayed(machine, scheme, self.l1.replay());
        for chunk in &self.chunks {
            engine.push(chunk);
        }
        engine.finish()
    }

    /// Events recorded.
    pub(crate) fn events(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    /// Bytes the recording holds: its events plus the L1 record's
    /// outcome codes and dirty victims.
    pub(crate) fn bytes(&self) -> u64 {
        self.events() * std::mem::size_of::<Event>() as u64
            + (self.l1.codes.len() + self.l1.victims.len()) as u64
    }
}

/// The outcomes of one run of a traditionally indexed L1.
#[derive(Debug)]
struct L1Record {
    config: CacheConfig,
    /// References recorded.
    refs: usize,
    /// One 2-bit outcome code per reference, four per byte, the first
    /// reference in the low bits.
    codes: Vec<u8>,
    /// One zigzag varint per [`DIRTY_MISS`]: the victim's tag minus the
    /// missing block's tag.
    victims: Vec<u8>,
    /// The L1's statistics at the end of the run.
    stats: CacheStats,
}

impl L1Record {
    /// A replay from the first reference.
    fn replay(&self) -> L1Replay<'_> {
        L1Replay {
            record: self,
            next: 0,
            victim_pos: 0,
            bits: AddrBits::of(&self.config),
        }
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

/// The live L1 of a recording pass, writing each outcome to the record.
struct L1Writer {
    l1: Cache<Traditional>,
    bits: AddrBits,
    refs: usize,
    codes: Vec<u8>,
    victims: Vec<u8>,
}

impl L1Writer {
    /// A writer around the paper machine's live L1, the one every
    /// scheme's hierarchy builds.
    fn paper() -> Self {
        let l1 = MachineConfig::paper_default()
            .hierarchy_config(Scheme::Base)
            .live_l1();
        Self {
            bits: AddrBits::of(l1.config()),
            l1,
            refs: 0,
            codes: Vec::new(),
            victims: Vec::new(),
        }
    }

    /// Runs the L1 over `events`' references.
    fn push(&mut self, events: &[Event]) {
        for ev in events {
            if let Some(addr) = ev.addr() {
                self.access(addr, matches!(ev, Event::Store { .. }));
            }
        }
    }

    fn access(&mut self, addr: u64, write: bool) {
        let AddrBits {
            line_shift,
            set_bits,
        } = self.bits;
        let block = addr >> line_shift;
        let out = self.l1.access_block(block, write);
        let code = match (out.hit, out.evicted.filter(|v| v.dirty)) {
            (true, _) => HIT,
            (false, None) => MISS,
            (false, Some(victim)) => {
                let delta = (victim.block >> set_bits).wrapping_sub(block >> set_bits);
                write_varint(&mut self.victims, zigzag(delta as i64));
                DIRTY_MISS
            }
        };
        let shift = 2 * (self.refs % 4);
        if shift == 0 {
            self.codes.push(0);
        }
        *self
            .codes
            .last_mut()
            .expect("a byte was pushed for this reference") |= code << shift;
        self.refs += 1;
    }

    fn finish(mut self) -> L1Record {
        self.codes.shrink_to_fit();
        self.victims.shrink_to_fit();
        L1Record {
            config: *self.l1.config(),
            refs: self.refs,
            codes: self.codes,
            victims: self.victims,
            stats: L1Sim::stats(&self.l1).clone(),
        }
    }
}

/// A cursor over an [`L1Record`]: the L1 a replayed cell's hierarchy
/// drives. Its outcomes are the recorded ones, so it must see the
/// recorded references in order.
#[derive(Debug)]
pub(crate) struct L1Replay<'r> {
    record: &'r L1Record,
    /// Index of the next reference.
    next: usize,
    /// Byte offset of the next dirty victim.
    victim_pos: usize,
    bits: AddrBits,
}

impl L1Replay<'_> {
    /// The L1 configuration the record was made on.
    pub(crate) fn config(&self) -> &CacheConfig {
        &self.record.config
    }
}

impl L1Sim for L1Replay<'_> {
    /// The recorded outcome. The record keeps only dirty victims, so a
    /// clean one reads as none (see [`L1Sim::access`]).
    #[inline]
    fn access(&mut self, block: u64, _write: bool) -> CacheOutcome {
        let i = self.next;
        assert!(
            i < self.record.refs,
            "L1 replay ran out of outcomes after {i} references"
        );
        self.next = i + 1;
        let code = (self.record.codes[i / 4] >> (2 * (i % 4))) & 3;
        let set_bits = self.bits.set_bits;
        let set = block & ((1 << set_bits) - 1);
        let evicted = (code == DIRTY_MISS).then(|| {
            let z = read_varint(&self.record.victims, &mut self.victim_pos)
                .expect("the L1 record holds one victim per dirty miss");
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

    /// The recorded run's statistics.
    ///
    /// # Panics
    ///
    /// Panics unless every recorded outcome has been replayed: the
    /// statistics describe the whole recorded run.
    fn stats(&self) -> &CacheStats {
        assert_eq!(
            self.next,
            self.record.refs,
            "L1 replay ended with {} of {} outcomes left",
            self.record.refs - self.next,
            self.record.refs
        );
        &self.record.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primecache_workloads::by_name;

    #[test]
    fn recorded_chunks_are_the_workloads_pushes() {
        for name in ["tree", "mcf", "swim"] {
            let w = by_name(name).unwrap();
            let mut live: Vec<Vec<Event>> = Vec::new();
            w.push_chunks(40_000, &mut |c| live.push(c.to_vec()));
            let rec = Recording::of_workload(w, 40_000);
            assert!(rec.chunks.len() > 1, "{name} spans several chunks");
            let recorded: Vec<Vec<Event>> = rec.chunks.iter().map(|c| c.to_vec()).collect();
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
        // replay returns the live outcomes, clean victims read as none.
        let addrs: Vec<(u64, bool)> = (0..2_000u64)
            .map(|i| ((i * 7919 % 64) * (16 << 10) + (i % 3) * 8, i % 2 == 0))
            .collect();
        let mut writer = L1Writer::paper();
        let mut live = L1Writer::paper().l1;
        let mut expected = Vec::new();
        for &(addr, write) in &addrs {
            writer.access(addr, write);
            let mut out = live.access_block(addr >> 5, write);
            out.evicted = out.evicted.filter(|v| v.dirty);
            expected.push(out);
        }
        let record = writer.finish();
        let mut replay = record.replay();
        let replayed: Vec<CacheOutcome> = addrs
            .iter()
            .map(|&(addr, write)| replay.access(addr >> 5, write))
            .collect();
        assert_eq!(replayed, expected);
        assert!(expected.iter().filter(|o| o.evicted.is_some()).count() > 500);
        assert_eq!(replay.stats(), L1Sim::stats(&live));
    }

    #[test]
    #[should_panic(expected = "ran out of outcomes")]
    fn replay_past_the_record_panics() {
        let mut writer = L1Writer::paper();
        writer.access(0, false);
        let record = writer.finish();
        let mut replay = record.replay();
        replay.access(0, false);
        replay.access(0, false);
    }

    #[test]
    #[should_panic(expected = "outcomes left")]
    fn replay_ending_early_panics() {
        let mut writer = L1Writer::paper();
        writer.access(0, false);
        writer.access(64, false);
        let record = writer.finish();
        let mut replay = record.replay();
        replay.access(0, false);
        let _ = replay.stats();
    }
}
