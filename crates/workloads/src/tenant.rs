//! Deterministic multi-program interleaving: N recorded traces
//! time-sliced through one shared cache hierarchy.
//!
//! The paper evaluates single-program traces, but conflict misses are
//! worst when many tenants hammer one shared L2. A [`TenantMix`] holds N
//! recorded traces (generated workloads or imported files) and hands out
//! [`MixCursor`]s: seeded quantum schedulers that replay the tenants in
//! randomly interleaved time slices, tagging each tenant's addresses
//! with a high-bit namespace so distinct tenants never alias the same
//! physical lines.
//!
//! Determinism and bit-exactness are the design constraints:
//!
//! * The schedule is a pure function of `(tenant traces, MixConfig)` —
//!   the scheduler PRNG is a seeded [`Lcg`], so every cursor over the
//!   same mix replays the identical interleaved sequence.
//! * Tenant 0's namespace tag is `0 << 48 = 0`, and XOR with 0 is
//!   the identity: a **single-tenant mix replays its trace unchanged**,
//!   so `run_chunks(mix.cursor(), ..)` is bit-identical to
//!   `run_recorded(trace, ..)` — pinned by `tests/ingest_equivalence.rs`.
//!
//! A quantum is measured in *instructions* ([`Event::instructions`]),
//! not events, mirroring how an OS scheduler or SMT fetch policy slices
//! time rather than memory operations. Events are never split: the
//! quantum boundary falls after the event that reaches the target.

use primecache_trace::{EncodedTrace, Event, ReplayCursor};

use crate::chunks::EventChunks;
use crate::util::Lcg;

/// Bit position of the per-tenant address namespace: tenant `i`'s
/// addresses are XOR-tagged with `i << NS_SHIFT`, and tenant 0 is always
/// untouched. Workload footprints live far below 2^48; tagging bit 48
/// and up keeps namespaces disjoint without disturbing low-order index
/// bits.
const NS_SHIFT: u32 = 48;

/// Scheduling parameters of a [`TenantMix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixConfig {
    /// Instructions per scheduling quantum (events are never split; the
    /// slice ends after the event that reaches this target, and
    /// zero-instruction events never end a slice).
    pub quantum_instructions: u64,
    /// Seed of the scheduler's [`Lcg`]; same seed, same interleaving.
    pub seed: u64,
}

impl Default for MixConfig {
    fn default() -> Self {
        Self {
            quantum_instructions: 20_000,
            seed: 0x7E9A_11CE_D5EE_D001,
        }
    }
}

/// Per-cursor interleaving counters, indexed by tenant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MixStats {
    /// Scheduling quanta delivered.
    pub quanta: u64,
    /// Quanta whose tenant differed from the previous quantum's.
    pub switches: u64,
    /// Memory events whose *untagged* address already occupied bit 48
    /// or above, the namespace bits (the tag then aliases instead of
    /// namespacing; external traces with full 64-bit addresses can
    /// trip this, generated workloads never do).
    pub ns_overflows: u64,
    /// Events delivered per tenant.
    pub events: Vec<u64>,
    /// Memory references delivered per tenant.
    pub refs: Vec<u64>,
    /// Instructions delivered per tenant.
    pub instructions: Vec<u64>,
}

/// N named, recorded traces plus the scheduling parameters that
/// interleave them. Owns the traces; cursors borrow them.
#[derive(Debug)]
pub struct TenantMix {
    tenants: Vec<(String, EncodedTrace)>,
    cfg: MixConfig,
}

impl TenantMix {
    /// Builds a mix over `tenants` (name, recorded trace) pairs.
    ///
    /// # Panics
    ///
    /// Panics when `tenants` is empty, the quantum is zero, or the
    /// tenant count does not fit the 16 namespace bits.
    #[must_use]
    pub fn new(tenants: Vec<(String, EncodedTrace)>, cfg: MixConfig) -> Self {
        assert!(!tenants.is_empty(), "a mix needs at least one tenant");
        assert!(cfg.quantum_instructions > 0, "quantum must be positive");
        assert!(
            tenants.len() as u64 - 1 <= u64::MAX >> NS_SHIFT,
            "{} tenants do not fit a {}-bit namespace",
            tenants.len(),
            64 - NS_SHIFT
        );
        Self { tenants, cfg }
    }

    /// [`TenantMix::new`] with the default [`MixConfig`].
    #[must_use]
    pub fn with_defaults(tenants: Vec<(String, EncodedTrace)>) -> Self {
        Self::new(tenants, MixConfig::default())
    }

    /// The scheduling parameters.
    #[must_use]
    pub fn config(&self) -> &MixConfig {
        &self.cfg
    }

    /// Tenant names, in index order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.tenants.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Tenant `idx`'s recorded trace.
    #[must_use]
    pub fn trace(&self, idx: usize) -> &EncodedTrace {
        &self.tenants[idx].1
    }

    /// A fresh interleaving cursor from the start of every trace. Every
    /// cursor over the same mix yields the identical sequence.
    #[must_use]
    pub fn cursor(&self) -> MixCursor<'_> {
        let lanes = (0..self.tenants.len())
            .map(|i| self.lane(i))
            .collect::<Vec<_>>();
        MixCursor::over(lanes, self.cfg)
    }

    /// A cursor replaying tenant `idx` *alone*, still under the
    /// namespace tag it carries in the shared mix — the solo baseline an
    /// interference measurement divides by (identical address stream,
    /// no co-tenants).
    #[must_use]
    pub fn solo_cursor(&self, idx: usize) -> MixCursor<'_> {
        MixCursor::over(vec![self.lane(idx)], self.cfg)
    }

    fn lane(&self, idx: usize) -> Lane<'_> {
        Lane {
            cursor: self.tenants[idx].1.replay(),
            ns: (idx as u64) << NS_SHIFT,
        }
    }
}

/// One tenant's replay position inside a cursor.
#[derive(Debug)]
struct Lane<'a> {
    cursor: ReplayCursor<'a>,
    ns: u64,
}

/// The interleaved event stream of a [`TenantMix`]: an
/// [`EventChunks`] source (one chunk = one scheduling quantum) that the
/// simulation drivers consume, plus [`MixCursor::pull_quantum`] for
/// consumers that need to know which tenant each slice belongs to.
///
/// Each quantum is copied from the tenant's decoded chunks into one
/// buffer the cursor owns and reuses, counted and tagged on the way; the
/// iterator reads that buffer by position.
#[derive(Debug)]
pub struct MixCursor<'a> {
    lanes: Vec<Lane<'a>>,
    /// Indexes of lanes not yet exhausted.
    live: Vec<usize>,
    rng: Lcg,
    quantum: u64,
    /// The current quantum, tagged.
    buf: Vec<Event>,
    /// Events of `buf` already delivered.
    pos: usize,
    last: Option<usize>,
    stats: MixStats,
}

impl<'a> MixCursor<'a> {
    fn over(lanes: Vec<Lane<'a>>, cfg: MixConfig) -> Self {
        let n = lanes.len();
        Self {
            live: (0..n).collect(),
            lanes,
            rng: Lcg::new(cfg.seed),
            quantum: cfg.quantum_instructions,
            buf: Vec::new(),
            pos: 0,
            last: None,
            stats: MixStats {
                events: vec![0; n],
                refs: vec![0; n],
                instructions: vec![0; n],
                ..MixStats::default()
            },
        }
    }

    /// The next scheduling quantum as `(tenant index, tagged events)`,
    /// or `None` once every tenant is exhausted.
    ///
    /// This is the tenant-aware twin of [`EventChunks::push_chunks`];
    /// it discards any remainder a partial `next` iteration left behind.
    pub fn pull_quantum(&mut self) -> Option<(usize, &[Event])> {
        let tenant = self.next_quantum()?;
        self.pos = self.buf.len();
        Some((tenant, &self.buf))
    }

    /// Schedules the next quantum into `buf` (undelivered) and returns
    /// its tenant, or `None` once every tenant is exhausted.
    fn next_quantum(&mut self) -> Option<usize> {
        while !self.live.is_empty() {
            let slot = self.rng.below(self.live.len() as u64) as usize;
            let pick = self.live[slot];
            let lane = &mut self.lanes[pick];
            let (ns, quantum) = (lane.ns, self.quantum);
            let buf = &mut self.buf;
            buf.clear();
            self.pos = 0;
            let (mut issued, mut refs, mut overflows) = (0u64, 0u64, 0u64);
            let mut exhausted = false;
            // Per decoded chunk slice of the tenant: count instructions
            // up to the quantum, refs and namespace overflows, copy what
            // the quantum takes, then tag its addresses (a zero tag, tenant
            // 0's, is the identity).
            while issued < quantum {
                let events = lane.cursor.fill_buf();
                if events.is_empty() {
                    exhausted = true;
                    break;
                }
                let mut taken = 0;
                for ev in events {
                    taken += 1;
                    issued += ev.instructions();
                    if let Some(addr) = ev.addr() {
                        refs += 1;
                        overflows += u64::from(addr >> NS_SHIFT != 0);
                    }
                    if issued >= quantum {
                        break;
                    }
                }
                let start = buf.len();
                buf.extend_from_slice(&events[..taken]);
                if ns != 0 {
                    for ev in &mut buf[start..] {
                        if let Event::Load { addr, .. } | Event::Store { addr } = ev {
                            *addr ^= ns;
                        }
                    }
                }
                lane.cursor.consume(taken);
            }
            self.stats.ns_overflows += overflows;
            if exhausted {
                self.live.remove(slot);
            }
            if self.buf.is_empty() {
                // Picked a lane that had nothing left (empty trace):
                // it is retired now, try the remaining ones.
                continue;
            }
            self.stats.quanta += 1;
            if self.last.is_some() && self.last != Some(pick) {
                self.stats.switches += 1;
            }
            self.last = Some(pick);
            self.stats.events[pick] += self.buf.len() as u64;
            self.stats.refs[pick] += refs;
            self.stats.instructions[pick] += issued;
            return Some(pick);
        }
        None
    }

    /// Interleaving counters accumulated so far.
    #[must_use]
    pub fn mix_stats(&self) -> &MixStats {
        &self.stats
    }
}

impl Iterator for MixCursor<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if self.pos == self.buf.len() {
            self.next_quantum()?;
        }
        let ev = self.buf[self.pos];
        self.pos += 1;
        Some(ev)
    }

    /// Runs `f` over each quantum as a slice loop, the remainder of a
    /// partially iterated quantum first.
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Event) -> B,
    {
        let mut acc = self.buf[self.pos..].iter().copied().fold(init, &mut f);
        while self.next_quantum().is_some() {
            acc = self.buf.iter().copied().fold(acc, &mut f);
        }
        acc
    }
}

impl EventChunks for MixCursor<'_> {
    fn push_chunks(&mut self, consume: &mut dyn FnMut(&[Event])) {
        if self.pos < self.buf.len() {
            consume(&self.buf[self.pos..]);
        }
        while self.next_quantum().is_some() {
            consume(&self.buf);
        }
        self.pos = self.buf.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    fn recorded(name: &str, refs: u64) -> (String, EncodedTrace) {
        (name.to_string(), by_name(name).unwrap().record(refs))
    }

    /// Applies (and, applied again, strips) a tenant's XOR namespace
    /// tag on a memory event's address.
    fn retag(ev: Event, ns: u64) -> Event {
        match ev {
            Event::Load { addr, dep } => Event::Load {
                addr: addr ^ ns,
                dep,
            },
            Event::Store { addr } => Event::Store { addr: addr ^ ns },
            other => other,
        }
    }

    /// Every quantum a cursor delivers, copied out.
    fn quanta(cur: &mut MixCursor<'_>) -> Vec<(usize, Vec<Event>)> {
        std::iter::from_fn(|| cur.pull_quantum().map(|(t, q)| (t, q.to_vec()))).collect()
    }

    /// The schedule restated one event at a time through each tenant's
    /// `ReplayCursor::next`, with the stats counted after the quantum.
    fn event_at_a_time(mix: &TenantMix) -> (Vec<(usize, Vec<Event>)>, MixStats) {
        let cfg = *mix.config();
        let n = mix.names().len();
        let mut lanes: Vec<_> = (0..n).map(|i| mix.trace(i).replay()).collect();
        let mut live: Vec<usize> = (0..n).collect();
        let mut rng = Lcg::new(cfg.seed);
        let mut stats = MixStats {
            events: vec![0; n],
            refs: vec![0; n],
            instructions: vec![0; n],
            ..MixStats::default()
        };
        let mut out: Vec<(usize, Vec<Event>)> = Vec::new();
        while !live.is_empty() {
            let slot = rng.below(live.len() as u64) as usize;
            let pick = live[slot];
            let ns = (pick as u64) << NS_SHIFT;
            let (mut q, mut issued) = (Vec::new(), 0u64);
            while issued < cfg.quantum_instructions {
                let Some(ev) = lanes[pick].next() else {
                    live.remove(slot);
                    break;
                };
                issued += ev.instructions();
                if ev.addr().is_some_and(|a| a >> NS_SHIFT != 0) {
                    stats.ns_overflows += 1;
                }
                q.push(retag(ev, ns));
            }
            if q.is_empty() {
                continue;
            }
            stats.quanta += 1;
            if out.last().is_some_and(|&(t, _)| t != pick) {
                stats.switches += 1;
            }
            stats.events[pick] += q.len() as u64;
            stats.refs[pick] += q.iter().filter(|e| e.is_memory()).count() as u64;
            stats.instructions[pick] += issued;
            out.push((pick, q));
        }
        (out, stats)
    }

    #[test]
    fn quanta_match_the_event_at_a_time_schedule() {
        // Small quanta end inside chunks, at chunk ends and exactly at a
        // trace's end; an empty tenant is retired when first picked.
        let chunked = |name: &str, refs: u64, chunk: usize| {
            let events = by_name(name).unwrap().trace(refs);
            (name.to_string(), EncodedTrace::encode(&events, chunk))
        };
        let overflow = vec![Event::load(1 << 60), Event::Work(3), Event::load(64)];
        let tenants = vec![
            chunked("tree", 1_500, 97),
            chunked("mcf", 1_500, 16_384),
            ("empty".to_string(), EncodedTrace::encode(&[], 16)),
            ("ext".to_string(), EncodedTrace::encode(&overflow, 1)),
        ];
        for quantum in [1, 3, 64, 700, 20_000] {
            let mix = TenantMix::new(
                tenants.clone(),
                MixConfig {
                    quantum_instructions: quantum,
                    ..MixConfig::default()
                },
            );
            let (want, want_stats) = event_at_a_time(&mix);
            let mut cur = mix.cursor();
            assert_eq!(quanta(&mut cur), want, "quantum {quantum}");
            assert_eq!(cur.mix_stats(), &want_stats, "quantum {quantum}");
            let flat: Vec<Event> = want.into_iter().flat_map(|(_, q)| q).collect();
            assert_eq!(mix.cursor().collect::<Vec<_>>(), flat);
            let folded = mix.cursor().fold(Vec::new(), |mut v, ev| {
                v.push(ev);
                v
            });
            assert_eq!(folded, flat);
        }
    }

    #[test]
    fn single_tenant_mix_is_the_plain_trace() {
        let (name, trace) = recorded("tree", 4_000);
        let expected = trace.decode_all().unwrap();
        let mix = TenantMix::with_defaults(vec![(name, trace)]);
        let via_next: Vec<Event> = mix.cursor().collect();
        assert_eq!(via_next, expected, "tenant 0's tag must be the identity");
        let mut chunked = Vec::new();
        mix.cursor()
            .push_chunks(&mut |c| chunked.extend_from_slice(c));
        assert_eq!(chunked, expected);
    }

    #[test]
    fn same_seed_same_interleaving() {
        let mix = TenantMix::with_defaults(vec![
            recorded("tree", 3_000),
            recorded("mcf", 3_000),
            recorded("swim", 3_000),
        ]);
        let a = quanta(&mut mix.cursor());
        let b = quanta(&mut mix.cursor());
        assert_eq!(a, b);
        assert!(a.len() > 3, "expected several quanta, got {}", a.len());
        assert!(a.iter().any(|(t, _)| *t != a[0].0), "never switched tenant");
    }

    #[test]
    fn every_event_delivered_once_with_disjoint_namespaces() {
        let tenants = vec![recorded("tree", 2_000), recorded("mcf", 2_000)];
        let originals: Vec<Vec<Event>> = tenants
            .iter()
            .map(|(_, t)| t.decode_all().unwrap())
            .collect();
        let mix = TenantMix::new(
            tenants,
            MixConfig {
                quantum_instructions: 1_500,
                ..MixConfig::default()
            },
        );
        let mut per_lane: Vec<Vec<Event>> = vec![Vec::new(); 2];
        let mut cur = mix.cursor();
        while let Some((t, events)) = cur.pull_quantum() {
            for ev in events {
                if let Some(addr) = ev.addr() {
                    assert_eq!(addr >> NS_SHIFT, t as u64, "address outside namespace {t}");
                }
            }
            let ns = (t as u64) << NS_SHIFT;
            per_lane[t].extend(events.iter().map(|&e| retag(e, ns)));
        }
        // Untagged, each lane is exactly its tenant's recorded sequence.
        assert_eq!(per_lane, originals);
        let stats = cur.mix_stats();
        assert_eq!(
            stats.events.iter().sum::<u64>(),
            originals.iter().map(|t| t.len() as u64).sum::<u64>()
        );
        assert_eq!(stats.refs, vec![mix.trace(0).refs(), mix.trace(1).refs()]);
        assert_eq!(stats.ns_overflows, 0);
        assert!(stats.switches > 0);
    }

    #[test]
    fn next_and_push_chunks_interleave_remainder_first() {
        let mix = TenantMix::new(
            vec![recorded("swim", 2_000)],
            MixConfig {
                quantum_instructions: 500,
                ..MixConfig::default()
            },
        );
        let expected: Vec<Event> = mix.cursor().collect();
        let mut cur = mix.cursor();
        let mut got = Vec::new();
        for _ in 0..5 {
            got.push(cur.next().unwrap());
        }
        let mut chunks = Vec::new();
        cur.push_chunks(&mut |c| chunks.push(c.to_vec()));
        assert!(chunks[0].len() < expected.len() - 5, "remainder, not all");
        got.extend(chunks.concat());
        assert_eq!(got, expected);
    }

    #[test]
    fn solo_cursor_is_the_tagged_tenant_alone() {
        let tenants = vec![recorded("tree", 2_000), recorded("mcf", 2_000)];
        let mcf = tenants[1].1.decode_all().unwrap();
        let mix = TenantMix::with_defaults(tenants);
        let ns = 1u64 << NS_SHIFT;
        let solo: Vec<Event> = mix.solo_cursor(1).collect();
        let tagged: Vec<Event> = mcf.into_iter().map(|e| retag(e, ns)).collect();
        assert_eq!(solo, tagged);
    }

    #[test]
    fn overflowing_addresses_are_counted() {
        let trace = EncodedTrace::encode(&[Event::load(1 << 60), Event::load(64)], 16);
        let mix = TenantMix::with_defaults(vec![("ext".to_string(), trace)]);
        let mut cur = mix.cursor();
        while cur.pull_quantum().is_some() {}
        assert_eq!(cur.mix_stats().ns_overflows, 1);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_mix_rejected() {
        let _ = TenantMix::with_defaults(Vec::new());
    }
}
