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
//! * Tenant 0's namespace tag is `0 << ns_shift = 0`, and XOR with 0 is
//!   the identity: a **single-tenant mix replays its trace unchanged**,
//!   so `run_chunks(mix.cursor(), ..)` is bit-identical to
//!   `run_recorded(trace, ..)` — pinned by `tests/ingest_equivalence.rs`.
//!
//! A quantum is measured in *instructions* ([`Event::instructions`]),
//! not events, mirroring how an OS scheduler or SMT fetch policy slices
//! time rather than memory operations. Events are never split: the
//! quantum boundary falls after the event that reaches the target.

use primecache_trace::{EncodedTrace, Event, ReplayCursor};

use crate::store::EventChunks;
use crate::util::Lcg;

/// Scheduling and namespace parameters of a [`TenantMix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixConfig {
    /// Instructions per scheduling quantum (events are never split; the
    /// slice ends after the event that reaches this target, and
    /// zero-instruction events never end a slice).
    pub quantum_instructions: u64,
    /// Seed of the scheduler's [`Lcg`]; same seed, same interleaving.
    pub seed: u64,
    /// Bit position of the per-tenant address namespace: tenant `i`'s
    /// addresses are XOR-tagged with `i << ns_shift`. Tenant 0 is always
    /// untouched.
    pub ns_shift: u32,
}

impl Default for MixConfig {
    fn default() -> Self {
        Self {
            quantum_instructions: 20_000,
            seed: 0x7E9A_11CE_D5EE_D001,
            // Workload footprints live far below 2^48; tagging bit 48+
            // keeps namespaces disjoint without disturbing low-order
            // index bits.
            ns_shift: 48,
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
    /// Memory events whose *untagged* address already occupied bits at
    /// or above `ns_shift` (the tag then aliases instead of
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
    /// Panics when `tenants` is empty, the quantum is zero, `ns_shift`
    /// is outside `1..=63`, or the tenant count does not fit the
    /// namespace bits above `ns_shift`.
    #[must_use]
    pub fn new(tenants: Vec<(String, EncodedTrace)>, cfg: MixConfig) -> Self {
        assert!(!tenants.is_empty(), "a mix needs at least one tenant");
        assert!(cfg.quantum_instructions > 0, "quantum must be positive");
        assert!(
            (1..=63).contains(&cfg.ns_shift),
            "ns_shift must be in 1..=63"
        );
        assert!(
            tenants.len() as u64 - 1 <= u64::MAX >> cfg.ns_shift,
            "{} tenants do not fit a {}-bit namespace",
            tenants.len(),
            64 - cfg.ns_shift
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

    /// Number of tenants.
    #[must_use]
    pub fn n_tenants(&self) -> usize {
        self.tenants.len()
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
            ns: (idx as u64) << self.cfg.ns_shift,
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
#[derive(Debug)]
pub struct MixCursor<'a> {
    lanes: Vec<Lane<'a>>,
    /// Indexes of lanes not yet exhausted.
    live: Vec<usize>,
    rng: Lcg,
    quantum: u64,
    shift: u32,
    /// Remainder of a quantum partially consumed through `next`.
    buf: std::collections::VecDeque<Event>,
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
            shift: cfg.ns_shift,
            buf: std::collections::VecDeque::new(),
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
    /// it skips any remainder a partial `next` iteration left behind.
    pub fn pull_quantum(&mut self) -> Option<(usize, Vec<Event>)> {
        while !self.live.is_empty() {
            let slot = self.rng.below(self.live.len() as u64) as usize;
            let pick = self.live[slot];
            let ns = self.lanes[pick].ns;
            let mut out = Vec::new();
            let mut issued = 0u64;
            let mut exhausted = false;
            while issued < self.quantum {
                let Some(ev) = self.lanes[pick].cursor.next() else {
                    exhausted = true;
                    break;
                };
                issued += ev.instructions();
                if ev.addr().is_some_and(|a| a >> self.shift != 0) {
                    self.stats.ns_overflows += 1;
                }
                out.push(retag(ev, ns));
            }
            if exhausted {
                self.live.remove(slot);
            }
            if out.is_empty() {
                // Picked a lane that had nothing left (empty trace):
                // it is retired now, try the remaining ones.
                continue;
            }
            self.stats.quanta += 1;
            if self.last.is_some() && self.last != Some(pick) {
                self.stats.switches += 1;
            }
            self.last = Some(pick);
            self.stats.events[pick] += out.len() as u64;
            self.stats.refs[pick] += out.iter().filter(|e| e.is_memory()).count() as u64;
            self.stats.instructions[pick] += issued;
            return Some((pick, out));
        }
        None
    }

    /// Interleaving counters accumulated so far.
    #[must_use]
    pub fn mix_stats(&self) -> &MixStats {
        &self.stats
    }
}

/// Applies a tenant's XOR namespace tag to a memory event's address.
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

impl Iterator for MixCursor<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        loop {
            if let Some(ev) = self.buf.pop_front() {
                return Some(ev);
            }
            let (_, quantum) = self.pull_quantum()?;
            self.buf.extend(quantum);
        }
    }
}

impl EventChunks for MixCursor<'_> {
    fn push_chunks(&mut self, consume: &mut dyn FnMut(&[Event])) {
        if !self.buf.is_empty() {
            consume(self.buf.make_contiguous());
            self.buf.clear();
        }
        while let Some((_, quantum)) = self.pull_quantum() {
            consume(&quantum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    fn recorded(name: &str, refs: u64) -> (String, EncodedTrace) {
        (name.to_string(), by_name(name).unwrap().record(refs))
    }

    fn strip(ev: Event, ns: u64) -> Event {
        retag(ev, ns)
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
        let a: Vec<(usize, Vec<Event>)> = std::iter::from_fn({
            let mut c = mix.cursor();
            move || c.pull_quantum()
        })
        .collect();
        let b: Vec<(usize, Vec<Event>)> = std::iter::from_fn({
            let mut c = mix.cursor();
            move || c.pull_quantum()
        })
        .collect();
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
        let shift = mix.config().ns_shift;
        let mut per_lane: Vec<Vec<Event>> = vec![Vec::new(); 2];
        let mut cur = mix.cursor();
        while let Some((t, events)) = cur.pull_quantum() {
            for ev in &events {
                if let Some(addr) = ev.addr() {
                    assert_eq!(addr >> shift, t as u64, "address outside namespace {t}");
                }
            }
            let ns = (t as u64) << shift;
            per_lane[t].extend(events.into_iter().map(|e| strip(e, ns)));
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
        let ns = 1u64 << mix.config().ns_shift;
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
