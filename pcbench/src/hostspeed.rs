//! Host-speed calibration: wall time rescaled to a reference host speed.
//!
//! The benchmark runs on shared machines whose speed changes under
//! it: other tenants of the same cores, caches and memory slow every
//! program on the host by up to 1.5× for tens of seconds at a time. A raw
//! wall-clock reading then measures the neighbours as much as the
//! simulator. So every timed segment is bracketed by a probe: a fixed
//! kernel that is part of this package, never of the simulator. The
//! probe's time against [`REFERENCE_SECS`] is the host's current
//! slowdown, and a segment's reference time is its wall time divided by
//! the mean slowdown of the probes before and after it, to the power
//! [`SENSITIVITY`]. A probe takes about 3% of the segment before it,
//! and at least one kernel run.
//!
//! The kernel is a small two-level set-associative LRU cache model over
//! a synthetic address stream: the same kind of work as the simulator
//! (hashed table lookups, data-dependent branches, a working set of a
//! few tens of KB), so host contention slows both alike. A change to the
//! simulator does not change the kernel, so it moves reference times
//! exactly as it moves wall times.

use std::hint::black_box;
use std::time::Instant;

/// Memory references the probe kernel simulates per run.
const PROBE_REFS: u64 = 1_000_000;

/// Seconds one probe took on a quiet host: the fastest of 300 probes on
/// the shared 2-vCPU Intel Xeon (2.1 GHz nominal) the benchmark was
/// defined on (7.85 ms on one thread, 8.28 ms per thread on two). A
/// reference second is a wall second of a host that runs the probe
/// this fast.
pub const REFERENCE_SECS: f64 = 0.0078;

const L1_SETS: usize = 128;
const L2_SETS: usize = 2048;
const WAYS: usize = 4;

/// Runs the probe kernel once on this thread; returns its wall seconds.
fn kernel() -> f64 {
    let mut l1 = vec![[u64::MAX; WAYS]; L1_SETS];
    let mut l2 = vec![[u64::MAX; WAYS]; L2_SETS];
    let t = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let (mut stream, mut l1_misses, mut l2_misses) = (0u64, 0u64, 0u64);
    for i in 0..PROBE_REFS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // One reference in four is random over 64 MB, the rest walk a
        // stream with a varying stride.
        let addr = if x >> 62 == 0 {
            (x >> 20) & 0x3FF_FFFF
        } else {
            stream = stream.wrapping_add(8 + (i & 3) * 64);
            stream & 0xFF_FFFF
        };
        let line = addr >> 6;
        if lookup(&mut l1[line as usize % L1_SETS], line) {
            continue;
        }
        l1_misses += 1;
        if !lookup(&mut l2[line as usize % L2_SETS], line) {
            l2_misses += 1;
        }
    }
    black_box((l1_misses, l2_misses, &l1, &l2));
    t.elapsed().as_secs_f64()
}

/// Looks `line` up in an LRU set (most recent first), filling it on a
/// miss; returns whether it hit.
fn lookup(set: &mut [u64; WAYS], line: u64) -> bool {
    match set.iter().position(|&t| t == line) {
        Some(p) => {
            set[..=p].rotate_right(1);
            true
        }
        None => {
            set.rotate_right(1);
            set[0] = line;
            false
        }
    }
}

/// How much more than the probe the simulator slows when the host
/// does: its wall time grows as the probe's slowdown to this power.
/// Over forty 30 s runs (ten per workload) whose mean probe slowdown
/// ranged 0.89–1.43, the wall rate of every workload fell as that
/// slowdown to the power 1.08–1.15.
pub const SENSITIVITY: f64 = 1.1;

/// Share of the previous segment's wall time the next probe aims to
/// take, so that a long segment is bracketed by a longer probe.
const PROBE_SHARE: f64 = 0.03;

/// Most kernel runs in one probe.
const MAX_PROBE_RUNS: usize = 8;

/// Runs the kernel `runs` times on each of `threads` threads at once
/// (so every core the measured work uses is probed); returns the mean
/// time of one run.
#[must_use]
pub fn probe(threads: usize, runs: usize) -> f64 {
    let runs = runs.max(1);
    let one = || (0..runs).map(|_| kernel()).sum::<f64>();
    let total: f64 = if threads <= 1 {
        one()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(one)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the probe kernel does not panic"))
                .sum()
        })
    };
    total / (threads.max(1) * runs) as f64
}

/// One timed segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall seconds.
    pub wall: f64,
    /// Mean probe time of the probes around the segment, as a multiple
    /// of [`REFERENCE_SECS`].
    pub slowdown: f64,
}

impl Timed {
    /// Rescales a wall time measured within this segment to reference
    /// time: divides it by the slowdown to the power [`SENSITIVITY`].
    #[must_use]
    pub fn rescale(&self, wall: f64) -> f64 {
        wall / self.slowdown.powf(SENSITIVITY)
    }

    /// Reference seconds of the whole segment.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.rescale(self.wall)
    }
}

/// Times segments between probes. Consecutive segments share the probe
/// between them, so each costs one probe.
#[derive(Debug)]
pub struct HostClock {
    threads: usize,
    last: f64,
}

impl HostClock {
    /// A clock probing on `threads` threads; probes once now.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        HostClock {
            threads,
            last: probe(threads, 1),
        }
    }

    /// Runs `f` between two probes.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.last;
        let t = Instant::now();
        let out = black_box(f());
        let wall = t.elapsed().as_secs_f64();
        let runs = (wall * PROBE_SHARE / REFERENCE_SECS) as usize;
        self.last = probe(self.threads, runs.min(MAX_PROBE_RUNS));
        let slowdown = (before + self.last) / 2.0 / REFERENCE_SECS;
        (out, Timed { wall, slowdown })
    }
}
