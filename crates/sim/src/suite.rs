//! Full-suite sweeps: all 23 applications across schemes, in parallel.
//!
//! Recording and the sweep itself share one fan-out: scoped worker
//! threads claim task indices from a single atomic cursor and hand
//! their results back through `join`. The caller checks, in every
//! build, that each task ran exactly once and none is missing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use primecache_workloads::{all, Workload};

use crate::{run_workload, Recording, RunResult, Scheme};

/// Results of one (workload, scheme) cell of a sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload name.
    pub workload: &'static str,
    /// Whether the workload is in the paper's non-uniform group.
    pub non_uniform: bool,
    /// The run's results.
    pub result: RunResult,
}

/// Scheduling record of one sweep task: which worker ran which cell,
/// when (µs since sweep start), and at what LPT cost priority.
/// The raw data behind `pcache trace-events --sweep` and any
/// load-balance analysis of the LPT dispatcher.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Workload name.
    pub workload: &'static str,
    /// Scheme label.
    pub scheme: &'static str,
    /// Scheduling cost the LPT order used.
    pub cost: u64,
    /// Index of the worker thread that ran the task.
    pub worker: u32,
    /// Wall-clock microseconds from sweep start to task start.
    pub start_us: u64,
    /// Wall-clock microseconds from sweep start to task end.
    pub end_us: u64,
}

/// Counters of a sweep's record phase: what it recorded and how long
/// that took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Workloads recorded (one generation and one L1 run each).
    pub records: u64,
    /// Events across the recorded traces.
    pub events: u64,
    /// Encoded bytes of the recorded traces.
    pub trace_bytes: u64,
    /// Bytes of the L1 records: outcome codes plus dirty victims.
    pub l1_bytes: u64,
    /// Wall-clock microseconds of the record phase.
    pub record_us: u64,
}

/// A complete sweep: `results[workload][scheme]`.
#[derive(Debug, Default)]
pub struct Sweep {
    /// All cells, keyed by workload then scheme label.
    pub cells: BTreeMap<&'static str, BTreeMap<&'static str, Cell>>,
    /// Per-task scheduling records, in dispatch (LPT) order.
    pub tasks: Vec<TaskRecord>,
    /// Record-phase counters when the cells replayed per-workload
    /// recordings, `None` when every cell generated live (target above
    /// [`STORE_MAX_REFS`], or fewer than [`RECORD_MIN_SCHEMES`] schemes).
    pub store: Option<StoreStats>,
}

impl Sweep {
    /// Looks up one cell.
    #[must_use]
    pub fn get(&self, workload: &str, scheme: Scheme) -> Option<&Cell> {
        self.cells.get(workload)?.get(scheme.label())
    }

    /// Checks sweep completeness: one cell per `(workload, scheme)` pair
    /// and nothing else.
    ///
    /// [`run_sweep`] asserts this in debug builds (and in release builds
    /// with the `check` feature) before returning.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or unexpected cell.
    pub fn validate(&self, workloads: &[Workload], schemes: &[Scheme]) -> Result<(), String> {
        if self.cells.len() != workloads.len() {
            return Err(format!(
                "sweep covers {} workloads, expected {}",
                self.cells.len(),
                workloads.len()
            ));
        }
        let mut total = 0usize;
        for w in workloads {
            for &s in schemes {
                if self.get(w.name, s).is_none() {
                    return Err(format!(
                        "sweep is missing the ({}, {}) cell",
                        w.name,
                        s.label()
                    ));
                }
                total += 1;
            }
        }
        let stored: usize = self.cells.values().map(BTreeMap::len).sum();
        if stored != total {
            return Err(format!(
                "sweep stores {stored} cells, expected {total} \
                 (workloads x schemes)"
            ));
        }
        Ok(())
    }
}

/// Relative simulation cost of one `(workload, scheme)` cell, used to
/// schedule longest tasks first (LPT): with equal-length traces the
/// dominant cost axis is the per-access work of the L2 organization —
/// the fully-associative probe scans every line, the skewed banks probe
/// one hash per way — and the tiebreaker is the workload's footprint
/// (bigger footprints miss more, and misses cost DRAM modeling work).
fn task_cost(workload: &Workload, scheme: Scheme) -> u64 {
    let scheme_weight: u64 = match scheme {
        Scheme::FullyAssociative => 8,
        Scheme::Skewed | Scheme::SkewedPrimeDisplacement => 3,
        _ => 2,
    };
    let footprint =
        primecache_workloads::profile::profile_of(workload.name).map_or(1, |p| p.footprint_bytes);
    // log2 of the footprint keeps the scheme weight dominant while still
    // ordering workloads within a scheme.
    scheme_weight * 64 + u64::from(footprint.ilog2())
}

/// Reference-target ceiling for record-once sweeps. At the measured
/// compactness (pcbench's traced `trace.bytes_per_ref`: 4.8 encoded
/// bytes per memory reference over all 23 workloads, events between
/// references included; 4.3–5.7 for single workloads) and about 0.45
/// bytes of L1 record per reference, the 23 recordings at this target
/// hold roughly `23 × 2M × 5.2 B ≈ 240 MB` — still in memory on a
/// laptop, but no longer small. Above the ceiling [`run_sweep`] falls
/// back to live per-cell generation, which keeps peak memory O(1) in
/// `target_refs` at the cost of regenerating each trace, and rerunning
/// its L1, once per scheme.
pub const STORE_MAX_REFS: u64 = 2_000_000;

/// Fewest schemes for which a sweep records its workloads. The record
/// pass (generate, encode, run the L1) costs about 64 ns per reference
/// against about 17 to generate live, and each cell that replays the L1
/// instead of simulating it saves 12–17 ns; so a sweep over few schemes
/// generates every cell live. Measured on a 2-vCPU Xeon virtual machine,
/// two workers, all 23 workloads at 50 k and 500 k references: live
/// generation was 2–33% faster at 1–4 schemes, the two were within 2% at
/// 5, and recording was 7% faster at 8.
pub const RECORD_MIN_SCHEMES: usize = 5;

/// Worker threads a fan-out may use: the machine's available
/// parallelism (4 when it cannot be queried).
pub(crate) fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

/// Runs `task(worker, i)` once for every `i` in `0..n` on up to
/// `workers` scoped threads (never more than there are tasks) and
/// returns the results in index order.
///
/// Each worker claims indices from one shared cursor — `fetch_add`
/// hands every index to exactly one worker — and returns its
/// `(index, result)` pairs through `join`; a panicking task propagates
/// out of the fan-out with its own payload. Putting the results in
/// order asserts, in every build, that each index arrived exactly once
/// and that none is missing.
pub(crate) fn fan_out<T: Send>(
    n: usize,
    workers: usize,
    task: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let batches: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1).min(n))
            .map(|worker| {
                let (cursor, task) = (&cursor, &task);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed suffices: the cursor publishes no other
                        // data, and results reach the caller through
                        // `join`, which synchronizes.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, task(worker, i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, result) in batches.into_iter().flatten() {
        assert!(
            slots[i].replace(result).is_none(),
            "fan-out ran task {i} twice"
        );
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("fan-out lost task {i}")))
        .collect()
}

/// Records every workload in `workloads` in parallel, on the same
/// fan-out the sweep itself uses: each worker generates a trace once,
/// encoding it and running the paper's L1 over it in the same pass
/// ([`Recording::of_workload`]).
/// Returns the recordings, in `workloads` order, and their counters.
fn record_suite(workloads: &[Workload], target_refs: u64) -> (Vec<Recording>, StoreStats) {
    let started = Instant::now();
    let recordings = fan_out(workloads.len(), available_workers(), |_, i| {
        Recording::of_workload(&workloads[i], target_refs)
    });
    let stats = StoreStats {
        records: recordings.len() as u64,
        events: recordings.iter().map(|r| r.trace().events()).sum(),
        trace_bytes: recordings.iter().map(|r| r.trace().encoded_bytes()).sum(),
        l1_bytes: recordings.iter().map(Recording::l1_bytes).sum(),
        record_us: started.elapsed().as_micros() as u64,
    };
    (recordings, stats)
}

/// Runs `schemes` × all 23 workloads with `target_refs`-long traces,
/// fanning out across CPU cores.
///
/// Dataflow: up to [`STORE_MAX_REFS`] refs/workload, and with at least
/// [`RECORD_MIN_SCHEMES`] schemes, the sweep first *records* each
/// workload exactly once (parallel, same-thread): one
/// pass generates the trace, encodes it compactly and runs the paper's
/// L1 over it, which every scheme shares. Then every `(workload,
/// scheme)` cell replays the recording ([`Recording::run`]): it decodes
/// the trace and replays the L1's outcomes into the scheme's own L2,
/// DRAM and core. Generation and the L1 are paid once per workload
/// instead of once per scheme; replay is bit-identical to live
/// generation, so results are unchanged. Otherwise cells generate live,
/// L1 included (O(1) memory).
///
/// Scheduling: cells are dispatched longest-cost-first (`task_cost`),
/// so a slow cell (e.g. fully-associative `charmm`) starts early instead
/// of serializing the tail of the sweep. Each worker keeps its own
/// results and returns them when it joins — no shared collection vector.
#[must_use]
pub fn run_sweep(schemes: &[Scheme], target_refs: u64) -> Sweep {
    // Static lint pass first: refuse to burn a 23-application sweep on a
    // degenerate L2 configuration.
    let machine = crate::MachineConfig::paper_default();
    for &s in schemes {
        machine.check_scheme(s);
    }
    let workloads = all();
    // Record-once phase: record the suite before any cell runs.
    let record = target_refs <= STORE_MAX_REFS && schemes.len() >= RECORD_MIN_SCHEMES;
    let recorded = record.then(|| record_suite(workloads, target_refs));
    let mut tasks: Vec<(usize, Scheme)> = (0..workloads.len())
        .flat_map(|w| schemes.iter().map(move |&s| (w, s)))
        .collect();
    tasks.sort_by_key(|&(w, s)| std::cmp::Reverse(task_cost(&workloads[w], s)));
    let avail = available_workers();
    // The fan-out never spawns surplus workers, but a grid smaller than
    // the machine is still worth flagging: the run's wall-clock won't
    // reflect the hardware's parallelism.
    for lint in primecache_analyze::lint_sweep_shape(tasks.len(), avail) {
        eprintln!("{lint}");
    }
    let epoch = Instant::now();
    let done = fan_out(tasks.len(), avail, |worker, i| {
        let (wi, s) = tasks[i];
        let w = &workloads[wi];
        let start_us = epoch.elapsed().as_micros() as u64;
        let result = match &recorded {
            Some((recordings, _)) => recordings[wi].run(s, &machine),
            None => run_workload(w, s, target_refs),
        };
        let record = TaskRecord {
            workload: w.name,
            scheme: s.label(),
            cost: task_cost(w, s),
            worker: worker as u32,
            start_us,
            end_us: epoch.elapsed().as_micros() as u64,
        };
        let cell = Cell {
            workload: w.name,
            non_uniform: w.expected_non_uniform,
            result,
        };
        (cell, record)
    });
    let mut sweep = Sweep {
        store: recorded.map(|(_, stats)| stats),
        ..Sweep::default()
    };
    for (cell, record) in done {
        sweep.tasks.push(record);
        sweep
            .cells
            .entry(cell.workload)
            .or_default()
            .insert(cell.result.scheme.label(), cell);
    }
    #[cfg(any(debug_assertions, feature = "check"))]
    if let Err(e) = sweep.validate(workloads, schemes) {
        panic!("sweep completeness violated: {e}");
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fans `n` tasks out over `workers` threads, counting each index's
    /// runs with its own counter: every index must run exactly once, on
    /// a worker below `min(workers, n)`, and the results must come back
    /// in index order.
    fn check_fan_out(n: usize, workers: usize) {
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = fan_out(n, workers, |worker, i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            (i * 7 + 1, worker)
        });
        let values: Vec<usize> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, (0..n).map(|i| i * 7 + 1).collect::<Vec<_>>());
        assert!(out.iter().all(|&(_, worker)| worker < workers.min(n)));
        for (i, count) in runs.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    #[test]
    fn fan_out_with_no_tasks_returns_nothing() {
        check_fan_out(0, 4);
    }

    #[test]
    fn fan_out_with_one_task() {
        check_fan_out(1, 4);
    }

    #[test]
    fn fan_out_with_fewer_tasks_than_workers() {
        check_fan_out(3, 8);
    }

    #[test]
    fn fan_out_with_many_more_tasks_than_workers() {
        check_fan_out(4 * 64, 4);
    }

    #[test]
    #[should_panic(expected = "task 5 failed")]
    fn fan_out_propagates_a_task_panic() {
        fan_out(16, 4, |_, i| {
            assert_ne!(i, 5, "task {i} failed");
            i
        });
    }

    #[test]
    fn small_sweep_covers_everything() {
        let schemes = &Scheme::ALL[..RECORD_MIN_SCHEMES];
        let sweep = run_sweep(schemes, 5_000);
        assert_eq!(sweep.cells.len(), 23);
        for (name, per_scheme) in &sweep.cells {
            assert_eq!(per_scheme.len(), schemes.len(), "{name}");
        }
        // One scheduling record per cell, each internally consistent.
        assert_eq!(sweep.tasks.len(), 23 * schemes.len());
        for t in &sweep.tasks {
            assert!(t.start_us <= t.end_us, "{t:?}");
            assert!(t.cost > 0);
        }
        // LPT: dispatch order is non-increasing in cost.
        for pair in sweep.tasks.windows(2) {
            assert!(pair[0].cost >= pair[1].cost);
        }
        // Record-once accounting: 23 recordings, trace and L1 record.
        let st = sweep.store.expect("small sweep serves from the store");
        assert_eq!(st.records, 23);
        assert!(st.events > 0);
        assert!(st.trace_bytes > st.l1_bytes && st.l1_bytes > 0);
    }

    #[test]
    fn sweeps_over_few_schemes_generate_live() {
        let schemes = &Scheme::ALL[..RECORD_MIN_SCHEMES - 1];
        let sweep = run_sweep(schemes, 4_000);
        assert_eq!(sweep.store, None);
        let w = primecache_workloads::by_name("mcf").expect("mcf");
        let cell = sweep.get(w.name, schemes[0]).expect("cell present");
        assert_eq!(
            cell.result.breakdown,
            run_workload(w, schemes[0], 4_000).breakdown
        );
    }

    #[test]
    fn parallel_sweeps_are_deterministic() {
        // The fan-out must not introduce ordering nondeterminism.
        let a = run_sweep(&[Scheme::Base, Scheme::Xor], 4_000);
        let b = run_sweep(&[Scheme::Base, Scheme::Xor], 4_000);
        for w in primecache_workloads::all() {
            for s in [Scheme::Base, Scheme::Xor] {
                let cell =
                    |sweep: &Sweep| sweep.get(w.name, s).expect("cell present").result.clone();
                let (a, b) = (cell(&a), cell(&b));
                assert_eq!(a.l2.misses, b.l2.misses, "{}/{}", w.name, s.label());
                assert_eq!(a.breakdown, b.breakdown);
            }
        }
    }

    #[test]
    fn sweep_validate_fires_on_seeded_missing_cell() {
        let mut sweep = run_sweep(&[Scheme::Base, Scheme::Xor], 4_000);
        let schemes = [Scheme::Base, Scheme::Xor];
        assert_eq!(sweep.validate(all(), &schemes), Ok(()));
        // Corrupt: drop one scheme cell from one workload.
        sweep
            .cells
            .get_mut("tree")
            .expect("tree present")
            .remove(Scheme::Xor.label());
        let err = sweep.validate(all(), &schemes).unwrap_err();
        assert!(err.contains("(tree, XOR)"), "{err}");
    }
}
