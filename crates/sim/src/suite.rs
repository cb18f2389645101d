//! Full-suite sweeps: all 23 applications across schemes, in parallel.
//!
//! Recording and the sweep itself share one fan-out: scoped worker
//! threads claim task indices from a single atomic cursor and hand
//! their results back through `join`. The caller checks, in every
//! build, that each task ran exactly once and none is missing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use primecache_workloads::{all, TraceStore, TraceStoreStats, Workload};

use crate::{run_chunks, run_workload, RunResult, Scheme};

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

/// A complete sweep: `results[workload][scheme]`.
#[derive(Debug, Default)]
pub struct Sweep {
    /// All cells, keyed by workload then scheme label.
    pub cells: BTreeMap<&'static str, BTreeMap<&'static str, Cell>>,
    /// Per-task scheduling records, in dispatch (LPT) order.
    pub tasks: Vec<TaskRecord>,
    /// Recorded-trace store counters when the sweep ran generate-once /
    /// replay-per-scheme, `None` when every cell generated live (target
    /// above [`STORE_MAX_REFS`]).
    pub store: Option<TraceStoreStats>,
}

/// A `(workload, scheme)` cell missing from a [`Sweep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// The workload whose cell was requested.
    pub workload: String,
    /// The scheme label requested.
    pub scheme: &'static str,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep has no cell for workload {:?} under scheme {}",
            self.workload, self.scheme
        )
    }
}

impl std::error::Error for SweepError {}

impl Sweep {
    /// Looks up one cell.
    #[must_use]
    pub fn get(&self, workload: &str, scheme: Scheme) -> Option<&Cell> {
        self.cells.get(workload)?.get(scheme.label())
    }

    /// Looks up one cell, reporting *which* cell is missing instead of
    /// panicking — the error path for consumers that require a complete
    /// sweep.
    ///
    /// # Errors
    ///
    /// Returns a [`SweepError`] naming the missing `(workload, scheme)`
    /// pair.
    pub fn require(&self, workload: &str, scheme: Scheme) -> Result<&Cell, SweepError> {
        self.get(workload, scheme).ok_or_else(|| SweepError {
            workload: workload.to_owned(),
            scheme: scheme.label(),
        })
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

    /// Normalized execution time of `scheme` vs `Base` for a workload
    /// (the y-axis of Figs. 7–10).
    #[must_use]
    pub fn normalized_time(&self, workload: &str, scheme: Scheme) -> Option<f64> {
        let base = self.get(workload, Scheme::Base)?;
        let cell = self.get(workload, scheme)?;
        Some(cell.result.breakdown.normalized_to(&base.result.breakdown))
    }

    /// Speedup of `scheme` vs `Base` for a workload.
    #[must_use]
    pub fn speedup(&self, workload: &str, scheme: Scheme) -> Option<f64> {
        self.normalized_time(workload, scheme).map(|n| 1.0 / n)
    }

    /// Normalized L2 miss count vs `Base` (the y-axis of Figs. 11/12).
    ///
    /// Returns `None` when either cell is absent *or* the baseline had no
    /// misses — a zero-miss baseline has no meaningful normalization, and
    /// the old `0.0` answer silently read as "the scheme eliminated every
    /// miss".
    ///
    /// ```
    /// use primecache_cache::CacheStats;
    /// use primecache_cpu::ExecBreakdown;
    /// use primecache_mem::DramStats;
    /// use primecache_sim::suite::{Cell, Sweep};
    /// use primecache_sim::{RunResult, Scheme};
    ///
    /// let cell = |scheme: Scheme, misses: u64| {
    ///     let mut l2 = CacheStats::new(16);
    ///     l2.misses = misses;
    ///     Cell {
    ///         workload: "synthetic",
    ///         non_uniform: false,
    ///         result: RunResult {
    ///             scheme,
    ///             breakdown: ExecBreakdown::default(),
    ///             l1: CacheStats::new(16),
    ///             l2,
    ///             dram: DramStats::default(),
    ///         },
    ///     }
    /// };
    /// let mut sweep = Sweep::default();
    /// let row = sweep.cells.entry("synthetic").or_default();
    /// row.insert(Scheme::Base.label(), cell(Scheme::Base, 0));
    /// row.insert(Scheme::Xor.label(), cell(Scheme::Xor, 7));
    ///
    /// // Zero-miss baseline: the ratio is undefined, so the answer is
    /// // `None` — NOT `0.0` ("every miss eliminated").
    /// assert_eq!(sweep.normalized_misses("synthetic", Scheme::Xor), None);
    /// ```
    #[must_use]
    pub fn normalized_misses(&self, workload: &str, scheme: Scheme) -> Option<f64> {
        let base = self.get(workload, Scheme::Base)?.result.l2_misses();
        let mine = self.get(workload, scheme)?.result.l2_misses();
        if base == 0 {
            return None;
        }
        Some(mine as f64 / base as f64)
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

/// Reference-target ceiling for generate-once sweeps. At the committed
/// compactness (≈2 B/event, ≈2 events/ref) a 23-workload store at this
/// target holds roughly `23 × 2M × 4 B ≈ 180 MB` — comfortably
/// in-memory. Above the ceiling [`run_sweep`] falls back to live
/// per-cell generation, which keeps peak memory O(1) in `target_refs`
/// at the cost of regenerating each trace once per scheme.
pub const STORE_MAX_REFS: u64 = 2_000_000;

/// Worker threads a fan-out may use: the machine's available
/// parallelism (4 when it cannot be queried).
fn available_workers() -> usize {
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
fn fan_out<T: Send>(n: usize, workers: usize, task: impl Fn(usize, usize) -> T + Sync) -> Vec<T> {
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

/// Records all 23 workloads in parallel (one generation each, on the
/// same fan-out the sweep itself uses) into a [`TraceStore`].
fn record_suite(workloads: &[Workload], target_refs: u64) -> TraceStore {
    let traces = fan_out(workloads.len(), available_workers(), |_, i| {
        workloads[i].record(target_refs)
    });
    let mut store = TraceStore::new(target_refs);
    for (w, trace) in workloads.iter().zip(traces) {
        store.insert(w.name, trace);
    }
    store
}

/// Runs `schemes` × all 23 workloads with `target_refs`-long traces,
/// fanning out across CPU cores.
///
/// Dataflow: up to [`STORE_MAX_REFS`] refs/workload the sweep first
/// *records* each workload exactly once (parallel, same-thread compact
/// encoding) into a [`TraceStore`], then every `(workload, scheme)`
/// cell replays the recording — generation cost is paid once instead of
/// once per scheme, which makes the sweep sim-bound rather than
/// generator-bound. Replay is bit-identical to live generation, so
/// results are unchanged. Beyond the ceiling, cells generate live as
/// before (O(1) memory).
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
    // Generate-once phase: record the suite before any cell runs.
    let store = (target_refs <= STORE_MAX_REFS).then(|| record_suite(all(), target_refs));
    let mut tasks: Vec<(&'static Workload, Scheme)> = all()
        .iter()
        .flat_map(|w| schemes.iter().map(move |&s| (w, s)))
        .collect();
    tasks.sort_by_key(|&(w, s)| std::cmp::Reverse(task_cost(w, s)));
    let avail = available_workers();
    // The fan-out never spawns surplus workers, but a grid smaller than
    // the machine is still worth flagging: the run's wall-clock won't
    // reflect the hardware's parallelism.
    for lint in primecache_analyze::lint_sweep_shape(tasks.len(), avail) {
        eprintln!("{lint}");
    }
    let epoch = std::time::Instant::now();
    let done = fan_out(tasks.len(), avail, |worker, i| {
        let (w, s) = tasks[i];
        let start_us = epoch.elapsed().as_micros() as u64;
        let result = match &store {
            Some(store) => {
                let cursor = store
                    .replay(w.name)
                    .expect("record phase stored every suite workload");
                run_chunks(cursor, s, &machine)
            }
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
        store: store.as_ref().map(TraceStore::stats),
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
    if let Err(e) = sweep.validate(all(), schemes) {
        panic!("sweep completeness violated: {e}");
    }
    sweep
}

/// One row of the paper's Table 4.
#[derive(Debug, Clone, Copy)]
pub struct Table4Row {
    /// The hashing scheme.
    pub scheme: Scheme,
    /// (min, avg, max) speedup over the uniform applications.
    pub uniform: (f64, f64, f64),
    /// (min, avg, max) speedup over the non-uniform applications.
    pub non_uniform: (f64, f64, f64),
    /// Applications slowed down by more than 1% (pathological cases).
    pub pathological: usize,
}

/// Computes Table 4 from a sweep that includes `Base` and the listed
/// schemes.
#[must_use]
pub fn table4(sweep: &Sweep, schemes: &[Scheme]) -> Vec<Table4Row> {
    let stats = |names: &[&str], scheme: Scheme| -> (f64, f64, f64) {
        let speedups: Vec<f64> = names
            .iter()
            .filter_map(|n| sweep.speedup(n, scheme))
            .collect();
        if speedups.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
        let max = speedups.iter().copied().fold(0.0f64, f64::max);
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        (min, avg, max)
    };
    let uniform = primecache_workloads::uniform_names();
    let non_uniform = primecache_workloads::non_uniform_names();
    let everything: Vec<&str> = uniform.iter().chain(non_uniform.iter()).copied().collect();
    schemes
        .iter()
        .map(|&scheme| {
            let pathological = everything
                .iter()
                .filter_map(|n| sweep.speedup(n, scheme))
                .filter(|&s| s < 0.99)
                .count();
            Table4Row {
                scheme,
                uniform: stats(&uniform, scheme),
                non_uniform: stats(&non_uniform, scheme),
                pathological,
            }
        })
        .collect()
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
        let sweep = run_sweep(&[Scheme::Base, Scheme::PrimeModulo], 5_000);
        assert_eq!(sweep.cells.len(), 23);
        for (name, per_scheme) in &sweep.cells {
            assert_eq!(per_scheme.len(), 2, "{name}");
        }
        assert!(sweep.normalized_time("tree", Scheme::PrimeModulo).is_some());
        // One scheduling record per cell, each internally consistent.
        assert_eq!(sweep.tasks.len(), 23 * 2);
        for t in &sweep.tasks {
            assert!(t.start_us <= t.end_us, "{t:?}");
            assert!(t.cost > 0);
        }
        // LPT: dispatch order is non-increasing in cost.
        for pair in sweep.tasks.windows(2) {
            assert!(pair[0].cost >= pair[1].cost);
        }
        // Generate-once accounting: 23 records, one replay per cell.
        let st = sweep.store.expect("small sweep serves from the store");
        assert_eq!(st.records, 23);
        assert_eq!(st.replays, 23 * 2);
        assert_eq!(st.target_refs, 5_000);
        assert!(st.encoded_bytes > 0);
        assert!(st.events > 0);
    }

    #[test]
    fn store_served_cells_match_live_generation() {
        // The replayed sweep must be bit-identical to per-cell live
        // generation — the sweep-level face of the replay_equivalence
        // battery.
        let sweep = run_sweep(&[Scheme::Base, Scheme::Xor], 4_000);
        for name in ["tree", "mcf", "swim"] {
            for s in [Scheme::Base, Scheme::Xor] {
                let live = run_workload(primecache_workloads::by_name(name).unwrap(), s, 4_000);
                let cell = sweep.get(name, s).expect("cell present");
                assert_eq!(
                    cell.result.breakdown,
                    live.breakdown,
                    "{name}/{}",
                    s.label()
                );
                assert_eq!(cell.result.l1, live.l1, "{name}/{}", s.label());
                assert_eq!(cell.result.l2, live.l2, "{name}/{}", s.label());
                assert_eq!(cell.result.dram, live.dram, "{name}/{}", s.label());
            }
        }
    }

    #[test]
    fn table4_has_one_row_per_scheme() {
        let sweep = run_sweep(&[Scheme::Base, Scheme::PrimeModulo], 5_000);
        let rows = table4(&sweep, &[Scheme::PrimeModulo]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.non_uniform.0 <= r.non_uniform.1 && r.non_uniform.1 <= r.non_uniform.2);
    }

    #[test]
    fn parallel_sweeps_are_deterministic() -> Result<(), SweepError> {
        // The fan-out must not introduce ordering nondeterminism.
        let a = run_sweep(&[Scheme::Base, Scheme::Xor], 4_000);
        let b = run_sweep(&[Scheme::Base, Scheme::Xor], 4_000);
        for w in primecache_workloads::all() {
            for s in [Scheme::Base, Scheme::Xor] {
                assert_eq!(
                    a.require(w.name, s)?.result.l2.misses,
                    b.require(w.name, s)?.result.l2.misses,
                    "{}/{}",
                    w.name,
                    s.label()
                );
                assert_eq!(
                    a.require(w.name, s)?.result.breakdown,
                    b.require(w.name, s)?.result.breakdown
                );
            }
        }
        Ok(())
    }

    #[test]
    fn base_normalizes_to_one() -> Result<(), SweepError> {
        let sweep = run_sweep(&[Scheme::Base], 5_000);
        for w in ["swim", "tree", "mcf"] {
            let n = sweep
                .normalized_time(w, Scheme::Base)
                .ok_or_else(|| SweepError {
                    workload: w.to_owned(),
                    scheme: Scheme::Base.label(),
                })?;
            assert!((n - 1.0).abs() < 1e-12, "{w}: {n}");
        }
        Ok(())
    }

    #[test]
    fn require_names_the_missing_cell() {
        let sweep = Sweep::default();
        let err = sweep.require("tree", Scheme::Xor).unwrap_err();
        assert_eq!(err.workload, "tree");
        assert_eq!(err.scheme, Scheme::Xor.label());
        assert!(err.to_string().contains("tree"));
    }

    #[test]
    fn normalized_misses_is_none_on_zero_miss_baseline() {
        // A baseline with zero misses must yield None, not a silent 0.0
        // that reads as "every miss eliminated".
        let mut sweep = run_sweep(&[Scheme::Base, Scheme::Xor], 4_000);
        let name = {
            let (&name, per_scheme) = sweep.cells.iter_mut().next().expect("non-empty sweep");
            let base = per_scheme
                .get_mut(Scheme::Base.label())
                .expect("base cell present");
            base.result.l2.misses = 0;
            base.result.l2.hits = base.result.l2.accesses;
            name
        };
        assert_eq!(sweep.normalized_misses(name, Scheme::Xor), None);
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
