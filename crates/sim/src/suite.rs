//! Full-suite sweeps: all 23 applications across schemes, in parallel.
//!
//! A sweep runs workload by workload. The paper's L1 is the same under
//! every scheme, so every cell of a workload consumes the same events
//! and the same L1 outcomes: one *prepare* step builds them once
//! ([`Recording::of_workload`]), every cell of the workload replays them
//! ([`Recording::run`]), and the workload's last cell drops them.
//! Prepare steps and cells share one fan-out: scoped worker threads
//! claim step indices from a single atomic cursor and hand their results
//! back through `join`. The caller checks, in every build, that each
//! step ran exactly once and none is missing.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
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

/// Scheduling record of one sweep cell: which worker ran it, when (µs
/// since sweep start), at what cost priority, and how long it waited for
/// its workload's shared input. The raw data behind `pcache trace-events
/// --sweep` and any load-balance analysis of the dispatcher.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Workload name.
    pub workload: &'static str,
    /// Scheme label.
    pub scheme: &'static str,
    /// Scheduling cost that ordered the workload's cells.
    pub cost: u64,
    /// Index of the worker thread that ran the task.
    pub worker: u32,
    /// Wall-clock microseconds from sweep start to task start.
    pub start_us: u64,
    /// Wall-clock microseconds from sweep start to task end.
    pub end_us: u64,
    /// Wall-clock microseconds of the task spent waiting for its
    /// workload's shared input, building it included when the cell found
    /// it unbuilt: 0 when the input was ready, and in a live sweep.
    pub wait_us: u64,
}

/// Counters of a sweep's shared inputs: one per workload, each built
/// once and dropped after the workload's last cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShareStats {
    /// Workload inputs built: one generation and one L1 run each.
    pub prepared: u64,
    /// Events across the built inputs.
    pub events: u64,
    /// Most input bytes held at once: events plus L1 records.
    pub peak_bytes: u64,
    /// Wall-clock microseconds spent building the inputs, summed over
    /// the workers that built them.
    pub prepare_us: u64,
}

/// A complete sweep: `results[workload][scheme]`.
#[derive(Debug, Default)]
pub struct Sweep {
    /// All cells, keyed by workload then scheme label.
    pub cells: BTreeMap<&'static str, BTreeMap<&'static str, Cell>>,
    /// Per-cell scheduling records, in dispatch order: workload by
    /// workload, each workload's cells by descending cost.
    pub tasks: Vec<TaskRecord>,
    /// Sharing counters when the cells replayed their workload's shared
    /// input, `None` when every cell generated live (one scheme, or a
    /// target above [`STORE_MAX_REFS`]).
    pub shared: Option<ShareStats>,
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

/// Relative simulation cost of one `(workload, scheme)` cell. A sweep
/// runs each workload's cells by descending cost, so its slowest cells
/// start first. Beyond the shared L1, the scheme's L2 organization sets
/// most of the per-access work — the fully-associative L2 probes a block
/// map and relinks its recency list, the skewed banks compute one hash
/// per way — and the workload's footprint adds a little (bigger
/// footprints miss more, and misses cost DRAM modeling work). The
/// weights are coarse: only their order within a workload matters.
fn task_cost(workload: &Workload, scheme: Scheme) -> u64 {
    let scheme_weight: u64 = match scheme {
        Scheme::FullyAssociative => 8,
        Scheme::Skewed | Scheme::SkewedPrimeDisplacement => 3,
        _ => 2,
    };
    // log2 of the footprint keeps the scheme weight dominant.
    scheme_weight * 64 + u64::from(footprint(workload).ilog2())
}

/// The workload's modeled footprint in bytes (1 when it has no profile).
fn footprint(workload: &Workload) -> u64 {
    primecache_workloads::profile::profile_of(workload.name).map_or(1, |p| p.footprint_bytes)
}

/// Reference-target ceiling for sweeps that share each workload's input
/// between its cells: the bound on the events a sweep holds in flight.
/// An input holds its decoded events (16 B each, about 25 B per memory
/// reference over all 23 workloads, events between references included)
/// plus about 0.45 B of L1 record per reference, so at this target one
/// input takes up to about 60 MB. A sweep holds each input from its
/// prepare step to its workload's last cell: on two workers, about two
/// inputs at a time with nine schemes and up to three with two
/// (measured peaks of 123 MB and 171 MB of inputs at this target), more
/// with more workers per scheme. Above the ceiling [`run_sweep`]
/// generates every cell live, L1 included, which keeps memory O(1) in
/// `target_refs`.
pub const STORE_MAX_REFS: u64 = 2_000_000;

/// Worker threads a fan-out may use: the machine's available
/// parallelism (4 when it cannot be queried), read once per process.
pub(crate) fn available_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS
        .get_or_init(|| std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get))
}

thread_local! {
    /// Whether this thread is one of two or more [`fan_out`] workers,
    /// whose runs share the host's cores with the other workers. A lone
    /// worker is not marked: its runs are the only ones going.
    static FAN_OUT_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether a single-scheme run on the calling thread has a core for an
/// L1 stage: the host has two or more, and the thread is not one of
/// several fan-out workers, which already occupy them. Without one, the
/// stage's batches are only overhead, so the run keeps its live L1.
pub(crate) fn stage_has_a_core() -> bool {
    !FAN_OUT_WORKER.get() && available_workers() > 1
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
    let spawned = workers.max(1).min(n);
    let batches: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spawned)
            .map(|worker| {
                let (cursor, task) = (&cursor, &task);
                scope.spawn(move || {
                    FAN_OUT_WORKER.set(spawned > 1);
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

/// One workload's input, shared by its cells: built at most once, by
/// whichever step asks first, and dropped once every cell has released
/// it.
///
/// A request that finds the input being built waits for that build
/// (`OnceLock::get_or_init`). If the build panics, the panic reaches its
/// caller and a waiting request runs its own build instead, so no worker
/// waits forever.
pub(crate) struct SharedInput<T> {
    /// `None` once every cell has released the input. The lock is held
    /// only to clone or take the handle, and neither leaves it invalid,
    /// so a poisoned lock is recovered.
    input: Mutex<Option<Arc<OnceLock<T>>>>,
    /// Cells that have yet to release it.
    pending: AtomicUsize,
}

/// A built input, held by one step.
pub(crate) struct Held<T>(Arc<OnceLock<T>>);

impl<T> Deref for Held<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.0
            .get()
            .expect("an input is built before it is handed out")
    }
}

impl<T> SharedInput<T> {
    /// An unbuilt input for `cells` cells.
    pub(crate) fn new(cells: usize) -> Self {
        Self {
            input: Mutex::new(Some(Arc::new(OnceLock::new()))),
            pending: AtomicUsize::new(cells),
        }
    }

    /// The input, built by `build` unless it is built or being built
    /// already, and the microseconds this request waited for it (0 when
    /// it was ready). `None` once every cell has released it.
    pub(crate) fn get(&self, build: impl FnOnce() -> T) -> Option<(Held<T>, u64)> {
        let once = self
            .input
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()?;
        let wait_us = if once.get().is_some() {
            0
        } else {
            let started = Instant::now();
            once.get_or_init(build);
            started.elapsed().as_micros() as u64
        };
        Some((Held(once), wait_us))
    }

    /// Releases one cell's hold. Returns `true` for the last cell, whose
    /// release drops the input once the steps holding it let go.
    pub(crate) fn release(&self) -> bool {
        let last = self.pending.fetch_sub(1, Ordering::AcqRel) == 1;
        if last {
            self.input
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
        }
        last
    }
}

/// One step of a sweep's fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Builds the workload's shared input, unless a cell already has or
    /// every cell has finished.
    Prepare(usize),
    /// Runs one `(workload, scheme)` cell.
    Cell(usize, Scheme),
}

/// The steps of a sweep, workload-major: workloads by descending
/// footprint, each workload's cells by descending [`task_cost`]. With
/// `share`, each workload's [`Step::Prepare`] sits `workers` cells before
/// its first cell, so it is built while the workers finish the cells
/// before it.
fn plan(workloads: &[Workload], schemes: &[Scheme], workers: usize, share: bool) -> Vec<Step> {
    let mut order: Vec<usize> = (0..workloads.len()).collect();
    order.sort_by_key(|&w| Reverse(footprint(&workloads[w])));
    let cells: Vec<(usize, Scheme)> = order
        .iter()
        .flat_map(|&w| {
            let mut by_cost = schemes.to_vec();
            by_cost.sort_by_key(|&s| Reverse(task_cost(&workloads[w], s)));
            by_cost.into_iter().map(move |s| (w, s))
        })
        .collect();
    let mut steps = Vec::with_capacity(cells.len() + order.len());
    let mut prepared = 0;
    for (i, &(w, s)) in cells.iter().enumerate() {
        while share && prepared < order.len() && prepared * schemes.len() <= i + workers {
            steps.push(Step::Prepare(order[prepared]));
            prepared += 1;
        }
        steps.push(Step::Cell(w, s));
    }
    steps
}

/// The sharing counters while a sweep runs.
#[derive(Default)]
struct ShareCounters {
    prepared: AtomicU64,
    events: AtomicU64,
    held_bytes: AtomicU64,
    peak_bytes: AtomicU64,
    prepare_us: AtomicU64,
}

impl ShareCounters {
    /// Builds `workload`'s input and counts it.
    fn prepare(&self, workload: &Workload, target_refs: u64) -> Recording {
        let started = Instant::now();
        let input = Recording::of_workload(workload, target_refs);
        let bytes = input.bytes();
        let held = self.held_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(held, Ordering::Relaxed);
        self.prepared.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(input.events(), Ordering::Relaxed);
        self.prepare_us
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        input
    }

    fn stats(&self) -> ShareStats {
        ShareStats {
            prepared: self.prepared.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            prepare_us: self.prepare_us.load(Ordering::Relaxed),
        }
    }
}

/// Runs `schemes` × all 23 workloads with `target_refs`-long traces,
/// fanning out across CPU cores.
///
/// Dataflow: with two or more schemes and up to [`STORE_MAX_REFS`]
/// refs/workload, each workload's input — its events, as
/// [`Workload::push_chunks`] pushes them, and the paper's L1 outcomes
/// over them — is built once ([`Recording::of_workload`]) and every
/// `(workload, scheme)` cell replays it ([`Recording::run`]) into the
/// scheme's own L2, DRAM and core: no cell generates, decodes or runs
/// the L1. Cells run workload by workload, and each input is dropped
/// after its workload's last cell, so only a few are held at a time.
/// Replay is bit-identical to live generation, so results are
/// unchanged. Otherwise every cell generates live, L1 included (O(1)
/// memory).
///
/// Scheduling: workloads by descending footprint, each workload's cells
/// longest-cost first (`task_cost`); a workload's input is prepared as
/// many cells ahead of its first cell as there are workers. Each worker
/// keeps its own results and returns them when it joins — no shared
/// collection vector.
#[must_use]
pub fn run_sweep(schemes: &[Scheme], target_refs: u64) -> Sweep {
    sweep_on(all(), schemes, target_refs, available_workers())
}

/// [`run_sweep`] over `workloads` on `workers` worker threads.
pub(crate) fn sweep_on(
    workloads: &[Workload],
    schemes: &[Scheme],
    target_refs: u64,
    workers: usize,
) -> Sweep {
    // Static lint pass first: refuse to burn a 23-application sweep on a
    // degenerate L2 configuration.
    let machine = crate::MachineConfig::paper_default();
    for &s in schemes {
        machine.check_scheme(s);
    }
    let share = schemes.len() >= 2 && target_refs <= STORE_MAX_REFS;
    let steps = plan(workloads, schemes, workers, share);
    // The fan-out never spawns surplus workers, but a grid smaller than
    // the machine is still worth flagging: the run's wall-clock won't
    // reflect the hardware's parallelism.
    for lint in primecache_analyze::lint_sweep_shape(workloads.len() * schemes.len(), workers) {
        eprintln!("{lint}");
    }
    let inputs: Vec<SharedInput<Recording>> = workloads
        .iter()
        .map(|_| SharedInput::new(schemes.len()))
        .collect();
    let counters = ShareCounters::default();
    let epoch = Instant::now();
    let done = fan_out(steps.len(), workers, |worker, i| {
        let (wi, s) = match steps[i] {
            Step::Prepare(wi) => {
                let _ = inputs[wi].get(|| counters.prepare(&workloads[wi], target_refs));
                return None;
            }
            Step::Cell(wi, s) => (wi, s),
        };
        let w = &workloads[wi];
        let start_us = epoch.elapsed().as_micros() as u64;
        let (result, wait_us) = if share {
            let (input, wait_us) = inputs[wi]
                .get(|| counters.prepare(w, target_refs))
                .expect("a workload's input outlives its cells");
            let result = input.run(s, &machine);
            if inputs[wi].release() {
                counters
                    .held_bytes
                    .fetch_sub(input.bytes(), Ordering::Relaxed);
            }
            (result, wait_us)
        } else {
            (run_workload(w, s, target_refs), 0)
        };
        let record = TaskRecord {
            workload: w.name,
            scheme: s.label(),
            cost: task_cost(w, s),
            worker: worker as u32,
            start_us,
            end_us: epoch.elapsed().as_micros() as u64,
            wait_us,
        };
        let cell = Cell {
            workload: w.name,
            non_uniform: w.expected_non_uniform,
            result,
        };
        Some((cell, record))
    });
    let mut sweep = Sweep {
        shared: share.then(|| counters.stats()),
        ..Sweep::default()
    };
    for (cell, record) in done.into_iter().flatten() {
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
        let schemes = &Scheme::ALL[..3];
        let sweep = run_sweep(schemes, 5_000);
        assert_eq!(sweep.cells.len(), 23);
        for (name, per_scheme) in &sweep.cells {
            assert_eq!(per_scheme.len(), schemes.len(), "{name}");
        }
        // One scheduling record per cell, each internally consistent.
        assert_eq!(sweep.tasks.len(), 23 * schemes.len());
        for t in &sweep.tasks {
            assert!(t.start_us <= t.end_us, "{t:?}");
            assert!(t.wait_us <= t.end_us - t.start_us, "{t:?}");
            assert!(t.cost > 0);
        }
        // Workload-major: each workload's cells are contiguous, the
        // workloads come by non-increasing footprint, and each
        // workload's cells by non-increasing cost.
        let groups: Vec<&[TaskRecord]> = sweep
            .tasks
            .chunk_by(|a, b| a.workload == b.workload)
            .collect();
        assert_eq!(groups.len(), 23, "each workload's cells run together");
        let size = |t: &TaskRecord| footprint(primecache_workloads::by_name(t.workload).unwrap());
        for pair in groups.windows(2) {
            assert!(size(&pair[0][0]) >= size(&pair[1][0]));
        }
        for group in &groups {
            assert_eq!(group.len(), schemes.len());
            assert!(group.windows(2).all(|p| p[0].cost >= p[1].cost));
        }
        // Sharing accounting: one input per workload.
        let st = sweep
            .shared
            .expect("a multi-scheme sweep shares its inputs");
        assert_eq!(st.prepared, 23);
        assert!(st.events > 0);
        assert!(
            st.peak_bytes >= st.events / 23 * std::mem::size_of::<primecache_trace::Event>() as u64
        );
    }

    #[test]
    fn one_scheme_sweeps_generate_live() {
        // A cell on one of several fan-out workers keeps its live L1 on
        // the worker's thread; the same run on this thread, or on a lone
        // worker, hands it to an L1 stage if the host has a second core.
        // Both give the same results.
        let marked = || FAN_OUT_WORKER.get();
        assert!(!marked());
        assert_eq!(fan_out(4, 2, |_, _| marked()), [true; 4]);
        assert_eq!(fan_out(4, 1, |_, _| marked()), [false; 4]);
        assert_eq!(fan_out(1, 2, |_, _| marked()), [false]);
        let sweep = run_sweep(&[Scheme::Base], 4_000);
        assert_eq!(sweep.shared, None);
        assert!(sweep.tasks.iter().all(|t| t.wait_us == 0));
        let w = primecache_workloads::by_name("mcf").expect("mcf");
        let cell = sweep.get(w.name, Scheme::Base).expect("cell present");
        let staged = run_workload(w, Scheme::Base, 4_000);
        assert_eq!(cell.result.breakdown, staged.breakdown);
        assert_eq!(cell.result.l1, staged.l1);
        assert_eq!(cell.result.l2, staged.l2);
        assert_eq!(cell.result.dram, staged.dram);
    }

    #[test]
    fn shared_cells_match_live_runs_at_any_worker_count() {
        const REFS: u64 = 3_000;
        let workloads: Vec<Workload> = ["tree", "mcf", "swim", "charmm"]
            .iter()
            .map(|&n| *primecache_workloads::by_name(n).expect("known workload"))
            .collect();
        let live: Vec<Vec<RunResult>> = workloads
            .iter()
            .map(|w| {
                Scheme::ALL
                    .iter()
                    .map(|&s| run_workload(w, s, REFS))
                    .collect()
            })
            .collect();
        for workers in [1, 2, 8] {
            let sweep = sweep_on(&workloads, &Scheme::ALL, REFS, workers);
            let st = sweep
                .shared
                .expect("a multi-scheme sweep shares its inputs");
            assert_eq!(st.prepared, workloads.len() as u64, "{workers} workers");
            if workers == 1 {
                // One worker runs each prepare step before the cells
                // that need it, so no cell waits.
                assert!(
                    sweep.tasks.iter().all(|t| t.wait_us == 0),
                    "{:?}",
                    sweep.tasks
                );
            }
            for (w, live) in workloads.iter().zip(&live) {
                for (&s, live) in Scheme::ALL.iter().zip(live) {
                    let ctx = format!("{}/{} on {workers} workers", w.name, s.label());
                    let cell = &sweep.get(w.name, s).expect("cell present").result;
                    assert_eq!(cell.breakdown, live.breakdown, "{ctx}");
                    assert_eq!(cell.l1, live.l1, "{ctx}");
                    assert_eq!(cell.l2, live.l2, "{ctx}");
                    assert_eq!(cell.dram, live.dram, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn plan_prepares_each_workload_as_many_cells_ahead_as_workers() {
        let workloads = all();
        for (n_schemes, workers) in [(8, 1), (8, 2), (8, 8), (2, 8), (3, 2)] {
            let schemes = &Scheme::ALL[..n_schemes];
            let steps = plan(workloads, schemes, workers, true);
            let cells = steps.iter().filter(|s| matches!(s, Step::Cell(..))).count();
            assert_eq!(cells, workloads.len() * n_schemes);
            for (w, _) in workloads.iter().enumerate() {
                let prepare = steps.iter().position(|&s| s == Step::Prepare(w));
                let first = steps
                    .iter()
                    .position(|s| matches!(s, Step::Cell(c, _) if *c == w));
                let (Some(prepare), Some(first)) = (prepare, first) else {
                    panic!("workload {w} is prepared once and has cells");
                };
                let ahead = steps[prepare..first]
                    .iter()
                    .filter(|s| matches!(s, Step::Cell(..)))
                    .count();
                // Exactly `workers` cells ahead, unless the sweep has not
                // yet run that many.
                let before = steps[..first]
                    .iter()
                    .filter(|s| matches!(s, Step::Cell(..)))
                    .count();
                assert_eq!(
                    ahead,
                    workers.min(before),
                    "{n_schemes} schemes, {workers} workers"
                );
            }
        }
        assert!(!plan(workloads, &Scheme::ALL, 2, false)
            .iter()
            .any(|s| matches!(s, Step::Prepare(_))));
    }

    #[test]
    fn shared_input_is_built_once_for_concurrent_requests() {
        const REQUESTS: usize = 8;
        let builds = AtomicUsize::new(0);
        let input = SharedInput::new(REQUESTS);
        let together = std::sync::Barrier::new(REQUESTS);
        let held: Vec<usize> = std::thread::scope(|scope| {
            let requests: Vec<_> = (0..REQUESTS)
                .map(|_| {
                    scope.spawn(|| {
                        together.wait();
                        let (held, _) = input
                            .get(|| {
                                builds.fetch_add(1, Ordering::Relaxed);
                                vec![7u8; 1 << 20]
                            })
                            .expect("no cell has released the input");
                        Arc::as_ptr(&held.0) as usize
                    })
                })
                .collect();
            requests
                .into_iter()
                .map(|r| r.join().expect("no request panics"))
                .collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert!(held.windows(2).all(|p| p[0] == p[1]), "one shared input");
    }

    #[test]
    fn a_panicking_build_reaches_its_caller_and_strands_no_waiter() {
        let input = SharedInput::new(4);
        let (entered, building) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let failing = scope.spawn(|| {
                input
                    .get(|| {
                        entered.send(()).expect("the test waits for the build");
                        // Likely lets the waiters block on this build;
                        // whether they do or arrive after the panic, each
                        // must come back with an input.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        panic!("build failed")
                    })
                    .map(|(held, _)| *held)
            });
            building.recv().expect("the build starts");
            let waiters: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| input.get(|| 7u32).map(|(held, _)| *held)))
                .collect();
            let payload = failing
                .join()
                .expect_err("the build's panic reaches its caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"build failed"));
            for waiter in waiters {
                assert_eq!(waiter.join().expect("a waiter builds instead"), Some(7));
            }
        });
    }

    #[test]
    fn shared_input_is_freed_after_its_last_cell() {
        let input = SharedInput::new(2);
        let (first, _) = input.get(|| vec![1u64; 64]).expect("built");
        let weak = Arc::downgrade(&first.0);
        drop(first);
        assert!(!input.release(), "one cell is still pending");
        assert!(weak.upgrade().is_some(), "the pending cell keeps the input");
        let (second, wait_us) = input
            .get(|| unreachable!("built once"))
            .expect("still held");
        assert_eq!(wait_us, 0, "the input was ready");
        assert!(input.release(), "the last cell");
        assert!(weak.upgrade().is_some(), "a step still holds it");
        drop(second);
        assert!(weak.upgrade().is_none(), "freed after its last cell");
        // A prepare step that comes after the last cell does nothing.
        assert!(input.get(|| unreachable!("finished")).is_none());
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
