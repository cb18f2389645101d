//! The deterministic model checker.
//!
//! [`Checker::check`] runs a closure under a cooperative scheduler that
//! systematically explores thread interleavings: every schedule up to
//! the configured preemption bound, minus interleavings that sleep-set
//! pruning proves equivalent. The closure builds its threads and sync
//! objects from this module's primitives (or, for code written against
//! the facade, from [`ModelBackend`]); plain `assert!`s in the closure
//! become checked properties — a failing schedule is reported with a
//! printable seed that [`Checker::replay`] re-executes exactly.
//!
//! What the checker detects:
//!
//! * **assertion failures / panics** on any model thread,
//! * **deadlock** — no thread can make progress (e.g. two threads
//!   taking two mutexes in opposite orders),
//! * **thread leaks** — a join handle dropped without `join`, or the
//!   root closure returning while spawned threads are still blocked,
//! * **livelock** — a schedule exceeding the per-run step budget.
//!
//! Modeling limits: interleaving-exhaustive, not weak-memory-exhaustive
//! (atomics are sequentially consistent — the shipped protocols only
//! rely on atomicity, not ordering), and `std` primitives used inside a
//! checked closure are invisible to the scheduler.

mod exec;
mod explore;

use std::sync::Arc;

use crate::api::{self, Backend, JoinApi, MutexApi, Panicked};
use exec::{current, Executor, ObjId, Op, Outcome, Tid};

/// Bounded exhaustive schedule exploration.
#[derive(Debug, Clone)]
pub struct Checker {
    /// Maximum context switches away from a still-runnable thread per
    /// schedule. Bound 2 is the shipping default: per the CHESS line of
    /// work, nearly all real concurrency bugs manifest within two.
    pub preemption_bound: usize,
    /// Safety valve on the number of schedules; exceeding it sets
    /// [`Report::truncated`] instead of looping forever.
    pub max_schedules: u64,
    /// Per-schedule step budget; exceeding it is reported as a livelock.
    pub max_steps: u64,
}

impl Default for Checker {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_schedules: 500_000,
            max_steps: 50_000,
        }
    }
}

/// Why a schedule violated the checked properties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// No thread can make progress.
    Deadlock {
        /// Each blocked thread and the operation it is stuck at.
        blocked: Vec<String>,
    },
    /// A thread was never joined (dropped handle or blocked forever
    /// after the root returned).
    ThreadLeak {
        /// The leaked threads.
        threads: Vec<String>,
    },
    /// A model thread panicked (assertion failure).
    Panic {
        /// Name of the panicking thread.
        thread: String,
        /// The panic message.
        message: String,
    },
    /// The schedule exceeded [`Checker::max_steps`] (livelock).
    StepBudget {
        /// Steps executed when the budget tripped.
        steps: u64,
    },
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Deadlock { blocked } => {
                write!(f, "deadlock: {}", blocked.join("; "))
            }
            Self::ThreadLeak { threads } => {
                write!(f, "thread leak (never joined): {}", threads.join("; "))
            }
            Self::Panic { thread, message } => {
                write!(f, "panic on {thread}: {message}")
            }
            Self::StepBudget { steps } => {
                write!(f, "livelock: no fixpoint after {steps} steps")
            }
        }
    }
}

/// A failing schedule.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What failed.
    pub kind: ViolationKind,
    /// Replayable schedule seed (`pb<bound>;t0,t1,...`); feed it to
    /// [`Checker::replay`] to re-execute exactly this interleaving.
    pub seed: String,
    /// Human-readable step log of the failing schedule.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.kind)?;
        writeln!(f, "replay seed: {}", self.seed)?;
        writeln!(f, "schedule:")?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Result of a [`Checker::check`] exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules executed.
    pub schedules: u64,
    /// Schedules abandoned by sleep-set pruning (counted in
    /// [`Report::schedules`]).
    pub pruned: u64,
    /// Deepest schedule, in scheduling decisions.
    pub max_depth: usize,
    /// Exploration hit [`Checker::max_schedules`] before exhausting the
    /// bounded schedule space.
    pub truncated: bool,
    /// The first failing schedule, if any.
    pub violation: Option<Violation>,
}

impl Report {
    /// Panics with the full violation report (kind, seed, schedule) if
    /// any schedule failed — the assertion to end model tests with.
    ///
    /// # Panics
    ///
    /// Panics when the exploration found a violation.
    pub fn assert_clean(&self) {
        if let Some(v) = &self.violation {
            panic!(
                "model check failed after {} schedules:\n{v}",
                self.schedules
            );
        }
    }
}

impl Checker {
    /// A checker with the given preemption bound and default budgets.
    #[must_use]
    pub fn with_bound(preemption_bound: usize) -> Self {
        Self {
            preemption_bound,
            ..Self::default()
        }
    }

    /// Explores every schedule of `f` within the preemption bound,
    /// stopping at the first violation.
    ///
    /// `f` runs once per schedule and must be deterministic apart from
    /// scheduling: build all threads and sync objects inside it.
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        explore::Search::new(self, Arc::new(f)).run()
    }

    /// Re-executes exactly the schedule a violation's seed encodes.
    ///
    /// # Panics
    ///
    /// Panics when `seed` does not parse or names a thread that is not
    /// schedulable at the recorded point (i.e. the seed does not belong
    /// to this program).
    pub fn replay<F>(&self, seed: &str, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let (bound, schedule) = explore::parse_seed(seed).expect("malformed schedule seed");
        let checker = Self {
            preemption_bound: bound,
            ..self.clone()
        };
        explore::Search::new(&checker, Arc::new(f)).replay(&schedule)
    }
}

// ---------------------------------------------------------------------
// Model primitives (the ModelBackend implementation).
// ---------------------------------------------------------------------

/// Handle to a model thread; dropping it without joining is reported as
/// a thread leak.
#[derive(Debug)]
pub struct JoinHandle {
    exec: Arc<Executor>,
    target: Tid,
    me: Tid,
    joined: bool,
}

/// Spawns a named model thread.
///
/// # Panics
///
/// Panics when called outside [`Checker::check`].
pub fn spawn<F: FnOnce() + Send + 'static>(name: &str, f: F) -> JoinHandle {
    let (exec, me) = current();
    let target = exec.spawn_thread(name, Box::new(f));
    JoinHandle {
        exec,
        target,
        me,
        joined: false,
    }
}

impl JoinApi for JoinHandle {
    fn join(mut self) -> Result<(), Panicked> {
        self.joined = true;
        self.exec.yield_op(self.me, Op::Join(self.target));
        Ok(())
    }
}

impl Drop for JoinHandle {
    fn drop(&mut self) {
        // A handle dropped before the thread finished detaches it —
        // exactly the bug class the checker reports as a leak. Drops
        // that happen while tearing down an already-failed schedule are
        // not the protocol's fault and stay unrecorded.
        if !self.joined && !std::thread::panicking() && !self.exec.is_finished(self.target) {
            self.exec.leak(self.target);
        }
    }
}

/// Model mutex with scoped access.
#[derive(Debug)]
pub struct Mutex<T> {
    data: std::sync::Mutex<T>,
    obj: ObjId,
    exec: Arc<Executor>,
}

impl<T> Mutex<T> {
    /// Creates a model mutex.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`Checker::check`].
    #[must_use]
    pub fn new(value: T) -> Self {
        let (exec, _) = current();
        let obj = exec.register_mutex();
        Self {
            data: std::sync::Mutex::new(value),
            obj,
            exec,
        }
    }
}

impl<T: Send> MutexApi<T> for Mutex<T> {
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let (_, me) = current();
        self.exec.yield_op(me, Op::MutexLock(self.obj));
        // Release the model-level lock even if `f` panics, so the
        // failing schedule tears down instead of wedging.
        struct Unlock<'e>(&'e Executor, Tid, ObjId);
        impl Drop for Unlock<'_> {
            fn drop(&mut self) {
                self.0.mutex_unlock(self.1, self.2);
            }
        }
        let _unlock = Unlock(&self.exec, me, self.obj);
        // Uncontended by construction: the scheduler only grants the
        // lock when no other model thread holds it.
        let mut guard = self
            .data
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }
}

/// Model atomic counter (sequentially consistent).
#[derive(Debug)]
pub struct AtomicUsize {
    obj: ObjId,
    exec: Arc<Executor>,
}

impl AtomicUsize {
    /// Creates a model atomic.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`Checker::check`].
    #[must_use]
    pub fn new(value: usize) -> Self {
        let (exec, _) = current();
        let obj = exec.register_atomic(value);
        Self { obj, exec }
    }
}

impl api::AtomicUsizeApi for AtomicUsize {
    fn fetch_add(&self, n: usize) -> usize {
        let (_, me) = current();
        match self.exec.yield_op(me, Op::AtomicAdd(self.obj, n)) {
            Outcome::Value(v) => v,
            _ => 0,
        }
    }

    fn load(&self) -> usize {
        let (_, me) = current();
        match self.exec.yield_op(me, Op::AtomicLoad(self.obj)) {
            Outcome::Value(v) => v,
            _ => 0,
        }
    }

    fn store(&self, value: usize) {
        let (_, me) = current();
        self.exec.yield_op(me, Op::AtomicStore(self.obj, value));
    }
}

/// The model-checking sync backend: same facade as
/// [`crate::sync::StdBackend`], every operation a scheduling point.
#[derive(Debug, Clone, Copy)]
pub enum ModelBackend {}

impl Backend for ModelBackend {
    type Mutex<T: Send + 'static> = Mutex<T>;
    type AtomicUsize = AtomicUsize;
    type JoinHandle = JoinHandle;

    fn mutex<T: Send + 'static>(value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    fn atomic_usize(value: usize) -> AtomicUsize {
        AtomicUsize::new(value)
    }

    fn spawn<F: FnOnce() + Send + 'static>(name: &str, f: F) -> JoinHandle {
        spawn(name, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AtomicUsizeApi;

    #[test]
    fn single_thread_trivially_clean() {
        let report = Checker::default().check(|| {
            let a = AtomicUsize::new(0);
            a.store(3);
            assert_eq!(a.load(), 3);
        });
        report.assert_clean();
        assert_eq!(report.schedules, 1);
    }

    #[test]
    fn explores_multiple_interleavings_of_two_writers() {
        let report = Checker::default().check(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let b = Arc::clone(&a);
            let t = spawn("w", move || {
                b.fetch_add(1);
            });
            a.fetch_add(1);
            t.join().expect("worker");
            assert_eq!(a.load(), 2);
        });
        report.assert_clean();
        assert!(
            report.schedules > 1,
            "two racing increments admit >1 schedule, got {}",
            report.schedules
        );
    }

    #[test]
    fn fetch_add_races_are_atomic_but_load_store_races_are_caught() {
        // fetch_add: atomic, always sums to 2.
        Checker::default()
            .check(|| {
                let a = Arc::new(AtomicUsize::new(0));
                let b = Arc::clone(&a);
                let t = spawn("w", move || {
                    b.fetch_add(1);
                });
                a.fetch_add(1);
                t.join().expect("worker");
                assert_eq!(a.load(), 2);
            })
            .assert_clean();
        // load-then-store: the checker must find the lost update.
        let report = Checker::default().check(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let b = Arc::clone(&a);
            let t = spawn("w", move || {
                let v = b.load();
                b.store(v + 1);
            });
            let v = a.load();
            a.store(v + 1);
            t.join().expect("worker");
            assert_eq!(a.load(), 2, "lost update");
        });
        let v = report.violation.expect("load/store race must be caught");
        assert!(matches!(v.kind, ViolationKind::Panic { .. }), "{}", v.kind);
    }

    #[test]
    fn deadlock_is_detected() {
        // Lock-order inversion: each thread holds one mutex and waits
        // for the other's. The schedule that interleaves the two first
        // locks leaves neither thread able to run.
        let report = Checker::default().check(|| {
            let a = Arc::new(Mutex::new(0u8));
            let b = Arc::new(Mutex::new(0u8));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = spawn("ba", move || {
                b2.with(|_| a2.with(|_| ()));
            });
            a.with(|_| b.with(|_| ()));
            t.join().expect("worker");
        });
        let v = report.violation.expect("deadlock must be caught");
        assert!(
            matches!(v.kind, ViolationKind::Deadlock { .. }),
            "{}",
            v.kind
        );
        assert!(v.seed.starts_with("pb2;"), "seed: {}", v.seed);
    }

    #[test]
    fn unjoined_thread_is_a_leak() {
        let report = Checker::default().check(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let b = Arc::clone(&a);
            let handle = spawn("orphan", move || {
                b.fetch_add(1);
            });
            drop(handle); // detached — never joined
        });
        let v = report.violation.expect("leak must be caught");
        assert!(
            matches!(v.kind, ViolationKind::ThreadLeak { .. }),
            "{}",
            v.kind
        );
    }

    #[test]
    fn violation_seed_replays_to_the_same_violation() {
        let body = || {
            let a = Arc::new(AtomicUsize::new(0));
            let b = Arc::clone(&a);
            let t = spawn("w", move || {
                let v = b.load();
                b.store(v + 1);
            });
            let v = a.load();
            a.store(v + 1);
            t.join().expect("worker");
            assert_eq!(a.load(), 2, "lost update");
        };
        let checker = Checker::default();
        let report = checker.check(body);
        let violation = report.violation.expect("race caught");
        let replay = checker.replay(&violation.seed, body);
        assert_eq!(replay.schedules, 1);
        let replayed = replay.violation.expect("replay reproduces the violation");
        assert_eq!(replayed.kind, violation.kind);
    }

    #[test]
    fn sleep_sets_prune_independent_interleavings() {
        // Two threads on two unrelated atomics: every interleaving is
        // equivalent, so pruning should cut the schedule count well
        // below the unpruned bound-2 count.
        let report = Checker::default().check(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let b = Arc::new(AtomicUsize::new(0));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = spawn("w", move || {
                a2.fetch_add(1);
                a2.fetch_add(1);
            });
            b.fetch_add(1);
            b.fetch_add(1);
            t.join().expect("worker");
            assert_eq!(a.load(), 2);
            assert_eq!(b2.load(), 2);
        });
        report.assert_clean();
        assert!(
            report.schedules < 40,
            "independent ops should prune hard, ran {}",
            report.schedules
        );
    }

    #[test]
    fn mutex_provides_mutual_exclusion_under_all_schedules() {
        Checker::default()
            .check(|| {
                let m = Arc::new(Mutex::new((0u64, false)));
                let m2 = Arc::clone(&m);
                let t = spawn("w", move || {
                    m2.with(|(count, in_cs)| {
                        assert!(!*in_cs, "two threads inside the critical section");
                        *in_cs = true;
                        *count += 1;
                        *in_cs = false;
                    });
                });
                m.with(|(count, in_cs)| {
                    assert!(!*in_cs, "two threads inside the critical section");
                    *in_cs = true;
                    *count += 1;
                    *in_cs = false;
                });
                t.join().expect("worker");
                m.with(|(count, _)| assert_eq!(*count, 2));
            })
            .assert_clean();
    }
}
