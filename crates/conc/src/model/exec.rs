//! The cooperative executor: one run of the program under one schedule.
//!
//! Every model thread is a real OS thread, but exactly one runs at a
//! time. A thread announces each sync operation *before* performing it
//! ([`Executor::yield_op`]) and parks until the controller grants it the
//! token. Because the parked threads publish their pending operations,
//! the controller can see which threads are *enabled* (their operation
//! would not block), detect deadlock the moment no thread is enabled,
//! and compute operation (in)dependence for sleep-set pruning.
//!
//! Operation effects are applied under the executor's state lock at the
//! moment of the grant, so enabledness checked by the controller cannot
//! be invalidated before the thread acts on it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Model-thread id (0 is the root closure).
pub(crate) type Tid = usize;
/// Sync-object id.
pub(crate) type ObjId = usize;

/// Sentinel payload used to unwind parked threads when a run is torn
/// down; the thread wrapper recognizes it and does not report a panic.
struct AbortToken;

/// A sync operation a thread is about to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// First schedulable step of a freshly spawned thread.
    Start,
    /// Acquire a mutex.
    MutexLock(ObjId),
    /// Read an atomic.
    AtomicLoad(ObjId),
    /// Overwrite an atomic.
    AtomicStore(ObjId, usize),
    /// Fetch-add on an atomic.
    AtomicAdd(ObjId, usize),
    /// Join a thread.
    Join(Tid),
}

impl Op {
    /// The object this operation touches, if object-scoped.
    fn obj(self) -> Option<(ObjId, bool)> {
        match self {
            Op::Start | Op::Join(_) => None,
            Op::AtomicLoad(o) => Some((o, false)),
            Op::MutexLock(o) | Op::AtomicStore(o, _) | Op::AtomicAdd(o, _) => Some((o, true)),
        }
    }
}

/// What a granted operation produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Plain completion (locks, stores, start, join).
    Done,
    /// Value read by a load or returned by fetch-add.
    Value(usize),
}

/// Executor-side state of one sync object (the typed payloads live in
/// the primitives themselves; the executor tracks what it needs for
/// enabledness).
#[derive(Debug)]
enum ObjState {
    Mutex { held_by: Option<Tid> },
    Atomic { value: usize },
}

#[derive(Debug)]
struct ThreadSlot {
    name: String,
    pending: Option<Op>,
    finished: bool,
}

/// One step's footprint: the objects it touched (with a write flag) and
/// whether it had global effects (spawn, thread exit) that can change
/// any thread's enabledness.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepFootprint {
    pub(crate) accesses: Vec<(ObjId, bool)>,
    pub(crate) global: bool,
}

impl StepFootprint {
    /// True when `op`, pending on another thread, commutes with this
    /// executed step — the basis for keeping that thread in a sleep set.
    pub(crate) fn independent_of(&self, op: Op) -> bool {
        if self.global {
            return false;
        }
        let Some((obj, write)) = op.obj() else {
            // Start/Join depend on thread liveness, not objects: never
            // assume independence.
            return false;
        };
        self.accesses
            .iter()
            .all(|&(o, w)| o != obj || (!w && !write))
    }
}

struct ExecState {
    threads: Vec<ThreadSlot>,
    objects: Vec<ObjState>,
    /// Which thread currently holds the run token.
    active: Option<Tid>,
    /// Torn down: parked threads must unwind and exit.
    abort: bool,
    /// First user panic observed, as `(thread name, message)`.
    failure: Option<(String, String)>,
    /// Footprint of the step currently executing (reset at each grant).
    step: StepFootprint,
    /// Granted operations so far (the per-run step budget).
    steps: u64,
    /// Handles of dropped-but-unjoined threads (leak detection).
    leaked: Vec<Tid>,
    /// Human-readable step log for violation reports.
    log: Vec<String>,
}

/// Snapshot the controller takes at each decision point.
#[derive(Debug)]
pub(crate) struct Decision {
    /// Threads whose pending operation would not block, ascending.
    pub(crate) enabled: Vec<Tid>,
    /// Pending operation of every unfinished thread.
    pub(crate) pending: Vec<(Tid, Op)>,
    /// Footprint of the step that led here (empty at the first point).
    pub(crate) last_step: StepFootprint,
    /// All threads have finished.
    pub(crate) all_finished: bool,
    /// The root closure (thread 0) has finished.
    pub(crate) root_finished: bool,
    /// A user panic was recorded: `(thread name, message)`.
    pub(crate) failure: Option<(String, String)>,
    /// Granted steps so far.
    pub(crate) steps: u64,
    /// Threads whose join handles were dropped without being joined.
    pub(crate) leaked: Vec<Tid>,
}

/// The per-run executor. Created fresh for every schedule.
pub(crate) struct Executor {
    state: Mutex<ExecState>,
    cv: Condvar,
    /// OS handles of all model threads, reaped at run teardown.
    os_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("Executor")
            .field("threads", &st.threads.len())
            .field("objects", &st.objects.len())
            .field("active", &st.active)
            .field("steps", &st.steps)
            .finish_non_exhaustive()
    }
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Executor>, Tid)>> =
        const { std::cell::RefCell::new(None) };
}

/// The executor of the model thread this code runs on.
///
/// # Panics
///
/// Panics when called outside `Checker::check` — model primitives only
/// exist inside a checked closure.
pub(crate) fn current() -> (Arc<Executor>, Tid) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("conc::model primitives used outside Checker::check")
    })
}

/// Silences the default panic hook for model threads: a panic there is
/// an expected, *captured* event — it becomes a [`super::Violation`]
/// with the message and schedule attached — so the default
/// hook's stderr backtrace is pure noise. Installed once, process-wide;
/// panics on non-model threads still reach the previous hook.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_model_thread = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("conc-model-"));
            if !on_model_thread {
                prev(info);
            }
        }));
    });
}

impl Executor {
    pub(crate) fn new() -> Arc<Self> {
        install_quiet_panic_hook();
        Arc::new(Self {
            state: Mutex::new(ExecState {
                threads: Vec::new(),
                objects: Vec::new(),
                active: None,
                abort: false,
                failure: None,
                step: StepFootprint::default(),
                steps: 0,
                leaked: Vec::new(),
                log: Vec::new(),
            }),
            cv: Condvar::new(),
            os_handles: Mutex::new(Vec::new()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ExecState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers and starts a model thread running `f`. Immediate: the
    /// new thread parks at its `Start` op until the controller grants it.
    pub(crate) fn spawn_thread(
        self: &Arc<Self>,
        name: &str,
        f: Box<dyn FnOnce() + Send + 'static>,
    ) -> Tid {
        let tid = {
            let mut st = self.lock();
            st.threads.push(ThreadSlot {
                name: name.to_owned(),
                pending: None,
                finished: false,
            });
            st.step.global = true;
            st.threads.len() - 1
        };
        let exec = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("conc-model-{name}"))
            .spawn(move || {
                CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
                let result = catch_unwind(AssertUnwindSafe(|| {
                    exec.yield_op(tid, Op::Start);
                    f();
                }));
                exec.thread_finished(tid, result);
            })
            .expect("spawn model thread");
        self.os_handles
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(handle);
        tid
    }

    fn thread_finished(&self, tid: Tid, result: Result<(), Box<dyn std::any::Any + Send>>) {
        let mut st = self.lock();
        st.threads[tid].finished = true;
        if st.active == Some(tid) {
            st.active = None;
        }
        st.step.global = true;
        if let Err(payload) = result {
            if !payload.is::<AbortToken>() && st.failure.is_none() {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_else(|| "panic with non-string payload".to_owned());
                let name = st.threads[tid].name.clone();
                st.failure = Some((name, msg));
            }
        }
        self.cv.notify_all();
    }

    /// Registers a sync object, returning its id.
    pub(crate) fn register_mutex(&self) -> ObjId {
        self.register(ObjState::Mutex { held_by: None })
    }

    pub(crate) fn register_atomic(&self, value: usize) -> ObjId {
        self.register(ObjState::Atomic { value })
    }

    fn register(&self, obj: ObjState) -> ObjId {
        let mut st = self.lock();
        st.objects.push(obj);
        st.objects.len() - 1
    }

    /// Announces `op`, parks until granted, applies the effect, and
    /// returns its outcome. The single scheduling point of the model.
    pub(crate) fn yield_op(&self, me: Tid, op: Op) -> Outcome {
        if std::thread::panicking() {
            // This thread is unwinding (user panic or teardown); its
            // destructors still perform facade calls. Degrade them to
            // non-blocking defaults — re-raising inside a destructor
            // during unwind would abort the process.
            return self.unwound_default(op);
        }
        let mut st = self.lock();
        if st.abort {
            drop(st);
            resume_unwind(Box::new(AbortToken));
        }
        st.threads[me].pending = Some(op);
        if st.active == Some(me) {
            st.active = None;
        }
        self.cv.notify_all();
        loop {
            if st.abort {
                drop(st);
                resume_unwind(Box::new(AbortToken));
            }
            if st.active == Some(me) {
                break;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.threads[me].pending = None;
        st.steps += 1;
        st.step = StepFootprint::default();
        if st.log.len() < 4096 {
            let entry = format!("t{me} {}: {op:?}", st.threads[me].name);
            st.log.push(entry);
        }
        Self::apply(&mut st, me, op)
    }

    /// Applies an op's effect under the state lock; the caller has the
    /// token, so no other model thread can observe a half-applied state.
    fn apply(st: &mut ExecState, me: Tid, op: Op) -> Outcome {
        if let Some(access) = op.obj() {
            st.step.accesses.push(access);
        } else {
            st.step.global = true;
        }
        match op {
            Op::Start | Op::Join(_) => Outcome::Done,
            Op::MutexLock(o) => {
                let ObjState::Mutex { held_by } = &mut st.objects[o] else {
                    unreachable!("object {o} is not a mutex");
                };
                debug_assert!(held_by.is_none(), "granted lock on a held mutex");
                *held_by = Some(me);
                Outcome::Done
            }
            Op::AtomicLoad(o) => {
                let ObjState::Atomic { value } = &st.objects[o] else {
                    unreachable!("object {o} is not an atomic");
                };
                Outcome::Value(*value)
            }
            Op::AtomicStore(o, v) => {
                let ObjState::Atomic { value } = &mut st.objects[o] else {
                    unreachable!("object {o} is not an atomic");
                };
                *value = v;
                Outcome::Done
            }
            Op::AtomicAdd(o, n) => {
                let ObjState::Atomic { value } = &mut st.objects[o] else {
                    unreachable!("object {o} is not an atomic");
                };
                let old = *value;
                *value = value.wrapping_add(n);
                Outcome::Value(old)
            }
        }
    }

    /// Best-effort outcome for facade calls made while the calling
    /// thread is already unwinding.
    fn unwound_default(&self, op: Op) -> Outcome {
        let mut st = self.lock();
        match op {
            Op::Start | Op::Join(_) | Op::MutexLock(_) => Outcome::Done,
            Op::AtomicLoad(o) | Op::AtomicAdd(o, _) | Op::AtomicStore(o, _) => {
                if let ObjState::Atomic { value } = &mut st.objects[o] {
                    let old = *value;
                    if let Op::AtomicStore(_, v) = op {
                        *value = v;
                    } else if let Op::AtomicAdd(_, n) = op {
                        *value = value.wrapping_add(n);
                    }
                    Outcome::Value(old)
                } else {
                    Outcome::Done
                }
            }
        }
    }

    /// Immediate (non-scheduling) effect: mutex release. Deliberately
    /// panic-free — it runs from guard destructors, possibly during an
    /// unwind, where a second panic would abort the process.
    pub(crate) fn mutex_unlock(&self, me: Tid, obj: ObjId) {
        let mut st = self.lock();
        if let ObjState::Mutex { held_by } = &mut st.objects[obj] {
            if *held_by == Some(me) {
                *held_by = None;
            }
        }
        st.step.accesses.push((obj, true));
    }

    /// Records a join handle dropped without `join` (thread leak).
    pub(crate) fn leak(&self, target: Tid) {
        let mut st = self.lock();
        st.leaked.push(target);
    }

    /// True when `target` has finished (used by join bookkeeping).
    pub(crate) fn is_finished(&self, target: Tid) -> bool {
        self.lock().threads[target].finished
    }

    fn op_enabled(st: &ExecState, op: Op) -> bool {
        match op {
            Op::Start | Op::AtomicLoad(_) | Op::AtomicStore(..) | Op::AtomicAdd(..) => true,
            Op::MutexLock(o) => {
                matches!(&st.objects[o], ObjState::Mutex { held_by: None })
            }
            Op::Join(t) => st.threads[t].finished,
        }
    }

    /// Blocks until every model thread is parked (or finished), then
    /// snapshots the decision the controller must take.
    pub(crate) fn decision(&self) -> Decision {
        // Quiescence: no thread holds the token AND every unfinished
        // thread has announced its next operation. The second clause
        // covers freshly spawned threads racing to their first park.
        let quiescent = |st: &ExecState| {
            st.active.is_none() && st.threads.iter().all(|t| t.finished || t.pending.is_some())
        };
        let mut st = self.lock();
        while !quiescent(&st) && st.failure.is_none() {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let pending: Vec<(Tid, Op)> = st
            .threads
            .iter()
            .enumerate()
            .filter_map(|(t, slot)| slot.pending.map(|op| (t, op)))
            .collect();
        let enabled: Vec<Tid> = pending
            .iter()
            .filter(|&&(_, op)| Self::op_enabled(&st, op))
            .map(|&(t, _)| t)
            .collect();
        Decision {
            enabled,
            pending,
            last_step: st.step.clone(),
            all_finished: st.threads.iter().all(|t| t.finished),
            root_finished: st.threads.first().is_some_and(|t| t.finished),
            failure: st.failure.clone(),
            steps: st.steps,
            leaked: st.leaked.clone(),
        }
    }

    /// Hands the token to `tid`.
    pub(crate) fn grant(&self, tid: Tid) {
        let mut st = self.lock();
        debug_assert!(st.threads[tid].pending.is_some(), "granting an idle thread");
        st.active = Some(tid);
        self.cv.notify_all();
    }

    /// Human-readable description of `tid`'s pending operation.
    pub(crate) fn describe(&self, tid: Tid) -> String {
        let st = self.lock();
        let slot = &st.threads[tid];
        match slot.pending {
            Some(op) => format!("t{tid} {} blocked at {op:?}", slot.name),
            None if slot.finished => format!("t{tid} {} (finished)", slot.name),
            None => format!("t{tid} {} (running)", slot.name),
        }
    }

    /// The step log collected so far (for violation reports).
    pub(crate) fn log(&self) -> Vec<String> {
        self.lock().log.clone()
    }

    /// Tears the run down: unwinds every parked thread and reaps all OS
    /// threads. Must be called exactly once, after the last decision.
    pub(crate) fn teardown(&self) {
        {
            let mut st = self.lock();
            st.abort = true;
            self.cv.notify_all();
        }
        let handles: Vec<_> = {
            let mut h = self
                .os_handles
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *h)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}
