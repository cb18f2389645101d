//! Deterministic concurrency verification for primecache's threaded
//! sweep scheduler.
//!
//! One real concurrent protocol lives in this workspace: the sweep
//! scheduler's atomic claim-cursor/slot hand-off
//! (`primecache-sim::suite`). Testing it with ordinary unit tests only
//! samples whatever interleavings the OS happens to produce; this crate
//! makes the interleavings themselves the test input.
//!
//! The crate has three layers:
//!
//! * [`api`] — a minimal sync facade (scoped mutex, atomic counter,
//!   named threads) expressed as traits with a pluggable
//!   [`api::Backend`].
//! * [`sync`] — the production backend: `#[inline]` wrappers over
//!   `std::sync`, compiling to exactly the primitives the scheduler
//!   used before the facade existed.
//! * [`model`] — the verification backend: a cooperative scheduler that
//!   runs the *same protocol source* and exhaustively explores thread
//!   interleavings up to a preemption bound, with sleep-set pruning,
//!   detecting deadlocks, panics/assertion failures and leaked threads,
//!   and printing a seed that replays any failing schedule
//!   deterministically.
//!
//! The protocol itself, written once against the facade and
//! instantiated with both backends, lives in [`port`]. [`self_check`]
//! packages the bounded explorations behind `pcache conc-check`.
//!
//! Zero dependencies, no `unsafe`: the model checker schedules real OS
//! threads one-at-a-time with a condvar token rather than fibers.

pub mod api;
pub mod model;
pub mod port;
pub mod self_check;
pub mod sync;

pub use api::{Backend, JoinApi, MutexApi, Panicked};
pub use model::{Checker, ModelBackend, Report, Violation, ViolationKind};
pub use sync::StdBackend;
