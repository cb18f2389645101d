//! Packaged model checks for the shipped protocols, shared by the
//! `pcache conc-check` subcommand, the CI smoke script, and the
//! integration tests.
//!
//! Each check is a closure the [`Checker`] explores exhaustively up to
//! its preemption bound. The `*-bug` checks run deliberately broken
//! variants of the protocols and *expect* a violation — they demonstrate
//! the checker actually catches the bug class it claims to (duplicated
//! work), with a replayable schedule seed.

use std::sync::Arc;

use crate::api::{AtomicUsizeApi, Backend, JoinApi, MutexApi};
use crate::model::{self, Checker, ModelBackend, Report};
use crate::port::sweep::{claim_loop, store_slot};

/// One named model check.
#[derive(Debug, Clone, Copy)]
pub struct ConcCheck {
    /// Stable check name (shown by `pcache conc-check`).
    pub name: &'static str,
    /// One-line description of the property explored.
    pub what: &'static str,
    /// True for the seeded-bug demos: the check passes when the
    /// exploration *finds* a violation.
    pub expect_violation: bool,
    body: fn(),
}

impl ConcCheck {
    /// Explores every schedule of this check under `checker`.
    #[must_use]
    pub fn run(&self, checker: &Checker) -> Report {
        checker.check(self.body)
    }

    /// Replays one exact schedule of this check from a violation seed.
    #[must_use]
    pub fn replay(&self, checker: &Checker, seed: &str) -> Report {
        checker.replay(seed, self.body)
    }

    /// True when `report` matches this check's expectation: clean for
    /// protocol checks, violating for the seeded-bug demos.
    #[must_use]
    pub fn passed(&self, report: &Report) -> bool {
        report.violation.is_some() == self.expect_violation
    }
}

/// The full check suite, protocols first, seeded-bug demos last.
#[must_use]
pub fn checks() -> &'static [ConcCheck] {
    &[
        ConcCheck {
            name: "sweep-exactly-once",
            what: "claim cursor gives every task to exactly one worker, slots filled exactly once",
            expect_violation: false,
            body: sweep_exactly_once,
        },
        ConcCheck {
            name: "sweep-racy-cursor-bug",
            what: "seeded bug: load-then-store claim cursor lets two workers run the same task",
            expect_violation: true,
            body: sweep_racy_cursor_bug,
        },
    ]
}

/// Looks a check up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static ConcCheck> {
    checks().iter().find(|c| c.name == name)
}

// ---------------------------------------------------------------------
// Protocol checks (must be clean).
// ---------------------------------------------------------------------

/// The real sweep claim protocol, scaled down: 2 workers race a shared
/// cursor for 3 tasks. Every schedule must run each task exactly once
/// and land its record in its own slot.
fn sweep_exactly_once() {
    const N_TASKS: usize = 3;
    let cursor = Arc::new(ModelBackend::atomic_usize(0));
    let slots: Arc<Vec<model::Mutex<Option<usize>>>> =
        Arc::new((0..N_TASKS).map(|_| ModelBackend::mutex(None)).collect());
    let handles: Vec<model::JoinHandle> = (0..2)
        .map(|w| {
            let cursor = Arc::clone(&cursor);
            let slots = Arc::clone(&slots);
            model::spawn(&format!("worker{w}"), move || {
                claim_loop(&*cursor, N_TASKS, |i| store_slot(&slots[i], i));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    for (i, slot) in slots.iter().enumerate() {
        slot.with(|s| assert_eq!(*s, Some(i), "task {i} lost or misplaced"));
    }
}

// ---------------------------------------------------------------------
// Seeded-bug demos (the checker must find the violation).
// ---------------------------------------------------------------------

/// The claim loop with `fetch_add` replaced by the racy load-then-store
/// it is often "simplified" to. Two workers can read the same cursor
/// value and claim the same task; [`store_slot`]'s exactly-once assert
/// catches the duplicate in the interleaved schedule.
fn sweep_racy_cursor_bug() {
    const N_TASKS: usize = 2;
    let cursor = Arc::new(ModelBackend::atomic_usize(0));
    let slots: Arc<Vec<model::Mutex<Option<usize>>>> =
        Arc::new((0..N_TASKS).map(|_| ModelBackend::mutex(None)).collect());
    let handles: Vec<model::JoinHandle> = (0..2)
        .map(|w| {
            let cursor = Arc::clone(&cursor);
            let slots = Arc::clone(&slots);
            model::spawn(&format!("worker{w}"), move || loop {
                // BUG: claim must be a single atomic fetch_add.
                let i = cursor.load();
                cursor.store(i + 1);
                if i >= N_TASKS {
                    break;
                }
                store_slot(&slots[i], i);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_are_unique() {
        let names: Vec<&str> = checks().iter().map(|c| c.name).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len());
        assert!(find("sweep-exactly-once").is_some());
        assert!(find("no-such-check").is_none());
    }
}
