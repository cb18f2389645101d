//! Exhaustive model check of the shipped concurrent protocol — the
//! sweep claim cursor — plus the seeded-bug demo proving the checker
//! catches the failure class it exists for.
//!
//! These are the same checks `pcache conc-check` and `ci/conc_smoke.sh`
//! run; here each one is a separate test with its expectation asserted.

use primecache_conc::model::ViolationKind;
use primecache_conc::self_check::{checks, find};
use primecache_conc::Checker;

fn run(name: &str) -> (bool, primecache_conc::Report) {
    let check = find(name).unwrap_or_else(|| panic!("unknown check {name}"));
    let report = check.run(&Checker::default());
    assert!(
        !report.truncated,
        "{name}: exploration truncated at {} schedules — raise max_schedules",
        report.schedules
    );
    (check.passed(&report), report)
}

#[test]
fn sweep_runs_every_task_exactly_once_under_all_schedules() {
    let (passed, report) = run("sweep-exactly-once");
    assert!(passed, "{:?}", report.violation);
    assert!(
        report.schedules > 10,
        "two workers racing a cursor must admit many schedules, got {}",
        report.schedules
    );
}

#[test]
fn checker_catches_racy_claim_cursor_bug() {
    let (passed, report) = run("sweep-racy-cursor-bug");
    assert!(passed, "checker missed the seeded racy-cursor bug");
    let v = report.violation.expect("expected a violation");
    assert!(
        matches!(&v.kind, ViolationKind::Panic { message, .. } if message.contains("slot written twice")),
        "unexpected violation: {}",
        v.kind
    );
}

#[test]
fn seeded_bug_replays_from_printed_seed() {
    // The workflow a failing CI run prescribes: take the seed from the
    // report, replay exactly that schedule, observe the same violation.
    let check = find("sweep-racy-cursor-bug").expect("check exists");
    let checker = Checker::default();
    let report = check.run(&checker);
    let violation = report.violation.expect("bug found");
    let replayed = check.replay(&checker, &violation.seed);
    let rv = replayed.violation.expect("replay reproduces the violation");
    assert_eq!(rv.kind, violation.kind, "replay diverged from the original");
    assert_eq!(
        replayed.schedules, 1,
        "replay must execute exactly one schedule"
    );
}

#[test]
fn whole_suite_agrees_with_expectations() {
    for check in checks() {
        let report = check.run(&Checker::default());
        assert!(
            check.passed(&report),
            "{}: expected {} but got {:?} ({} schedules)",
            check.name,
            if check.expect_violation {
                "a violation"
            } else {
                "clean"
            },
            report.violation,
            report.schedules
        );
    }
}
