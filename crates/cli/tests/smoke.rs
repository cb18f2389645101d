//! Smoke tests of the CLI subcommands: the `pcache` binary's exit codes
//! (its output is captured and dropped).

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use primecache_cli::commands;

/// Runs the `pcache` binary on `argv` and returns its exit code.
fn pcache(argv: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_pcache"))
        .args(argv)
        .output()
        .expect("pcache runs");
    out.status.code().expect("pcache exits with a status")
}

#[test]
fn list_succeeds() {
    assert_eq!(pcache(&["list"]), 0);
    assert_eq!(pcache(&["list", "--verbose"]), 0);
}

#[test]
fn run_validates_inputs() {
    assert_eq!(pcache(&["run"]), 2);
    assert_eq!(pcache(&["run", "doom"]), 2);
    assert_eq!(pcache(&["run", "tree", "--scheme", "wat"]), 2);
    assert_eq!(pcache(&["run", "tree", "--refs", "nope"]), 2);
    assert_eq!(
        pcache(&["run", "tree", "--scheme", "pMod", "--refs", "5000"]),
        0
    );
}

#[test]
fn metrics_validates_inputs() {
    assert_eq!(pcache(&["metrics", "--stride", "0"]), 2);
    assert_eq!(pcache(&["metrics", "--stride", "7", "--sets", "100"]), 2);
    assert_eq!(pcache(&["metrics", "--stride", "7"]), 0);
    // `--sets` stops at 2^20; 2^62 sets would overflow the 4·sets
    // pattern length.
    assert_eq!(
        pcache(&["metrics", "--stride", "7", "--sets", "2097152"]),
        2
    );
    let huge = ["metrics", "--stride", "7", "--sets", "4611686018427387904"];
    assert_eq!(pcache(&huge), 2);
    // Over 4 sets the 16th address is 15·stride: 2^64 / 15 is the largest
    // stride that stays inside u64.
    let stride = |s: &str| pcache(&["metrics", "--stride", s, "--sets", "4"]);
    assert_eq!(stride("1229782938247303441"), 0);
    assert_eq!(stride("1229782938247303442"), 2);
    assert_eq!(stride("9223372036854775808"), 2);
    assert_eq!(pcache(&["metrics", "--app", "nothere"]), 2);
    assert_eq!(pcache(&["metrics", "--app", "tree", "--refs", "3000"]), 0);
}

#[test]
fn trace_and_inspect_roundtrip() {
    let dir = std::env::temp_dir().join("pcache_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.pct");
    let path_str = path.to_str().unwrap();
    assert_eq!(
        pcache(&["trace", "swim", "--out", path_str, "--refs", "2000"]),
        0
    );
    assert_eq!(pcache(&["inspect", path_str]), 0);
    assert_eq!(pcache(&["inspect", "/nonexistent/file"]), 1);
    std::fs::remove_file(path).ok();
}

#[test]
fn trace_requires_out_flag() {
    assert_eq!(pcache(&["trace", "swim"]), 2);
    assert_eq!(pcache(&["trace"]), 2);
}

#[test]
fn classify_and_taxonomy_run() {
    // The §4 classification and the three-C taxonomy are registry
    // entries; their claims need more than 3000 refs, so none is
    // evaluated and none can fail.
    assert_eq!(
        pcache(&["reproduce", "classify", "misstax", "--refs", "3000"]),
        0
    );
}

#[test]
fn reproduce_checks_its_input() {
    // An unknown entry, an unknown flag and a bad --refs exit 2 before
    // anything runs.
    assert_eq!(pcache(&["reproduce", "fig14"]), 2);
    assert_eq!(pcache(&["reproduce", "fig13", "--refz", "5000"]), 2);
    assert_eq!(pcache(&["reproduce", "fig13", "--refs", "abc"]), 2);
    assert_eq!(pcache(&["reproduce", "fig13", "--refs", "-5"]), 2);
    assert_eq!(pcache(&["reproduce", "fig7", "--refs", "0"]), 2);
}

#[test]
fn reproduce_off_the_committed_scale_writes_no_figures() {
    // The committed figures are kept at the default --refs; a quick look
    // at another scale must not overwrite them, so it writes no files.
    let dir = std::env::temp_dir().join("pcache_cli_reproduce_scale");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pcache"))
        .args(["reproduce", "fig13", "--refs", "3000"])
        .current_dir(&dir)
        .output()
        .expect("pcache runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("writing no figures/ files"), "{stderr}");
    assert!(
        !dir.join("figures").exists(),
        "figures/ written at 3000 refs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_refs_exit_2_without_panicking() {
    // Zero references leave no Base time to normalize by, and no blocks
    // to measure a hash's balance over: both sweep paths, a run and the
    // workload metrics exit 2 with reproduce's message instead of
    // panicking or printing NaN, and the analyzer's self-check instead
    // of passing its workload-distribution check on no data.
    for argv in [
        &["sweep", "--refs", "0"][..],
        &["sweep", "--tenants", "tree,swim", "--refs", "0"],
        &["run", "tree", "--refs", "0"],
        &["metrics", "--app", "tree", "--refs", "0"],
        &["analyze", "--self-check", "--refs", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pcache"))
            .args(argv)
            .output()
            .expect("pcache runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(
            stderr.contains("--refs must be positive"),
            "{argv:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
    }
}

#[test]
fn import_of_a_retired_flat_dump_is_a_text_error() {
    // `PCT1` is no longer a trace format: such a file is read as text
    // and rejected at its first line, with exit 1 rather than a panic.
    let dir = std::env::temp_dir().join("pcache_cli_pct1");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("old.pct");
    let mut bytes = b"PCT1".to_vec();
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&[2, 0x40, 0, 0, 0, 0, 0, 0, 0, 0]);
    std::fs::write(&path, bytes).unwrap();
    assert_eq!(pcache(&["import", path.to_str().unwrap()]), 1);
    std::fs::remove_file(path).ok();
}

#[test]
fn schemes_with_error_lints_exit_2_before_simulating() {
    // A composite modulus is an error-level lint (non-prime-modulus):
    // every command that takes --scheme refuses it, in every profile.
    let composite = "expr:a % 2046";
    for command in ["run", "report", "trace-events"] {
        let argv = [command, "tree", "--scheme", composite, "--refs", "2000"];
        assert_eq!(pcache(&argv), 2, "{command}");
    }

    let dir = std::env::temp_dir().join("pcache_cli_lint_gate");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("swim.txt");
    let path_str = path.to_str().unwrap();
    assert_eq!(
        pcache(&["trace", "swim", "--out", path_str, "--refs", "2000", "--format", "text"]),
        0
    );
    assert_eq!(
        pcache(&["import", path_str, "--run", "--scheme", composite]),
        2
    );
    // A prime modulus and a warning-only scheme still simulate.
    for scheme in ["expr:a % 2039", "XOR"] {
        assert_eq!(
            pcache(&["run", "tree", "--scheme", scheme, "--refs", "2000"]),
            0,
            "{scheme}"
        );
        assert_eq!(
            pcache(&["import", path_str, "--run", "--scheme", scheme]),
            0,
            "{scheme}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn huge_ring_bounds_allocate_only_for_the_events_recorded() {
    // `--ring` is a bound, not a reservation: neither the largest
    // `usize` nor a multi-terabyte bound may size an allocation.
    let dir = std::env::temp_dir().join("pcache_cli_ring");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    let path_str = path.to_str().unwrap();
    for ring in ["18446744073709551615", "4000000000000"] {
        assert_eq!(
            pcache(&[
                "trace-events",
                "tree",
                "--refs",
                "1000",
                "--ring",
                ring,
                "--out",
                path_str
            ]),
            0,
            "--ring {ring}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn flags_without_a_value_leave_the_next_argument_positional() {
    // `--run` and `--compact` take no value: the argument after them is
    // the command's input, not the flag's value.
    let dir = std::env::temp_dir().join("pcache_cli_valueless");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.txt");
    let path_str = path.to_str().unwrap();
    let trace = [
        "trace", "swim", "--out", path_str, "--refs", "2000", "--format", "text",
    ];
    assert_eq!(pcache(&trace), 0);
    assert_eq!(pcache(&["import", "--run", path_str]), 0);
    assert_eq!(
        pcache(&["report", "--compact", "tree", "--refs", "2000"]),
        0
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn unknown_repeated_and_valueless_flags_exit_2() {
    // Misspelled flags must not fall back to the defaults and simulate.
    assert_eq!(
        pcache(&["run", "tree", "--refz", "1000", "--schem", "SKW"]),
        2
    );
    assert_eq!(
        pcache(&["run", "tree", "--refs", "1000", "--refs", "2000"]),
        2
    );
    assert_eq!(pcache(&["list", "--verbose", "--verbose"]), 2);
    assert_eq!(pcache(&["frobnicate"]), 2);
    assert_eq!(pcache(&["reproduce", "--refs"]), 2);
    assert_eq!(pcache(&["inspect", "--out", "x", "file"]), 2);
}

#[test]
fn help_prints_the_declared_usage_lines() {
    assert_eq!(pcache(&["help"]), 0);
    let help = commands::help_text();
    for line in [
        "pcache metrics --stride S [--sets N] | --app <name> [--refs N]",
        "pcache import FILE [--out FILE] [--run] [--scheme S]",
    ] {
        assert!(help.contains(line), "{line}");
    }
}

#[test]
fn a_reader_closing_the_pipe_ends_pcache_quietly_with_status_141() {
    // Table 2 takes a while after the first line is out, so every line
    // after it goes to a pipe whose reader has gone.
    let mut child = Command::new(env!("CARGO_BIN_EXE_pcache"))
        .args(["reproduce", "table1", "theorem1", "table2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pcache runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("pcache prints a line");
    assert!(first.starts_with("primecache reproduction"), "{first}");
    let out = child.wait_with_output().expect("pcache exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn trace_events_ends_quietly_with_status_141_when_its_reader_closes_the_pipe() {
    // About 58,000 JSONL events, far more than a pipe holds, so writing
    // them outlives the reader.
    let mut child = Command::new(env!("CARGO_BIN_EXE_pcache"))
        .args(["trace-events", "tree", "--refs", "20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pcache runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("pcache prints a line");
    assert!(first.starts_with("{\"t\":"), "{first}");
    let out = child.wait_with_output().expect("pcache exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
