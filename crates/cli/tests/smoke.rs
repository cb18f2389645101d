//! Smoke tests of the CLI subcommands (exit codes; output goes to stdout).

use primecache_cli::commands;

fn args(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn list_succeeds() {
    assert_eq!(commands::list(&args(&[])), 0);
    assert_eq!(commands::list(&args(&["--verbose"])), 0);
}

#[test]
fn run_validates_inputs() {
    assert_eq!(commands::run(&args(&[])), 2);
    assert_eq!(commands::run(&args(&["doom"])), 2);
    assert_eq!(commands::run(&args(&["tree", "--scheme", "wat"])), 2);
    assert_eq!(commands::run(&args(&["tree", "--refs", "nope"])), 2);
    assert_eq!(
        commands::run(&args(&["tree", "--scheme", "pMod", "--refs", "5000"])),
        0
    );
}

#[test]
fn metrics_validates_inputs() {
    assert_eq!(commands::metrics(&args(&["--stride", "0"])), 2);
    assert_eq!(
        commands::metrics(&args(&["--stride", "7", "--sets", "100"])),
        2
    );
    assert_eq!(commands::metrics(&args(&["--stride", "7"])), 0);
    assert_eq!(commands::metrics(&args(&["--app", "nothere"])), 2);
    assert_eq!(
        commands::metrics(&args(&["--app", "tree", "--refs", "3000"])),
        0
    );
}

#[test]
fn trace_and_inspect_roundtrip() {
    let dir = std::env::temp_dir().join("pcache_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.pct");
    let path_str = path.to_str().unwrap();
    assert_eq!(
        commands::trace(&args(&["swim", "--out", path_str, "--refs", "2000"])),
        0
    );
    assert_eq!(commands::inspect(&args(&[path_str])), 0);
    assert_eq!(commands::inspect(&args(&["/nonexistent/file"])), 1);
    std::fs::remove_file(path).ok();
}

#[test]
fn trace_requires_out_flag() {
    assert_eq!(commands::trace(&args(&["swim"])), 2);
    assert_eq!(commands::trace(&args(&[])), 2);
}

#[test]
fn classify_and_taxonomy_run() {
    assert_eq!(commands::classify(&args(&["--refs", "3000"])), 0);
    assert_eq!(commands::taxonomy(&args(&["--refs", "3000"])), 0);
}

#[test]
fn schemes_with_error_lints_exit_2_before_simulating() {
    // A composite modulus is an error-level lint (non-prime-modulus):
    // every command that takes --scheme refuses it, in every profile.
    let composite = "expr:a % 2046";
    let app = ["tree", "--scheme", composite, "--refs", "2000"];
    assert_eq!(commands::run(&args(&app)), 2);
    assert_eq!(commands::report(&args(&app)), 2);
    assert_eq!(commands::trace_events(&args(&app)), 2);

    let dir = std::env::temp_dir().join("pcache_cli_lint_gate");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("swim.txt");
    let path_str = path.to_str().unwrap();
    assert_eq!(
        commands::trace(&args(&[
            "swim", "--out", path_str, "--refs", "2000", "--format", "text"
        ])),
        0
    );
    assert_eq!(
        commands::import(&args(&[path_str, "--run", "--scheme", composite])),
        2
    );
    // A prime modulus and a warning-only scheme still simulate.
    for scheme in ["expr:a % 2039", "XOR"] {
        assert_eq!(
            commands::run(&args(&["tree", "--scheme", scheme, "--refs", "2000"])),
            0,
            "{scheme}"
        );
        assert_eq!(
            commands::import(&args(&[path_str, "--run", "--scheme", scheme])),
            0,
            "{scheme}"
        );
    }
    std::fs::remove_file(path).ok();
}
