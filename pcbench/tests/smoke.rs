//! `--quick` smoke of all four workloads through the built `pcbench`:
//! every metric `BENCHMARK.json` names is printed with its unit, every
//! cell passes its checks, and the result envelope parses back.

use std::process::Command;

use primecache_benchmark::envelope::BenchResult;
use primecache_benchmark::workloads::WORKLOADS;
use primecache_obs::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
}

/// Runs `pcbench --quick` over every workload (one child process each)
/// and returns the parsed last stdout line and the `--out` envelope.
fn run_quick(trace: &str, seed: &str) -> (Json, BenchResult) {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-trace{trace}-seed{seed}.json"));
    let run = Command::new(env!("CARGO_BIN_EXE_pcbench"))
        .args(["--quick", "--seed", seed, "--trace", trace, "--out"])
        .arg(&out)
        .output()
        .expect("pcbench runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "pcbench failed:\n{stderr}");
    let last = stdout.lines().last().expect("a summary line");
    let line = Json::parse(last).expect("the last line is JSON");
    let envelope = BenchResult::from_json(&std::fs::read_to_string(&out).expect("--out written"))
        .expect("the envelope parses back");
    (line, envelope)
}

fn assert_reports(line: &Json, envelope: &BenchResult, section: &str) {
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Json::as_u64) > Some(0));
    let metrics = line.get("metrics").expect("metrics");
    let wanted = benchmark_json();
    for w in &WORKLOADS {
        for m in wanted
            .get(section)
            .and_then(Json::as_arr)
            .expect("metric list")
        {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            let got = metrics
                .get(&format!("{}/{name}", w.name))
                .unwrap_or_else(|| panic!("{}: {name} not printed", w.name));
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(unit));
            assert!(got.get("value").and_then(Json::as_f64).is_some());
        }
        let r = envelope
            .workloads
            .iter()
            .find(|r| r.name == w.name)
            .expect("workload in envelope");
        assert!(r.correct && r.failed == 0, "{}", w.name);
    }
}

#[test]
fn quick_run_prints_every_end_to_end_metric_and_passes_golden() {
    let (line, envelope) = run_quick("0", "1");
    assert_reports(&line, &envelope, "end_to_end");
    for r in &envelope.workloads {
        let fail = r.metric("fail_frac").expect("fail_frac in the envelope");
        assert_eq!(fail.value, 0.0, "{}", r.name);
    }
    assert!(!envelope.provenance.trace);
}

#[test]
fn quick_traced_run_prints_every_per_layer_metric_and_reproduces_cells() {
    // Seed 7 is not the golden seed: ingest-tenants checks invariants.
    let (line, envelope) = run_quick("1", "7");
    assert_reports(&line, &envelope, "per_layer");
    assert!(envelope.provenance.trace);
    let sweep = envelope
        .workloads
        .iter()
        .find(|r| r.name == "paper-sweep")
        .expect("paper-sweep");
    assert!(sweep.metric("sim.sweep_worker_util").is_some());
}
