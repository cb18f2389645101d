//! Unit tests of the benchmark's own logic: order statistics, the tail
//! rule, host-speed rescaling, the result envelope, `--compare` verdicts,
//! the golden file, and agreement between the metric registry and
//! `BENCHMARK.json`.

use primecache_benchmark::cli::DEFAULT_SECONDS;
use primecache_benchmark::compare::{classify, compare, Verdict};
use primecache_benchmark::envelope::{BenchResult, Measured, Provenance, WorkloadResult};
use primecache_benchmark::golden::{Golden, COLUMNS};
use primecache_benchmark::hostspeed::{probe, HostClock, Timed, SENSITIVITY};
use primecache_benchmark::metrics::{scheme_key, Better, END_TO_END, PER_LAYER};
use primecache_benchmark::stats::{median, percentile, quartiles, tail_resolved, Summary};
use primecache_benchmark::workloads::{cell_order, WORKLOADS};
use primecache_obs::Json;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from `statistics.quantiles(v, n=4)`.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (&[3.5, 1.0, 2.0], [1.0, 2.0, 3.5]),
        (&[10.0, 20.0, 30.0, 40.0, 50.0], [15.0, 30.0, 45.0]),
    ];
    for (v, want) in cases {
        let got = quartiles(v).expect("two or more samples");
        for (g, w) in got.iter().zip(want) {
            assert!(close(*g, w), "{v:?}: {got:?} vs {want:?}");
        }
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn median_and_summary() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    let s = Summary::of(&[10.0, 20.0, 30.0, 40.0, 50.0]).expect("samples");
    assert_eq!((s.median, s.q1, s.q3, s.n), (30.0, 15.0, 45.0, 5));
    let one = Summary::of(&[7.0]).expect("one sample");
    assert_eq!((one.median, one.q1, one.q3), (7.0, 7.0, 7.0));
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert!(!tail_resolved(99, 90));
    assert!(tail_resolved(100, 90));
    assert!(!tail_resolved(999, 99));
    assert!(tail_resolved(1000, 99));
    assert!(tail_resolved(20, 50));
    assert!(!tail_resolved(19, 50));
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert!(close(percentile(&v, 90).expect("samples"), 90.9));
    assert_eq!(percentile(&v, 100), Some(100.0));
    assert_eq!(percentile(&[], 90), None);
}

#[test]
fn cell_order_is_a_seeded_permutation() {
    let a = cell_order(4, 4, 1, 0);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    let all: Vec<(usize, usize)> = (0..4).flat_map(|x| (0..4).map(move |y| (x, y))).collect();
    assert_eq!(sorted, all);
    assert_eq!(a, cell_order(4, 4, 1, 0), "same seed, same order");
    assert_ne!(a, cell_order(4, 4, 2, 0), "another seed reorders");
    assert_ne!(a, cell_order(4, 4, 1, 1), "another repetition reorders");
}

#[test]
fn host_clock_rescales_wall_time_by_the_probe_slowdown() {
    let quiet = Timed {
        wall: 2.0,
        slowdown: 1.0,
    };
    assert!(close(quiet.secs(), 2.0), "a quiet host keeps wall time");
    let slow = Timed {
        wall: 2.0,
        slowdown: 1.5,
    };
    assert!(close(slow.secs(), 2.0 / 1.5f64.powf(SENSITIVITY)));
    assert!(close(slow.rescale(0.3), 0.3 / 1.5f64.powf(SENSITIVITY)));

    let mut clock = HostClock::new(2);
    let (out, t) = clock.time(|| 7);
    assert_eq!(out, 7);
    assert!(t.wall >= 0.0 && t.slowdown > 0.0);
    assert!(probe(1, 2) > 0.0);
}

fn measured(
    name: &str,
    better: Better,
    bound: Option<f64>,
    value: f64,
    q1: f64,
    q3: f64,
) -> Measured {
    Measured {
        name: name.to_owned(),
        unit: "u".to_owned(),
        better,
        bound,
        value,
        q1,
        q3,
        n: 10,
    }
}

fn sample_result() -> BenchResult {
    BenchResult {
        provenance: Provenance {
            git_rev: "0123abcd".to_owned(),
            nproc: 2,
            seed: 7,
            seconds: 20,
            quick: false,
            trace: false,
        },
        workloads: vec![WorkloadResult {
            name: "miss-storm".to_owned(),
            correct: true,
            attempted: 112,
            failed: 0,
            reps: 7,
            refs_per_app: 1_000_000,
            workers: 1,
            metrics: vec![
                measured(
                    "refs_per_s",
                    Better::Higher,
                    Some(0.1),
                    7.6e6 + 0.123,
                    7.3e6,
                    7.7e6,
                ),
                measured(
                    "setup_s",
                    Better::Lower,
                    Some(0.25),
                    0.068_500_679,
                    0.068,
                    0.069,
                ),
            ],
            detail: vec![measured(
                "fail_frac",
                Better::Lower,
                Some(0.0),
                0.0,
                0.0,
                0.0,
            )],
        }],
    }
}

#[test]
fn envelope_round_trips_through_json() {
    let r = sample_result();
    let text = r.to_json();
    let j = Json::parse(&text).expect("valid JSON");
    assert_eq!(
        j.get("schema").and_then(Json::as_str),
        Some("primecache.benchmark-result")
    );
    assert_eq!(j.get("version").and_then(Json::as_u64), Some(1));
    assert_eq!(BenchResult::from_json(&text), Ok(r));
}

#[test]
fn envelope_rejects_other_schemas_and_versions() {
    let text = sample_result().to_json();
    let other = text.replace("primecache.benchmark-result", "primecache.run-report");
    assert!(BenchResult::from_json(&other).is_err());
    let v2 = text.replace("\"version\": 1", "\"version\": 2");
    assert!(BenchResult::from_json(&v2).is_err());
    assert!(BenchResult::from_json("{").is_err());
}

#[test]
fn summary_line_carries_every_metric_with_its_unit() {
    let r = sample_result();
    let j = Json::parse(&r.summary_line()).expect("valid JSON");
    let keys: Vec<&str> = j
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let m = j.get("metrics").expect("metrics");
    let refs = m.get("refs_per_s").expect("refs_per_s");
    assert_eq!(refs.get("unit").and_then(Json::as_str), Some("u"));
    assert_eq!(
        refs.get("value").and_then(Json::as_f64),
        Some(7.6e6 + 0.123)
    );
    assert!(m.get("fail_frac").is_none(), "detail stays in the envelope");

    let mut two = r.clone();
    two.workloads.push(WorkloadResult {
        name: "l1-resident".to_owned(),
        ..r.workloads[0].clone()
    });
    let j = Json::parse(&two.summary_line()).expect("valid JSON");
    assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(224));
    assert!(j
        .get("metrics")
        .and_then(|m| m.get("l1-resident/setup_s"))
        .is_some());
}

#[test]
fn compare_classifies_by_bound_and_spread() {
    let higher = |v: f64| {
        measured(
            "refs_per_s",
            Better::Higher,
            Some(0.1),
            v,
            v * 0.99,
            v * 1.01,
        )
    };
    let lower = |v: f64| {
        measured(
            "cell_ms_p50",
            Better::Lower,
            Some(0.1),
            v,
            v * 0.99,
            v * 1.01,
        )
    };
    assert_eq!(
        classify(&higher(100.0), &higher(95.0), 0.1),
        Verdict::Within
    );
    assert_eq!(classify(&higher(100.0), &higher(85.0), 0.1), Verdict::Worse);
    assert_eq!(
        classify(&higher(100.0), &higher(120.0), 0.1),
        Verdict::Better
    );
    assert_eq!(classify(&lower(100.0), &lower(120.0), 0.1), Verdict::Worse);
    assert_eq!(classify(&lower(100.0), &lower(85.0), 0.1), Verdict::Better);
    let noisy = measured("refs_per_s", Better::Higher, Some(0.1), 100.0, 80.0, 120.0);
    assert_eq!(classify(&noisy, &higher(50.0), 0.1), Verdict::Unresolved);
    assert_eq!(classify(&higher(50.0), &noisy, 0.1), Verdict::Unresolved);
    let zero = measured("fail_frac", Better::Lower, Some(0.0), 0.0, 0.0, 0.0);
    let some = measured("fail_frac", Better::Lower, Some(0.0), 0.01, 0.01, 0.01);
    assert_eq!(classify(&zero, &zero, 0.0), Verdict::Within);
    assert_eq!(classify(&zero, &some, 0.0), Verdict::Worse);
}

#[test]
fn compare_pairs_metrics_by_workload() {
    let a = sample_result();
    let mut b = a.clone();
    b.workloads[0].metrics[0].value *= 0.8;
    let rows = compare(&a, &b);
    let verdicts: Vec<(&str, Verdict)> = rows
        .iter()
        .map(|r| (r.metric.as_str(), r.verdict))
        .collect();
    assert_eq!(
        verdicts,
        [
            ("refs_per_s", Verdict::Worse),
            ("setup_s", Verdict::Within),
            ("fail_frac", Verdict::Within)
        ]
    );
    b.workloads[0].name = "elsewhere".to_owned();
    assert!(compare(&a, &b).is_empty());
}

#[test]
fn golden_round_trips_and_rejects_malformed_lines() {
    let mut g = Golden::default();
    g.insert("w", 100, "app", "pMod", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
    g.insert("w", 100, "a+b", "expr:pMod", [0; 11]);
    let text = g.render();
    assert!(text.starts_with(&format!(
        "# workload\trefs\tapp\tscheme\t{}",
        COLUMNS.join("\t")
    )));
    assert_eq!(Golden::parse(&text), Ok(g.clone()));
    assert_eq!(g.len(), 2);
    g.clear_workload("w");
    assert!(g.is_empty());
    assert!(Golden::parse("w\t1\tapp\tBase\t1").is_err());
    assert!(Golden::parse("w\tx\tapp\tBase\t1\t2\t3\t4\t5\t6\t7\t8\t9\t10\t11").is_err());
    let dup = "w\t1\ta\tB\t1\t2\t3\t4\t5\t6\t7\t8\t9\t10\t11\n".repeat(2);
    assert!(Golden::parse(&dup).is_err());
}

#[test]
fn embedded_golden_file_covers_every_workload_at_both_sizes() {
    let g = Golden::parse(primecache_benchmark::golden::EMBEDDED).expect("parses");
    let want: usize = WORKLOADS.iter().map(|w| 2 * w.cells_per_rep()).sum();
    assert_eq!(g.len(), want);
}

#[test]
fn scheme_keys_are_metric_name_safe() {
    assert_eq!(scheme_key("expr:pMod"), "expr_pmod");
    assert_eq!(scheme_key("skw+pDisp"), "skw_pdisp");
    assert_eq!(scheme_key("8-way"), "8_way");
    assert_eq!(scheme_key("Base"), "base");
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key).and_then(Json::as_arr).expect("array")
}

fn s<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).expect("string")
}

#[test]
fn registry_matches_benchmark_json() {
    let b = benchmark_json();
    let e2e = list(&b, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, d) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(s(j, "name"), d.name);
        assert_eq!(s(j, "unit"), d.unit, "{}", d.name);
        assert_eq!(s(j, "better"), d.better.as_str(), "{}", d.name);
        assert_eq!(
            j.get("bound").and_then(Json::as_f64),
            Some(d.bound),
            "{}",
            d.name
        );
    }
    let layers = list(&b, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, d) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(s(j, "name"), d.name);
        assert_eq!(s(j, "unit"), d.unit, "{}", d.name);
        assert_eq!(s(j, "better"), d.better.as_str(), "{}", d.name);
    }
    let workloads = list(&b, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(s(j, "name"), w.name);
        assert_eq!(s(j, "why"), w.why, "{}", w.name);
    }
    assert_eq!(
        b.get("run_seconds").and_then(Json::as_u64),
        Some(DEFAULT_SECONDS),
        "the default run length is BENCHMARK.json's run_seconds"
    );
}

#[test]
fn layer_map_names_real_metrics_and_workloads_and_matches_the_readme() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    for layer in &PER_LAYER {
        let prefix = format!("| `{}` |", layer.name);
        let rows: Vec<&str> = readme.lines().filter(|l| l.starts_with(&prefix)).collect();
        assert_eq!(rows.len(), 1, "{}: one README layer-table row", layer.name);
        let moves_cell = rows[0]
            .trim_end_matches('|')
            .rsplit('|')
            .next()
            .expect("cell");
        if layer.moves.is_empty() {
            assert!(
                moves_cell.contains("nothing"),
                "{}: {moves_cell}",
                layer.name
            );
        }
        for m in layer.moves {
            assert!(
                END_TO_END.iter().any(|d| d.name == m.metric),
                "{}: {} is not an end-to-end metric",
                layer.name,
                m.metric
            );
            assert!(
                moves_cell.contains(&format!("`{}`", m.metric)),
                "{}",
                layer.name
            );
            for w in m.workloads {
                assert!(
                    WORKLOADS.iter().any(|s| s.name == *w),
                    "{}: {w} is not a workload",
                    layer.name
                );
                assert!(moves_cell.contains(w), "{}: README omits {w}", layer.name);
            }
        }
    }
}
