//! Integration tests for the observability layer.
//!
//! Exercises the observed runs through the umbrella crate exactly as an
//! external consumer would: the self-describing [`RunReport`] must
//! survive a JSON round trip and give back the run's result from its
//! provenance and metric dump alone, its metrics must equal the
//! simulator's own `stats.rs` aggregates they are read from, and the
//! metric reference in `OBSERVABILITY.md` must list exactly what a
//! report emits.

use std::collections::BTreeSet;

use primecache::obs::{MetricValue, ObsConfig, RunReport, RUN_REPORT_SCHEMA, RUN_REPORT_VERSION};
use primecache::sim::observe::{observed_report, run_workload_observed};
use primecache::sim::{run_workload, Scheme};
use primecache::workloads::by_name;

#[test]
fn run_report_round_trips_through_json() {
    let (report, _recorder) = observed_report(
        by_name("tree").unwrap(),
        Scheme::PrimeModulo,
        20_000,
        ObsConfig::default(),
    );
    let doc = report.to_json();
    assert_eq!(
        doc.check_head(RUN_REPORT_SCHEMA, RUN_REPORT_VERSION),
        Ok(RUN_REPORT_VERSION)
    );
    let text = doc.render_pretty();
    let parsed = RunReport::from_json_str(&text).expect("report JSON parses back");
    assert_eq!(parsed, report);

    // Compact rendering round-trips too.
    let compact = report.to_json().render();
    assert_eq!(RunReport::from_json_str(&compact).unwrap(), report);
}

#[test]
fn report_rejects_foreign_schema() {
    let (report, _recorder) = observed_report(
        by_name("tree").unwrap(),
        Scheme::Base,
        5_000,
        ObsConfig::default(),
    );
    let text = report
        .to_json()
        .render()
        .replace(RUN_REPORT_SCHEMA, "someone-elses.schema");
    assert!(RunReport::from_json_str(&text).is_err());
}

#[test]
fn obs_miss_class_metrics_match_stats_aggregates() {
    // Three workloads spanning the paper's behaviour classes: pointer
    // chasing (tree), strided numeric (swim), and the worst non-uniform
    // conflict case (mcf).
    for name in ["tree", "swim", "mcf"] {
        let w = by_name(name).unwrap();
        for scheme in [Scheme::Base, Scheme::PrimeModulo] {
            let run = run_workload_observed(w, scheme, 25_000, ObsConfig::default());
            let m = &run.metrics;
            let counter = |key: &str| {
                m.counter(key)
                    .unwrap_or_else(|| panic!("metric {key} missing ({name})"))
            };

            assert_eq!(counter("cache.l1.accesses"), run.result.l1.accesses);
            assert_eq!(counter("cache.l1.hits"), run.result.l1.hits);
            assert_eq!(counter("cache.l1.misses"), run.result.l1.misses);
            assert_eq!(counter("cache.l2.demand_accesses"), run.result.l2.accesses);
            assert_eq!(counter("cache.l2.demand_hits"), run.result.l2.hits);
            assert_eq!(counter("cache.l2.demand_misses"), run.result.l2.misses);
            assert_eq!(counter("dram.reads"), run.result.dram.reads);
            assert_eq!(counter("dram.writes"), run.result.dram.writes);
            assert_eq!(counter("dram.row_hits"), run.result.dram.row_hits);
        }
    }
}

#[test]
fn report_gives_back_the_run_result() {
    // mcf mispredicts branches, so its Other stalls are not 0 and Busy
    // must leave them out along with the memory stalls.
    let w = by_name("mcf").unwrap();
    let (report, _recorder) = observed_report(w, Scheme::Xor, 20_000, ObsConfig::default());
    let report = RunReport::from_json_str(&report.to_json().render()).expect("parses back");
    let run = run_workload(w, Scheme::Xor, 20_000);
    let counter = |key: &str| {
        report
            .metrics
            .counter(key)
            .unwrap_or_else(|| panic!("metric {key} missing"))
    };

    let (l1, l2, dram) = (&run.l1, &run.l2, &run.dram);
    for (key, want) in [
        ("cache.l1.accesses", l1.accesses),
        ("cache.l1.hits", l1.hits),
        ("cache.l1.misses", l1.misses),
        ("cache.l1.writes", l1.writes),
        ("cache.l1.evictions", l1.evictions),
        ("cache.l1.dirty_evictions", l1.writebacks),
        ("cache.l2.demand_accesses", l2.accesses),
        ("cache.l2.demand_hits", l2.hits),
        ("cache.l2.demand_misses", l2.misses),
        ("cache.l2.demand_writes", l2.writes),
        ("dram.reads", dram.reads),
        ("dram.writes", dram.writes),
        ("dram.row_hits", dram.row_hits),
        ("dram.row_misses", dram.row_misses),
        ("dram.queue_cycles", dram.queue_cycles),
    ] {
        assert_eq!(counter(key), want, "{key}");
    }

    let stalls: u64 = ["rob", "mlp", "dep", "store", "drain", "branch"]
        .iter()
        .map(|cause| counter(&format!("cpu.stall.{cause}_cycles")))
        .sum();
    assert!(run.breakdown.other_stall > 0, "mcf should mispredict");
    assert_eq!(report.provenance.sim_cycles, run.breakdown.total());
    assert_eq!(report.provenance.sim_cycles - stalls, run.breakdown.busy);
}

/// `(name, type, unit)` of every row in the "Metric reference" tables of
/// `OBSERVABILITY.md`.
fn documented_metrics() -> BTreeSet<(String, String, String)> {
    let doc = include_str!("../OBSERVABILITY.md");
    let start = doc
        .find("\n## Metric reference")
        .expect("OBSERVABILITY.md has a Metric reference section");
    let section = &doc[start + 1..];
    let section = &section[..section[1..].find("\n## ").map_or(section.len(), |i| i + 1)];
    section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            (
                cells[1].trim_matches('`').to_owned(),
                cells[2].to_owned(),
                cells[3].to_owned(),
            )
        })
        .collect()
}

#[test]
fn metric_reference_lists_exactly_what_a_report_emits() {
    let (report, _recorder) = observed_report(
        by_name("mcf").unwrap(),
        Scheme::Base,
        20_000,
        ObsConfig::default(),
    );
    let emitted: BTreeSet<(String, String, String)> = report
        .metrics
        .iter()
        .map(|(name, m)| {
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            (name.to_owned(), kind.to_owned(), m.unit.clone())
        })
        .collect();
    assert_eq!(documented_metrics(), emitted);
}
