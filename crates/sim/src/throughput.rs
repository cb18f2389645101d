//! End-to-end simulation throughput measurement (simulated refs/sec).
//!
//! The ROADMAP's north star is a simulator that runs "as fast as the
//! hardware allows"; this module is how that claim stays honest. It
//! drives the whole pipeline — generator, CPU model, hierarchy, DRAM,
//! all on the calling thread — over all 23 workloads per scheme,
//! measures wall-clock, and reports memory references retired per
//! second. The `throughput` bench binary emits the result as
//! `BENCH_throughput.json`, and CI fails when a scheme regresses more
//! than the allowed fraction against the committed baseline.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use primecache_workloads::{all, TraceStore, Workload};

use crate::{run_trace, run_workload, run_workload_reference, MachineConfig, RunResult, Scheme};

/// Throughput of one scheme across the whole workload suite.
#[derive(Debug, Clone)]
pub struct SchemeThroughput {
    /// The scheme measured.
    pub scheme: Scheme,
    /// Total memory references simulated (all 23 workloads).
    pub refs: u64,
    /// Wall-clock seconds for the whole suite.
    pub seconds: f64,
    /// Simulated memory references per second.
    pub refs_per_sec: f64,
}

/// A labeled non-scheme throughput entry: the trace-pipeline stages
/// (`gen:record`, `replay:decode`, `replay:materialize`) and the whole-sweep
/// aggregate (`sweep:aggregate`). Written into the same `"schemes"`
/// array of `BENCH_throughput.json`, keyed by label, so the baseline
/// scanner and regression gate treat them exactly like scheme entries.
#[derive(Debug, Clone)]
pub struct NamedThroughput {
    /// Entry label (`gen:*`, `replay:*`, `sweep:*`).
    pub label: &'static str,
    /// Memory references processed.
    pub refs: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// References per second.
    pub refs_per_sec: f64,
}

/// A full throughput report: every requested scheme over all workloads,
/// plus any labeled pipeline-stage extras.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// References requested per workload.
    pub refs_per_workload: u64,
    /// Number of workloads in the suite.
    pub workloads: usize,
    /// Per-scheme measurements, in the order requested.
    pub schemes: Vec<SchemeThroughput>,
    /// Labeled non-scheme measurements (generation, decode, aggregate).
    pub extras: Vec<NamedThroughput>,
}

/// Measures end-to-end refs/sec for each scheme: all 23 workloads,
/// `refs_per_workload` references each, every generator pushing its
/// chunks straight into the engine (generation included in the time).
#[must_use]
pub fn measure(schemes: &[Scheme], refs_per_workload: u64) -> ThroughputReport {
    measure_with(schemes, refs_per_workload, run_workload)
}

/// [`measure`] on the pre-batching reference driver (`Box<dyn
/// SetIndexer>` caches, event-at-a-time). Same results, slower — the
/// "before" column of the README/DESIGN before/after tables, measured
/// on the same machine in the same session as the batched numbers.
#[must_use]
pub fn measure_reference(schemes: &[Scheme], refs_per_workload: u64) -> ThroughputReport {
    measure_with(schemes, refs_per_workload, run_workload_reference)
}

fn measure_with(
    schemes: &[Scheme],
    refs_per_workload: u64,
    runner: fn(&Workload, Scheme, u64) -> RunResult,
) -> ThroughputReport {
    let suite = all();
    let per_scheme = schemes
        .iter()
        .map(|&scheme| {
            let start = Instant::now();
            let mut refs = 0u64;
            for w in suite {
                let r = runner(w, scheme, refs_per_workload);
                refs += r.l1.accesses;
            }
            let seconds = start.elapsed().as_secs_f64();
            SchemeThroughput {
                scheme,
                refs,
                seconds,
                refs_per_sec: if seconds > 0.0 {
                    refs as f64 / seconds
                } else {
                    0.0
                },
            }
        })
        .collect();
    ThroughputReport {
        refs_per_workload,
        workloads: suite.len(),
        schemes: per_scheme,
        extras: Vec::new(),
    }
}

/// Times `stage`, which returns the memory references it processed, and
/// packages the result as a labeled entry.
fn timed_extra(label: &'static str, stage: impl FnOnce() -> u64) -> NamedThroughput {
    let start = Instant::now();
    let refs = stage();
    let seconds = start.elapsed().as_secs_f64();
    NamedThroughput {
        label,
        refs,
        seconds,
        refs_per_sec: if seconds > 0.0 {
            refs as f64 / seconds
        } else {
            0.0
        },
    }
}

/// Records the whole suite (timed as `gen:record`) and measures the
/// other pure pipeline stage, `replay:decode` (drain replay cursors
/// over the fresh store). Returns the store for reuse.
fn measure_pipeline_stages(refs_per_workload: u64) -> (TraceStore, Vec<NamedThroughput>) {
    let suite = all();
    let mut store = TraceStore::new(refs_per_workload);
    let gen_record = timed_extra("gen:record", || {
        for w in suite {
            store.record(w);
        }
        store.refs()
    });
    let replay_decode = timed_extra("replay:decode", || {
        suite
            .iter()
            .map(|w| {
                store
                    .replay(w.name)
                    .expect("suite recorded")
                    .filter(primecache_trace::Event::is_memory)
                    .count() as u64
            })
            .sum()
    });
    (store, vec![gen_record, replay_decode])
}

/// [`measure`] on the generate-once/replay-everywhere hot path: the
/// suite is recorded once into the compact store (`gen:record` extra),
/// then each workload's trace is decoded once into a flat event buffer
/// (`replay:materialize` extra) and every scheme simulates straight off
/// that buffer — no per-scheme re-decode. Also measures the pure
/// pipeline stage `replay:decode` and an end-to-end
/// `sweep:aggregate` entry: total simulated refs across all schemes
/// divided by record + materialize + simulation time, the number a
/// whole sweep actually experiences.
#[must_use]
pub fn measure_replayed(schemes: &[Scheme], refs_per_workload: u64) -> ThroughputReport {
    let suite = all();
    let machine = MachineConfig::paper_default();
    let (store, mut extras) = measure_pipeline_stages(refs_per_workload);
    let record_seconds = extras
        .iter()
        .find(|e| e.label == "gen:record")
        .map_or(0.0, |e| e.seconds);
    let mut per_refs = vec![0u64; schemes.len()];
    let mut per_seconds = vec![0.0f64; schemes.len()];
    let mut materialize_seconds = 0.0f64;
    let mut materialize_refs = 0u64;
    for w in suite {
        let start = Instant::now();
        let events: Vec<primecache_trace::Event> =
            store.replay(w.name).expect("suite recorded").collect();
        materialize_seconds += start.elapsed().as_secs_f64();
        materialize_refs += events
            .iter()
            .filter(|e| primecache_trace::Event::is_memory(e))
            .count() as u64;
        for (i, &scheme) in schemes.iter().enumerate() {
            let start = Instant::now();
            let r = run_trace(events.iter().copied(), scheme, &machine);
            per_seconds[i] += start.elapsed().as_secs_f64();
            per_refs[i] += r.l1.accesses;
        }
    }
    let per_scheme: Vec<SchemeThroughput> = schemes
        .iter()
        .zip(per_refs.iter().zip(&per_seconds))
        .map(|(&scheme, (&refs, &seconds))| SchemeThroughput {
            scheme,
            refs,
            seconds,
            refs_per_sec: if seconds > 0.0 {
                refs as f64 / seconds
            } else {
                0.0
            },
        })
        .collect();
    extras.push(NamedThroughput {
        label: "replay:materialize",
        refs: materialize_refs,
        seconds: materialize_seconds,
        refs_per_sec: if materialize_seconds > 0.0 {
            materialize_refs as f64 / materialize_seconds
        } else {
            0.0
        },
    });
    let sim_refs: u64 = per_scheme.iter().map(|s| s.refs).sum();
    let sim_seconds: f64 = per_scheme.iter().map(|s| s.seconds).sum();
    let total_seconds = record_seconds + materialize_seconds + sim_seconds;
    extras.push(NamedThroughput {
        label: "sweep:aggregate",
        refs: sim_refs,
        seconds: total_seconds,
        refs_per_sec: if total_seconds > 0.0 {
            sim_refs as f64 / total_seconds
        } else {
            0.0
        },
    });
    ThroughputReport {
        refs_per_workload,
        workloads: suite.len(),
        schemes: per_scheme,
        extras,
    }
}

/// Pure trace-pipeline throughput, no simulation: `gen:record` and
/// `replay:decode` over the whole suite (the `bench --gen-only` mode).
/// The report's `schemes` list is empty.
#[must_use]
pub fn measure_gen_only(refs_per_workload: u64) -> ThroughputReport {
    let (_store, extras) = measure_pipeline_stages(refs_per_workload);
    ThroughputReport {
        refs_per_workload,
        workloads: all().len(),
        schemes: Vec::new(),
        extras,
    }
}

impl ThroughputReport {
    /// All entries — schemes then extras — as uniform
    /// `(label, refs, seconds, refs_per_sec)` rows. The JSON writer,
    /// baseline check, and regression gate all iterate this, so a
    /// pipeline-stage extra is gated exactly like a scheme.
    fn entries(&self) -> impl Iterator<Item = (&str, u64, f64, f64)> {
        self.schemes
            .iter()
            .map(|s| (s.scheme.label(), s.refs, s.seconds, s.refs_per_sec))
            .chain(
                self.extras
                    .iter()
                    .map(|e| (e.label, e.refs, e.seconds, e.refs_per_sec)),
            )
    }

    /// Renders the report as the `BENCH_throughput.json` document.
    ///
    /// Hand-rolled writer (the workspace `serde` is a no-op shim); the
    /// format is the one [`baseline_refs_per_sec`] parses back. Extras
    /// go in the same `"schemes"` array as the schemes — the scanner is
    /// label-keyed and treats both identically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"refs_per_workload\": {},", self.refs_per_workload);
        let _ = writeln!(out, "  \"workloads\": {},", self.workloads);
        out.push_str("  \"schemes\": [\n");
        let total = self.schemes.len() + self.extras.len();
        for (i, (label, refs, seconds, refs_per_sec)) in self.entries().enumerate() {
            let comma = if i + 1 < total { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"scheme\": \"{label}\", \"refs\": {refs}, \"seconds\": {seconds:.6}, \
                 \"refs_per_sec\": {refs_per_sec:.0}}}{comma}",
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Entries (schemes or extras) in this report that have no baseline
    /// entry — and are therefore **not gated** by
    /// [`ThroughputReport::regressions`].
    ///
    /// A newly added entry silently slipping past the regression gate
    /// is exactly how a perf floor rots; callers must surface these as a
    /// loud warning (and CI, via `--strict`, as a hard failure) until a
    /// baseline entry lands.
    #[must_use]
    pub fn missing_from_baseline(&self, baseline: &BTreeMap<String, f64>) -> Vec<String> {
        self.entries()
            .filter(|(label, ..)| !baseline.contains_key(*label))
            .map(|(label, ..)| label.to_owned())
            .collect()
    }

    /// Compares this report against a committed baseline and returns one
    /// message per entry (scheme or extra) whose refs/sec fell more than
    /// `max_regress` (a fraction, e.g. `0.30`) below the baseline value.
    ///
    /// Entries absent from the baseline are **not** gated here — collect
    /// them with [`ThroughputReport::missing_from_baseline`] and treat
    /// them as an error in CI.
    #[must_use]
    pub fn regressions(&self, baseline: &BTreeMap<String, f64>, max_regress: f64) -> Vec<String> {
        self.entries()
            .filter_map(|(label, _refs, _seconds, refs_per_sec)| {
                let &base = baseline.get(label)?;
                let floor = base * (1.0 - max_regress);
                (refs_per_sec < floor).then(|| {
                    format!(
                        "{label}: {refs_per_sec:.0} refs/sec is below the regression floor \
                         {floor:.0} (baseline {base:.0}, max regression {:.0}%)",
                        max_regress * 100.0
                    )
                })
            })
            .collect()
    }
}

/// Extracts `scheme label -> refs_per_sec` pairs from a throughput JSON
/// document (the format [`ThroughputReport::to_json`] writes).
///
/// A minimal scanner, not a general JSON parser: it pairs each
/// `"scheme": "<label>"` with the next `"refs_per_sec": <number>`.
#[must_use]
pub fn baseline_refs_per_sec(json: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"scheme\":") {
        rest = &rest[at + "\"scheme\":".len()..];
        let Some(open) = rest.find('"') else { break };
        let Some(close) = rest[open + 1..].find('"') else {
            break;
        };
        let label = rest[open + 1..open + 1 + close].to_owned();
        let Some(rp) = rest.find("\"refs_per_sec\":") else {
            break;
        };
        let tail = rest[rp + "\"refs_per_sec\":".len()..].trim_start();
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(tail.len());
        if let Ok(v) = tail[..end].parse::<f64>() {
            out.insert(label, v);
        }
        rest = &rest[rp + 1..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_covers_requested_schemes() {
        let report = measure(&[Scheme::Base, Scheme::PrimeModulo], 500);
        assert_eq!(report.schemes.len(), 2);
        for s in &report.schemes {
            assert!(s.refs >= 500 * 23, "{}: {} refs", s.scheme.label(), s.refs);
            assert!(s.refs_per_sec > 0.0);
        }
    }

    #[test]
    fn json_round_trips_through_the_baseline_scanner() {
        let report = measure(&[Scheme::Base, Scheme::Xor], 200);
        let json = report.to_json();
        let parsed = baseline_refs_per_sec(&json);
        assert_eq!(parsed.len(), 2);
        for s in &report.schemes {
            let v = parsed[s.scheme.label()];
            // to_json rounds to whole refs/sec.
            assert!(
                (v - s.refs_per_sec).abs() <= 1.0,
                "{v} vs {}",
                s.refs_per_sec
            );
        }
    }

    #[test]
    fn regression_check_fires_only_below_floor() {
        let report = ThroughputReport {
            refs_per_workload: 1,
            workloads: 23,
            schemes: vec![
                SchemeThroughput {
                    scheme: Scheme::Base,
                    refs: 23,
                    seconds: 1.0,
                    refs_per_sec: 65.0,
                },
                SchemeThroughput {
                    scheme: Scheme::Xor,
                    refs: 23,
                    seconds: 1.0,
                    refs_per_sec: 75.0,
                },
            ],
            extras: vec![NamedThroughput {
                label: "gen:record",
                refs: 23,
                seconds: 1.0,
                refs_per_sec: 40.0,
            }],
        };
        let baseline: BTreeMap<String, f64> = [
            ("Base".to_owned(), 100.0),
            ("XOR".to_owned(), 100.0),
            ("gen:record".to_owned(), 100.0),
        ]
        .into();
        let msgs = report.regressions(&baseline, 0.30);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].starts_with("Base:"), "{}", msgs[0]);
        // Extras are gated by the same floor logic as schemes.
        assert!(msgs[1].starts_with("gen:record:"), "{}", msgs[1]);
    }

    #[test]
    fn schemes_missing_from_baseline_are_reported_not_gated() {
        // The old behavior silently skipped unknown schemes — a scheme
        // could land, never get a baseline entry, and regress forever
        // without tripping CI. `regressions` still only gates schemes
        // with a baseline, but `missing_from_baseline` must name every
        // ungated scheme so callers can warn (or fail, in CI).
        let report = ThroughputReport {
            refs_per_workload: 1,
            workloads: 23,
            schemes: vec![
                SchemeThroughput {
                    scheme: Scheme::FullyAssociative,
                    refs: 23,
                    seconds: 1.0,
                    refs_per_sec: 1.0,
                },
                SchemeThroughput {
                    scheme: Scheme::Base,
                    refs: 23,
                    seconds: 1.0,
                    refs_per_sec: 99.0,
                },
            ],
            extras: vec![NamedThroughput {
                label: "replay:decode",
                refs: 23,
                seconds: 1.0,
                refs_per_sec: 1.0,
            }],
        };
        let baseline: BTreeMap<String, f64> = [("Base".to_owned(), 100.0)].into();
        assert!(report.regressions(&baseline, 0.3).is_empty());
        assert_eq!(
            report.missing_from_baseline(&baseline),
            vec!["FA", "replay:decode"]
        );
        assert!(report.missing_from_baseline(&BTreeMap::new()).len() == 3);
    }

    #[test]
    fn fully_covered_baseline_reports_nothing_missing() {
        let report = ThroughputReport {
            refs_per_workload: 1,
            workloads: 23,
            schemes: vec![SchemeThroughput {
                scheme: Scheme::Xor,
                refs: 23,
                seconds: 1.0,
                refs_per_sec: 50.0,
            }],
            extras: vec![],
        };
        let baseline: BTreeMap<String, f64> = [("XOR".to_owned(), 100.0)].into();
        assert!(report.missing_from_baseline(&baseline).is_empty());
    }

    #[test]
    fn replayed_measurement_emits_pipeline_extras() {
        let report = measure_replayed(&[Scheme::Base, Scheme::PrimeModulo], 400);
        assert_eq!(report.schemes.len(), 2);
        for s in &report.schemes {
            assert!(s.refs >= 400 * 23, "{}: {} refs", s.scheme.label(), s.refs);
        }
        let labels: Vec<&str> = report.extras.iter().map(|e| e.label).collect();
        assert_eq!(
            labels,
            [
                "gen:record",
                "replay:decode",
                "replay:materialize",
                "sweep:aggregate"
            ]
        );
        // Every stage processed the full suite's memory references.
        for e in &report.extras {
            assert!(e.refs >= 400 * 23, "{}: {} refs", e.label, e.refs);
            assert!(e.refs_per_sec > 0.0, "{}", e.label);
        }
        // Replayed and live simulation agree on the reference count.
        let live = measure(&[Scheme::Base], 400);
        assert_eq!(report.schemes[0].refs, live.schemes[0].refs);
    }

    #[test]
    fn gen_only_measurement_has_no_schemes() {
        let report = measure_gen_only(300);
        assert!(report.schemes.is_empty());
        let labels: Vec<&str> = report.extras.iter().map(|e| e.label).collect();
        assert_eq!(labels, ["gen:record", "replay:decode"]);
        // Decode replays exactly the recorded trace.
        assert_eq!(report.extras[0].refs, report.extras[1].refs);
    }

    #[test]
    fn extras_round_trip_through_the_baseline_scanner() {
        let report = ThroughputReport {
            refs_per_workload: 1,
            workloads: 23,
            schemes: vec![SchemeThroughput {
                scheme: Scheme::Base,
                refs: 23,
                seconds: 1.0,
                refs_per_sec: 123.0,
            }],
            extras: vec![NamedThroughput {
                label: "sweep:aggregate",
                refs: 184,
                seconds: 2.0,
                refs_per_sec: 92.0,
            }],
        };
        let parsed = baseline_refs_per_sec(&report.to_json());
        assert_eq!(parsed.len(), 2);
        assert!((parsed["Base"] - 123.0).abs() < 0.5);
        assert!((parsed["sweep:aggregate"] - 92.0).abs() < 0.5);
    }
}
