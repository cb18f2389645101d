//! The self-describing run-report artifact.
//!
//! Every figure and table the simulator regenerates should carry enough
//! provenance to reproduce it: which workload and scheme ran, under
//! which machine configuration (as a fingerprint), from which source
//! revision, for how long in both wall-clock and simulated time. A
//! [`RunReport`] bundles that provenance with the run's full [`Metrics`]
//! dump, which states every other number once (the cache and DRAM
//! totals, the stall cycles of the Fig. 8 breakdown), versioned under
//! [`RUN_REPORT_SCHEMA`] so future readers can detect format drift.
//! Reports serialize to JSON and parse back losslessly;
//! `primecache_sim::observe::observed_report` builds them.

use std::path::Path;

use crate::json::Json;
use crate::metrics::Metrics;

/// Schema identifier embedded in every report.
pub const RUN_REPORT_SCHEMA: &str = "primecache.run-report";

/// Current schema version; bump on any incompatible field change.
///
/// History: v1 — provenance, the metric dump, and mirror objects of
/// numbers the dump already holds (`breakdown`, `l1`, `l2`, `dram`,
/// `events_recorded`, `events_dropped`); v2 — provenance and the metric
/// dump only. A v1 document still reads: its `provenance` and `metrics`
/// are the same, and the mirrors are ignored.
pub const RUN_REPORT_VERSION: u64 = 2;

/// Where a report came from: everything needed to re-run it.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Workload name (one of the 23 generator models).
    pub workload: String,
    /// Scheme label (`Base`, `pMod`, `SKW+pDisp`, ...).
    pub scheme: String,
    /// Memory references requested.
    pub refs: u64,
    /// Trace-generator seed. The bundled generators are deterministic
    /// functions of the workload name, so this is 0 for them; external
    /// trace sources can carry a real seed.
    pub seed: u64,
    /// FNV-1a fingerprint (hex) of the canonical machine-config string.
    pub config_hash: String,
    /// Git commit the binary was built from, or `"unknown"` outside a
    /// checkout.
    pub git_rev: String,
    /// Wall-clock milliseconds the run took.
    pub wall_ms: f64,
    /// Simulated CPU cycles the run covered: Busy plus every stall
    /// cycle the `cpu.stall.*` metrics count.
    pub sim_cycles: u64,
}

/// A versioned, self-describing record of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Reproduction provenance.
    pub provenance: Provenance,
    /// Full named-metric dump.
    pub metrics: Metrics,
}

impl RunReport {
    /// Serializes to the JSON document form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let p = &self.provenance;
        Json::document(
            RUN_REPORT_SCHEMA,
            RUN_REPORT_VERSION,
            vec![
                (
                    "provenance",
                    Json::obj(vec![
                        ("workload", Json::Str(p.workload.clone())),
                        ("scheme", Json::Str(p.scheme.clone())),
                        ("refs", Json::U64(p.refs)),
                        ("seed", Json::U64(p.seed)),
                        ("config_hash", Json::Str(p.config_hash.clone())),
                        ("git_rev", Json::Str(p.git_rev.clone())),
                        ("wall_ms", Json::F64(p.wall_ms)),
                        ("sim_cycles", Json::U64(p.sim_cycles)),
                    ]),
                ),
                ("metrics", self.metrics.to_json()),
            ],
        )
    }

    /// Parses a report back from its JSON text (any version up to
    /// [`RUN_REPORT_VERSION`]).
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a schema mismatch, a
    /// version newer than this build understands, or a missing field.
    pub fn from_json_str(text: &str) -> Result<RunReport, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        v.check_head(RUN_REPORT_SCHEMA, RUN_REPORT_VERSION)
            .map_err(|e| format!("report: {e}"))?;
        let p = v.get("provenance").ok_or("report: missing provenance")?;
        Ok(RunReport {
            provenance: Provenance {
                workload: req_str(p, "workload")?,
                scheme: req_str(p, "scheme")?,
                refs: req_u64(p, "refs")?,
                seed: req_u64(p, "seed")?,
                config_hash: req_str(p, "config_hash")?,
                git_rev: req_str(p, "git_rev")?,
                wall_ms: p
                    .get("wall_ms")
                    .and_then(Json::as_f64)
                    .ok_or("report: missing wall_ms")?,
                sim_cycles: req_u64(p, "sim_cycles")?,
            },
            metrics: Metrics::from_json(v.get("metrics").ok_or("report: missing metrics")?)?,
        })
    }
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("report: missing integer field {key:?}"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("report: missing string field {key:?}"))
}

/// 64-bit FNV-1a over `bytes` — the fingerprint used for
/// [`Provenance::config_hash`]. Not cryptographic; it only needs to
/// make "same config?" a one-token comparison.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .iter()
        .fold(OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// Resolves the current git commit by walking up from `start` (made
/// absolute first, so a relative `.` walks past the working directory)
/// to the first directory containing `.git`, then reading `HEAD`
/// (following one level of `ref:` indirection, with `packed-refs`
/// fallback). No subprocess — works in sandboxes without a `git`
/// binary.
#[must_use]
pub fn git_revision(start: &Path) -> Option<String> {
    let start = std::path::absolute(start).ok()?;
    let mut dir = Some(start.as_path());
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return read_head(&git);
        }
        dir = d.parent();
    }
    None
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
            return Some(hash.trim().to_owned());
        }
        // Unborn or packed ref: scan packed-refs.
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some((hash, name)) = line.split_once(' ') {
                if name.trim() == refname {
                    return Some(hash.trim().to_owned());
                }
            }
        }
        None
    } else {
        (!head.is_empty()).then(|| head.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut metrics = Metrics::new();
        metrics.set_counter("cache.l2.demand_misses", "refs", "L2 demand misses", 777);
        metrics.set_gauge("dram.row_hit_rate", "fraction", "row hits / requests", 0.5);
        RunReport {
            provenance: Provenance {
                workload: "mcf".into(),
                scheme: "pMod".into(),
                refs: 100_000,
                seed: 0,
                config_hash: "deadbeefdeadbeef".into(),
                git_rev: "unknown".into(),
                wall_ms: 12.5,
                sim_cycles: 987_654,
            },
            metrics,
        }
    }

    /// `sample()`'s document under another head.
    fn with_head(schema: &str, version: u64) -> String {
        let Json::Obj(members) = sample().to_json() else {
            unreachable!("a report is an object");
        };
        let body = members[2..]
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        Json::document(schema, version, body).render()
    }

    #[test]
    fn report_round_trips_compact_and_pretty() {
        let r = sample();
        let compact = r.to_json().render();
        let pretty = r.to_json().render_pretty();
        assert!(compact.starts_with(r#"{"schema":"primecache.run-report","version":2,"#));
        assert_eq!(RunReport::from_json_str(&compact).unwrap(), r);
        assert_eq!(RunReport::from_json_str(&pretty).unwrap(), r);
    }

    #[test]
    fn schema_and_version_are_enforced() {
        let foreign = with_head("other.schema", RUN_REPORT_VERSION);
        assert!(RunReport::from_json_str(&foreign).is_err());
        let newer = with_head(RUN_REPORT_SCHEMA, RUN_REPORT_VERSION + 1);
        assert!(RunReport::from_json_str(&newer)
            .unwrap_err()
            .contains("newer"));
        for version in 1..=RUN_REPORT_VERSION {
            let text = with_head(RUN_REPORT_SCHEMA, version);
            assert_eq!(RunReport::from_json_str(&text), Ok(sample()), "v{version}");
        }
    }

    #[test]
    fn a_v1_document_still_reads() {
        // The v1 shape: the mirror objects v2 dropped sit beside the
        // same provenance and metric dump, and are ignored.
        let v1 = r#"{"schema":"primecache.run-report","version":1,
            "provenance":{"workload":"mcf","scheme":"pMod","refs":100000,"seed":0,
                "config_hash":"deadbeefdeadbeef","git_rev":"unknown","wall_ms":12.5,
                "sim_cycles":987654},
            "breakdown":{"busy":1,"other_stall":2,"mem_stall":987651},
            "l1":{"accesses":10,"hits":9,"misses":1,"writes":4,"writebacks":2},
            "l2":{"accesses":1,"hits":0,"misses":777,"writes":0,"writebacks":0},
            "dram":{"reads":1,"writes":0,"row_hits":0,"row_misses":1,"queue_cycles":5},
            "metrics":{
                "cache.l2.demand_misses":{"type":"counter","unit":"refs",
                    "help":"L2 demand misses","value":777},
                "dram.row_hit_rate":{"type":"gauge","unit":"fraction",
                    "help":"row hits / requests","value":0.5}},
            "events_recorded":42,"events_dropped":0}"#;
        assert_eq!(RunReport::from_json_str(v1), Ok(sample()));
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_64(b"pMod"), fnv1a_64(b"pDisp"));
        assert_eq!(fnv1a_64(b"pMod"), fnv1a_64(b"pMod"));
    }

    #[test]
    fn git_revision_resolves_this_checkout_if_any() {
        // In a git checkout this returns a 40-hex commit; elsewhere None.
        if let Some(rev) = git_revision(Path::new(".")) {
            assert!(rev.len() >= 7, "{rev}");
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "{rev}");
        }
    }

    #[test]
    fn relative_start_walks_up_like_the_absolute_one() {
        // Tests run with the crate directory as cwd, below the checkout
        // root: "." must still find the `.git` above it.
        let cwd = std::env::current_dir().unwrap();
        assert_eq!(git_revision(Path::new(".")), git_revision(&cwd));
    }
}
