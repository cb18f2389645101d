//! The self-describing run-report artifact.
//!
//! Every figure and table the simulator regenerates should carry enough
//! provenance to reproduce it: which workload and scheme ran, under
//! which machine configuration (as a fingerprint), from which source
//! revision, for how long in both wall-clock and simulated time. A
//! [`RunReport`] bundles that provenance with the end-of-run aggregates
//! (execution-time breakdown, per-level cache totals, DRAM totals — the
//! Fig. 8 / Table 5 inputs) and the full [`Metrics`] dump, versioned
//! under [`RUN_REPORT_SCHEMA`] so future readers can detect format
//! drift. Reports serialize to JSON and parse back losslessly;
//! `primecache_sim::observe::observed_report` builds them.

use std::path::Path;

use crate::json::Json;
use crate::metrics::Metrics;

/// Schema identifier embedded in every report.
pub const RUN_REPORT_SCHEMA: &str = "primecache.run-report";

/// Current schema version; bump on any incompatible field change.
pub const RUN_REPORT_VERSION: u64 = 1;

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
    /// Simulated CPU cycles the run covered.
    pub sim_cycles: u64,
}

/// Aggregate totals for one cache level (mirrors `CacheStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Store accesses.
    pub writes: u64,
    /// Dirty evictions written to the next level.
    pub writebacks: u64,
}

/// Aggregate DRAM totals (mirrors `DramStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramSummary {
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that missed the open row.
    pub row_misses: u64,
    /// Total cycles requests spent queued.
    pub queue_cycles: u64,
}

/// Execution-time split (the Fig. 8 stack: Busy / Other / Memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakdownSummary {
    /// Cycles doing useful work.
    pub busy: u64,
    /// Non-memory stall cycles.
    pub other_stall: u64,
    /// Memory stall cycles.
    pub mem_stall: u64,
}

/// A versioned, self-describing record of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Always [`RUN_REPORT_SCHEMA`].
    pub schema: String,
    /// Always [`RUN_REPORT_VERSION`] for reports this build writes.
    pub version: u64,
    /// Reproduction provenance.
    pub provenance: Provenance,
    /// Execution-time breakdown.
    pub breakdown: BreakdownSummary,
    /// L1 totals.
    pub l1: CacheSummary,
    /// L2 demand totals (the level the paper's schemes index).
    pub l2: CacheSummary,
    /// DRAM totals.
    pub dram: DramSummary,
    /// Full named-metric dump.
    pub metrics: Metrics,
    /// Trace events recorded during the run (0 without tracing).
    pub events_recorded: u64,
    /// Trace events lost to ring overflow.
    pub events_dropped: u64,
}

impl RunReport {
    /// Serializes to the JSON document form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let p = &self.provenance;
        Json::obj(vec![
            ("schema", Json::Str(self.schema.clone())),
            ("version", Json::U64(self.version)),
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
            (
                "breakdown",
                Json::obj(vec![
                    ("busy", Json::U64(self.breakdown.busy)),
                    ("other_stall", Json::U64(self.breakdown.other_stall)),
                    ("mem_stall", Json::U64(self.breakdown.mem_stall)),
                ]),
            ),
            ("l1", cache_to_json(&self.l1)),
            ("l2", cache_to_json(&self.l2)),
            (
                "dram",
                Json::obj(vec![
                    ("reads", Json::U64(self.dram.reads)),
                    ("writes", Json::U64(self.dram.writes)),
                    ("row_hits", Json::U64(self.dram.row_hits)),
                    ("row_misses", Json::U64(self.dram.row_misses)),
                    ("queue_cycles", Json::U64(self.dram.queue_cycles)),
                ]),
            ),
            ("metrics", self.metrics.to_json()),
            ("events_recorded", Json::U64(self.events_recorded)),
            ("events_dropped", Json::U64(self.events_dropped)),
        ])
    }

    /// Parses a report back from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a schema mismatch, or a
    /// version newer than this build understands.
    pub fn from_json_str(text: &str) -> Result<RunReport, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("report: missing schema")?;
        if schema != RUN_REPORT_SCHEMA {
            return Err(format!("report: unknown schema {schema:?}"));
        }
        let version = req_u64(&v, "version")?;
        if version > RUN_REPORT_VERSION {
            return Err(format!(
                "report: version {version} is newer than supported {RUN_REPORT_VERSION}"
            ));
        }
        let p = v.get("provenance").ok_or("report: missing provenance")?;
        let b = v.get("breakdown").ok_or("report: missing breakdown")?;
        let d = v.get("dram").ok_or("report: missing dram")?;
        Ok(RunReport {
            schema: schema.to_owned(),
            version,
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
            breakdown: BreakdownSummary {
                busy: req_u64(b, "busy")?,
                other_stall: req_u64(b, "other_stall")?,
                mem_stall: req_u64(b, "mem_stall")?,
            },
            l1: cache_from_json(v.get("l1").ok_or("report: missing l1")?)?,
            l2: cache_from_json(v.get("l2").ok_or("report: missing l2")?)?,
            dram: DramSummary {
                reads: req_u64(d, "reads")?,
                writes: req_u64(d, "writes")?,
                row_hits: req_u64(d, "row_hits")?,
                row_misses: req_u64(d, "row_misses")?,
                queue_cycles: req_u64(d, "queue_cycles")?,
            },
            metrics: Metrics::from_json(v.get("metrics").ok_or("report: missing metrics")?)?,
            events_recorded: req_u64(&v, "events_recorded")?,
            events_dropped: req_u64(&v, "events_dropped")?,
        })
    }
}

fn cache_to_json(c: &CacheSummary) -> Json {
    Json::obj(vec![
        ("accesses", Json::U64(c.accesses)),
        ("hits", Json::U64(c.hits)),
        ("misses", Json::U64(c.misses)),
        ("writes", Json::U64(c.writes)),
        ("writebacks", Json::U64(c.writebacks)),
    ])
}

fn cache_from_json(v: &Json) -> Result<CacheSummary, String> {
    Ok(CacheSummary {
        accesses: req_u64(v, "accesses")?,
        hits: req_u64(v, "hits")?,
        misses: req_u64(v, "misses")?,
        writes: req_u64(v, "writes")?,
        writebacks: req_u64(v, "writebacks")?,
    })
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
            schema: RUN_REPORT_SCHEMA.to_owned(),
            version: RUN_REPORT_VERSION,
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
            breakdown: BreakdownSummary {
                busy: 1,
                other_stall: 2,
                mem_stall: 3,
            },
            l1: CacheSummary {
                accesses: 10,
                hits: 9,
                misses: 1,
                writes: 4,
                writebacks: 2,
            },
            l2: CacheSummary {
                accesses: 1,
                hits: 0,
                misses: 1,
                writes: 0,
                writebacks: 0,
            },
            dram: DramSummary {
                reads: 1,
                writes: 0,
                row_hits: 0,
                row_misses: 1,
                queue_cycles: 5,
            },
            metrics,
            events_recorded: 42,
            events_dropped: 0,
        }
    }

    #[test]
    fn report_round_trips_compact_and_pretty() {
        let r = sample();
        let compact = r.to_json().render();
        let pretty = r.to_json().render_pretty();
        assert_eq!(RunReport::from_json_str(&compact).unwrap(), r);
        assert_eq!(RunReport::from_json_str(&pretty).unwrap(), r);
    }

    #[test]
    fn schema_and_version_are_enforced() {
        let mut r = sample();
        r.schema = "other.schema".into();
        let text = r.to_json().render();
        assert!(RunReport::from_json_str(&text).is_err());
        let mut r = sample();
        r.version = RUN_REPORT_VERSION + 1;
        let text = r.to_json().render();
        assert!(RunReport::from_json_str(&text)
            .unwrap_err()
            .contains("newer"));
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
