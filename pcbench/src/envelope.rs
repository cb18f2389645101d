//! The versioned result envelope (`primecache.benchmark-result` v1) and
//! the one-line summary the benchmark prints last.

use primecache_obs::Json;

use crate::metrics::Better;
use crate::stats::Summary;

/// Envelope schema name.
pub const SCHEMA: &str = "primecache.benchmark-result";
/// Envelope schema version.
pub const VERSION: u64 = 1;

/// What was measured, where, and how.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Git revision of the checkout, or `unknown` outside a repository.
    pub git_rev: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time per workload, in seconds.
    pub seconds: u64,
    /// Whether the run used the tiny `--quick` inputs.
    pub quick: bool,
    /// Whether this was a traced (per-layer) run.
    pub trace: bool,
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Reported value: a median, a pooled percentile, or a single
    /// reading.
    pub value: f64,
    /// First quartile of the samples behind `value` (`value` itself for
    /// a single reading).
    pub q1: f64,
    /// Third quartile, likewise.
    pub q3: f64,
    /// Number of samples behind `value`.
    pub n: u64,
}

impl Measured {
    /// A single reading with no spread.
    #[must_use]
    pub fn single(name: &str, unit: &str, better: Better, bound: Option<f64>, value: f64) -> Self {
        Measured {
            name: name.to_owned(),
            unit: unit.to_owned(),
            better,
            bound,
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The median of a summary, carrying its quartiles.
    #[must_use]
    pub fn summary(name: &str, unit: &str, better: Better, bound: Option<f64>, s: Summary) -> Self {
        Measured {
            q1: s.q1,
            q3: s.q3,
            n: s.n as u64,
            ..Measured::single(name, unit, better, bound, s.median)
        }
    }

    /// Interquartile distance as a share of the value.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }

    fn to_json(&self) -> Json {
        let mut m = vec![
            ("name", Json::Str(self.name.clone())),
            ("unit", Json::Str(self.unit.clone())),
            ("better", Json::Str(self.better.as_str().to_owned())),
        ];
        if let Some(b) = self.bound {
            m.push(("bound", Json::F64(b)));
        }
        m.extend([
            ("value", Json::F64(self.value)),
            ("q1", Json::F64(self.q1)),
            ("q3", Json::F64(self.q3)),
            ("n", Json::U64(self.n)),
        ]);
        Json::obj(m)
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let num = |k: &str| {
            field(j, k)?
                .as_f64()
                .ok_or(format!("`{k}` is not a number"))
        };
        Ok(Measured {
            name: str_field(j, "name")?,
            unit: str_field(j, "unit")?,
            better: Better::parse(&str_field(j, "better")?).ok_or("bad `better`")?,
            bound: match j.get("bound") {
                Some(b) => Some(b.as_f64().ok_or("`bound` is not a number")?),
                None => None,
            },
            value: num("value")?,
            q1: num("q1")?,
            q3: num("q3")?,
            n: field(j, "n")?.as_u64().ok_or("`n` is not a count")?,
        })
    }
}

/// Everything one workload's run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Whether every check passed.
    pub correct: bool,
    /// Cells run (and checked).
    pub attempted: u64,
    /// Cells whose check failed.
    pub failed: u64,
    /// Timed repetitions (untraced) or passes per layer (traced).
    pub reps: u64,
    /// Memory references per application trace.
    pub refs_per_app: u64,
    /// Simulation worker threads.
    pub workers: u64,
    /// The reported metrics: end-to-end (untraced) or per-layer
    /// (traced), in registry order.
    pub metrics: Vec<Measured>,
    /// Further numbers kept in the envelope only (per-scheme costs,
    /// scheduler figures, `fail_frac`).
    pub detail: Vec<Measured>,
}

impl WorkloadResult {
    /// The metric called `name`, searching `metrics` then `detail`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Measured> {
        self.metrics
            .iter()
            .chain(&self.detail)
            .find(|m| m.name == name)
    }

    fn to_json(&self) -> Json {
        let list = |v: &[Measured]| Json::Arr(v.iter().map(Measured::to_json).collect());
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("reps", Json::U64(self.reps)),
            ("refs_per_app", Json::U64(self.refs_per_app)),
            ("workers", Json::U64(self.workers)),
            ("metrics", list(&self.metrics)),
            ("detail", list(&self.detail)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let count = |k: &str| field(j, k)?.as_u64().ok_or(format!("`{k}` is not a count"));
        let list = |k: &str| -> Result<Vec<Measured>, String> {
            field(j, k)?
                .as_arr()
                .ok_or(format!("`{k}` is not an array"))?
                .iter()
                .map(Measured::from_json)
                .collect()
        };
        Ok(WorkloadResult {
            name: str_field(j, "name")?,
            correct: field(j, "correct")?
                .as_bool()
                .ok_or("`correct` is not a bool")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            reps: count("reps")?,
            refs_per_app: count("refs_per_app")?,
            workers: count("workers")?,
            metrics: list("metrics")?,
            detail: list("detail")?,
        })
    }
}

/// A complete benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Run provenance.
    pub provenance: Provenance,
    /// One entry per workload run.
    pub workloads: Vec<WorkloadResult>,
}

impl BenchResult {
    /// Renders the envelope as indented JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let p = &self.provenance;
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_owned())),
            ("version", Json::U64(VERSION)),
            (
                "provenance",
                Json::obj(vec![
                    ("git_rev", Json::Str(p.git_rev.clone())),
                    ("nproc", Json::U64(p.nproc as u64)),
                    ("seed", Json::U64(p.seed)),
                    ("seconds", Json::U64(p.seconds)),
                    ("quick", Json::Bool(p.quick)),
                    ("trace", Json::Bool(p.trace)),
                ]),
            ),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
        .render_pretty()
    }

    /// Parses an envelope, checking its schema and version.
    ///
    /// # Errors
    ///
    /// A message naming the first problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        if str_field(&j, "schema")? != SCHEMA {
            return Err(format!("not a {SCHEMA} document"));
        }
        let version = field(&j, "version")?.as_u64();
        if version != Some(VERSION) {
            return Err(format!("unsupported version {version:?}"));
        }
        let p = field(&j, "provenance")?;
        let count = |k: &str| field(p, k)?.as_u64().ok_or(format!("`{k}` is not a count"));
        let flag = |k: &str| field(p, k)?.as_bool().ok_or(format!("`{k}` is not a bool"));
        let provenance = Provenance {
            git_rev: str_field(p, "git_rev")?,
            nproc: usize::try_from(count("nproc")?).map_err(|e| e.to_string())?,
            seed: count("seed")?,
            seconds: count("seconds")?,
            quick: flag("quick")?,
            trace: flag("trace")?,
        };
        let workloads = field(&j, "workloads")?
            .as_arr()
            .ok_or("`workloads` is not an array")?
            .iter()
            .map(WorkloadResult::from_json)
            .collect::<Result<_, _>>()?;
        Ok(BenchResult {
            provenance,
            workloads,
        })
    }

    /// The one-line summary printed last: `correct`, `attempted`,
    /// `failed`, and every reported metric with its unit. A single
    /// workload's metrics keep their names; with several workloads each
    /// name is prefixed `<workload>/`.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let prefix = self.workloads.len() > 1;
        let mut metrics = Vec::new();
        for w in &self.workloads {
            for m in &w.metrics {
                let name = if prefix {
                    format!("{}/{}", w.name, m.name)
                } else {
                    m.name.clone()
                };
                let v = Json::obj(vec![
                    ("value", Json::F64(m.value)),
                    ("unit", Json::Str(m.unit.clone())),
                ]);
                metrics.push((name, v));
            }
        }
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            (
                "attempted",
                Json::U64(self.workloads.iter().map(|w| w.attempted).sum()),
            ),
            (
                "failed",
                Json::U64(self.workloads.iter().map(|w| w.failed).sum()),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// Whether every workload passed its checks.
    #[must_use]
    pub fn correct(&self) -> bool {
        !self.workloads.is_empty() && self.workloads.iter().all(|w| w.correct)
    }
}

fn field<'a>(j: &'a Json, k: &str) -> Result<&'a Json, String> {
    j.get(k).ok_or(format!("missing `{k}`"))
}

fn str_field(j: &Json, k: &str) -> Result<String, String> {
    Ok(field(j, k)?
        .as_str()
        .ok_or(format!("`{k}` is not a string"))?
        .to_owned())
}
