//! Golden results: the simulated statistics every timed cell must
//! reproduce, one TSV line per (workload, refs per app, app, scheme).
//!
//! `pcbench --bless` writes the file; every run checks each timed cell
//! against it outside the timed region. A speed-up must leave every
//! simulated statistic identical, so any mismatch is a failed cell.

use std::collections::BTreeMap;

use primecache_sim::RunResult;

/// The committed golden file, embedded at build time.
pub const EMBEDDED: &str = include_str!("../golden/cells.tsv");

/// Path of the golden file inside the benchmark package (for `--bless`).
#[must_use]
pub fn path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/cells.tsv")
}

/// The statistics columns, in file order.
pub const COLUMNS: [&str; 11] = [
    "l1_accesses",
    "l1_misses",
    "l1_writebacks",
    "l2_accesses",
    "l2_misses",
    "l2_writebacks",
    "dram_reads",
    "dram_writes",
    "dram_row_hits",
    "dram_row_misses",
    "cycles",
];

/// One cell's golden statistics.
pub type Values = [u64; 11];

/// The golden statistics of a run result.
#[must_use]
pub fn values_of(r: &RunResult) -> Values {
    [
        r.l1.accesses,
        r.l1.misses,
        r.l1.writebacks,
        r.l2.accesses,
        r.l2.misses,
        r.l2.writebacks,
        r.dram.reads,
        r.dram.writes,
        r.dram.row_hits,
        r.dram.row_misses,
        r.breakdown.total(),
    ]
}

/// Identifies one cell: workload, refs per app, app, scheme label.
pub type Key = (String, u64, String, String);

/// A parsed golden file.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Golden {
    rows: BTreeMap<Key, Values>,
}

impl Golden {
    /// Parses the TSV form; `#` lines are comments.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line (1-based).
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut rows = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| format!("golden line {}: {what}", i + 1);
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 4 + COLUMNS.len() {
                return Err(bad("wrong field count"));
            }
            let refs = f[1].parse().map_err(|_| bad("bad refs"))?;
            let mut values = [0u64; 11];
            for (v, s) in values.iter_mut().zip(&f[4..]) {
                *v = s.parse().map_err(|_| bad("bad value"))?;
            }
            let key = (f[0].to_owned(), refs, f[2].to_owned(), f[3].to_owned());
            if rows.insert(key, values).is_some() {
                return Err(bad("duplicate cell"));
            }
        }
        Ok(Golden { rows })
    }

    /// Adds or replaces one cell.
    pub fn insert(&mut self, workload: &str, refs: u64, app: &str, scheme: &str, v: Values) {
        self.rows.insert(
            (workload.to_owned(), refs, app.to_owned(), scheme.to_owned()),
            v,
        );
    }

    /// Removes every cell of `workload`.
    pub fn clear_workload(&mut self, workload: &str) {
        self.rows.retain(|k, _| k.0 != workload);
    }

    /// Whether `r` reproduces the golden cell exactly; `false` when the
    /// cell has no golden line.
    #[must_use]
    pub fn matches(
        &self,
        workload: &str,
        refs: u64,
        app: &str,
        scheme: &str,
        r: &RunResult,
    ) -> bool {
        let key = (workload.to_owned(), refs, app.to_owned(), scheme.to_owned());
        self.rows.get(&key) == Some(&values_of(r))
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the TSV form with its header.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("# workload\trefs\tapp\tscheme\t{}\n", COLUMNS.join("\t"));
        for ((w, refs, app, scheme), v) in &self.rows {
            let vals: Vec<String> = v.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{w}\t{refs}\t{app}\t{scheme}\t{}\n",
                vals.join("\t")
            ));
        }
        out
    }
}
