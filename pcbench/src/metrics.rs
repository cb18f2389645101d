//! The metric registry: every metric the benchmark reports, with its
//! unit, direction and regression bound. `BENCHMARK.json` at the
//! repository root lists the same metrics; a test keeps the two equal.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses [`Better::as_str`]'s output.
    #[must_use]
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One end-to-end metric definition.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, host time, reported per workload by an
/// untraced run.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "refs_per_s",
        unit: "refs/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "cell_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Cells whose result mismatches the golden file, as a share of cells
/// run. Reported in the result envelope with bound 0; it is not an
/// `end_to_end` metric of `BENCHMARK.json` because it is 0 on a correct
/// build (the summary line carries it as `failed` / `attempted`).
pub const FAIL_FRAC: EndToEnd = EndToEnd {
    name: "fail_frac",
    unit: "ratio",
    better: Better::Lower,
    bound: 0.0,
};

/// An end-to-end metric that a change in a layer's cost should move,
/// and the workloads on which it should.
#[derive(Debug, Clone, Copy)]
pub struct Moves {
    /// An [`END_TO_END`] metric name.
    pub metric: &'static str,
    /// Workload names.
    pub workloads: &'static [&'static str],
}

/// One per-layer metric definition (no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// What it should move. Empty for simulated statistics, which the
    /// golden file pins, and for `trace_overhead`.
    pub moves: &'static [Moves],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [Moves],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const fn refs_per_s(workloads: &'static [&'static str]) -> Moves {
    Moves {
        metric: "refs_per_s",
        workloads,
    }
}

const NOTHING: &[Moves] = &[];
const SWEEP: &[&str] = &["paper-sweep"];
const INGEST: &[&str] = &["ingest-tenants"];
const L2_HEAVY: &[&str] = &["miss-storm", "paper-sweep"];
const DECODE_HEAVY: &[&str] = &["l1-resident", "paper-sweep"];

/// The per-layer metrics every traced run reports, whatever its
/// workload, with the layer → end-to-end metric → workload map.
/// Per-scheme L2 costs beyond Base and pMod, and the sweep scheduler
/// metrics of `paper-sweep`, are extra detail in the result envelope.
pub const PER_LAYER: [PerLayer; 23] = [
    layer(
        "workloads.record_ns_per_ref",
        "ns",
        Better::Lower,
        &[
            Moves {
                metric: "setup_s",
                workloads: &["miss-storm", "l1-resident", "ingest-tenants"],
            },
            refs_per_s(SWEEP),
        ],
    ),
    layer(
        "trace.decode_ns_per_ref",
        "ns",
        Better::Lower,
        &[refs_per_s(DECODE_HEAVY)],
    ),
    layer(
        "trace.bytes_per_ref",
        "B",
        Better::Lower,
        &[
            refs_per_s(DECODE_HEAVY),
            Moves {
                metric: "peak_rss_mb",
                workloads: &["l1-resident", "miss-storm"],
            },
        ],
    ),
    layer(
        "ingest.import_ns_per_ref",
        "ns",
        Better::Lower,
        &[refs_per_s(INGEST)],
    ),
    layer(
        "core.index_ns.base",
        "ns",
        Better::Lower,
        &[refs_per_s(L2_HEAVY)],
    ),
    layer(
        "core.index_ns.xor",
        "ns",
        Better::Lower,
        &[refs_per_s(SWEEP)],
    ),
    layer(
        "core.index_ns.pmod",
        "ns",
        Better::Lower,
        &[refs_per_s(L2_HEAVY)],
    ),
    layer(
        "core.index_ns.pdisp",
        "ns",
        Better::Lower,
        &[refs_per_s(SWEEP)],
    ),
    layer(
        "core.index_ns.expr_pmod",
        "ns",
        Better::Lower,
        &[refs_per_s(SWEEP)],
    ),
    layer(
        "cache.l1_ns_per_ref",
        "ns",
        Better::Lower,
        &[
            refs_per_s(DECODE_HEAVY),
            Moves {
                metric: "cell_ms_p50",
                workloads: &["l1-resident"],
            },
        ],
    ),
    layer("cache.l1_miss_rate", "ratio", Better::Lower, NOTHING),
    layer(
        "cache.l2_ns_per_access",
        "ns",
        Better::Lower,
        &[
            refs_per_s(L2_HEAVY),
            Moves {
                metric: "cell_ms_p50",
                workloads: L2_HEAVY,
            },
        ],
    ),
    layer(
        "cache.l2_ns_per_access.base",
        "ns",
        Better::Lower,
        &[refs_per_s(L2_HEAVY)],
    ),
    layer(
        "cache.l2_ns_per_access.pmod",
        "ns",
        Better::Lower,
        &[refs_per_s(L2_HEAVY)],
    ),
    layer("cache.l2_miss_rate", "ratio", Better::Lower, NOTHING),
    layer(
        "mem.dram_ns_per_request",
        "ns",
        Better::Lower,
        &[refs_per_s(&["miss-storm"])],
    ),
    layer("mem.requests_per_ref", "ratio", Better::Lower, NOTHING),
    layer("mem.row_hit_rate", "ratio", Better::Higher, NOTHING),
    layer(
        "cpu.ns_per_ref",
        "ns",
        Better::Lower,
        &[refs_per_s(DECODE_HEAVY)],
    ),
    layer(
        "sim.driver_ns_per_ref",
        "ns",
        Better::Lower,
        &[refs_per_s(&["miss-storm", "l1-resident", "paper-sweep"])],
    ),
    layer(
        "sim.tenant_attribution_ns_per_ref",
        "ns",
        Better::Lower,
        &[refs_per_s(INGEST)],
    ),
    layer(
        "workloads.mix_decode_ns_per_ref",
        "ns",
        Better::Lower,
        &[refs_per_s(INGEST)],
    ),
    layer("trace_overhead", "ratio", Better::Lower, NOTHING),
];

/// A metric-name fragment for a scheme label: lower case, with every
/// character outside `[a-z0-9]` mapped to `_` (`expr:pMod` →
/// `expr_pmod`, `skw+pDisp` → `skw_pdisp`).
#[must_use]
pub fn scheme_key(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}
