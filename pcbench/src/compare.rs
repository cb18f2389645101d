//! `--compare A B`: classifies each (workload, metric) of a change `B`
//! against its parent `A` by the metric's own bound.

use crate::envelope::{BenchResult, Measured};
use crate::metrics::Better;

/// The outcome for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Worsened by more than the bound.
    Worse,
    /// Moved by no more than the bound either way.
    Within,
    /// The quartile spread of either side exceeds the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The signed relative change of `change` against `base`, positive when
/// it is worse in the metric's direction.
#[must_use]
pub fn worsening(base: f64, change: f64, better: Better) -> f64 {
    let rel = if base == 0.0 {
        match change.partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Greater) => f64::INFINITY,
            Some(std::cmp::Ordering::Less) => f64::NEG_INFINITY,
            _ => 0.0,
        }
    } else {
        (change - base) / base.abs()
    };
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// Classifies one metric. Unresolved comes first: a spread wider than
/// the bound on either side makes any verdict noise.
#[must_use]
pub fn classify(base: &Measured, change: &Measured, bound: f64) -> Verdict {
    if base.spread().max(change.spread()) > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(base.value, change.value, base.better);
    if w > bound {
        Verdict::Worse
    } else if -w > bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Parent value.
    pub base: f64,
    /// Change value.
    pub change: f64,
    /// Signed worsening (see [`worsening`]).
    pub worsening: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares every bounded metric present in both results, workload by
/// workload, in `a`'s order.
#[must_use]
pub fn compare(a: &BenchResult, b: &BenchResult) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        for ma in wa.metrics.iter().chain(&wa.detail) {
            let (Some(bound), Some(mb)) = (ma.bound, wb.metric(&ma.name)) else {
                continue;
            };
            rows.push(Row {
                workload: wa.name.clone(),
                metric: ma.name.clone(),
                unit: ma.unit.clone(),
                base: ma.value,
                change: mb.value,
                worsening: worsening(ma.value, mb.value, ma.better),
                verdict: classify(ma, mb, bound),
            });
        }
    }
    rows
}
