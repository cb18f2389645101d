//! Typed metric registry: named counters, gauges, and histograms.
//!
//! Metric names are dotted paths (`cache.l2.demand_misses`), each with a
//! unit and one-line help string so a report artifact explains itself.
//! The registry is *not* on the simulation hot path: it is filled once,
//! at end of run, from the run's own statistics plus the recorder's
//! eviction counts (`primecache_sim::observe`). `OBSERVABILITY.md`
//! documents every name this workspace emits.

use std::collections::BTreeMap;

use crate::json::Json;

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are inclusive upper bucket edges; one overflow bucket counts
/// samples above the last edge. Sum/min/max are tracked exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given inclusive upper edges
    /// (must be strictly increasing).
    #[must_use]
    pub fn new(bounds: Vec<u64>) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "edges must ascend");
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// `(inclusive upper edge, count)` pairs; the final pair has edge
    /// `None` (overflow bucket).
    pub fn buckets(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bounds.get(i).copied(), c))
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::U64(self.count)),
            ("sum", Json::U64(self.sum)),
            ("min", self.min().map_or(Json::Null, Json::U64)),
            ("max", self.max().map_or(Json::Null, Json::U64)),
            (
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| Json::U64(b)).collect()),
            ),
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::U64(c)).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Histogram, String> {
        let u64s = |key: &str| -> Result<Vec<u64>, String> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("histogram: missing array {key:?}"))?
                .iter()
                .map(|x| x.as_u64().ok_or_else(|| format!("histogram: bad {key:?}")))
                .collect()
        };
        let bounds = u64s("bounds")?;
        let counts = u64s("counts")?;
        if counts.len() != bounds.len() + 1 {
            return Err("histogram: counts/bounds length mismatch".into());
        }
        let count = field_u64(v, "count")?;
        Ok(Histogram {
            bounds,
            counts,
            count,
            sum: field_u64(v, "sum")?,
            min: v.get("min").and_then(Json::as_u64).unwrap_or(u64::MAX),
            max: v.get("max").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

/// The value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count of discrete occurrences.
    Counter(u64),
    /// Point-in-time measurement (rates, fractions, seconds).
    Gauge(f64),
    /// Distribution of `u64` samples.
    Histogram(Histogram),
}

/// A named metric: value plus self-describing unit and help text.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The observed value.
    pub value: MetricValue,
    /// Unit string (`"refs"`, `"cycles"`, `"fraction"`, ...).
    pub unit: String,
    /// One-line human description.
    pub help: String,
}

/// An ordered registry of named metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: BTreeMap<String, Metric>,
}

impl Metrics {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Sets (or overwrites) a counter.
    pub fn set_counter(&mut self, name: &str, unit: &str, help: &str, v: u64) {
        self.insert(name, unit, help, MetricValue::Counter(v));
    }

    /// Sets (or overwrites) a gauge.
    pub fn set_gauge(&mut self, name: &str, unit: &str, help: &str, v: f64) {
        self.insert(name, unit, help, MetricValue::Gauge(v));
    }

    /// Sets (or overwrites) a histogram.
    pub fn set_histogram(&mut self, name: &str, unit: &str, help: &str, h: Histogram) {
        self.insert(name, unit, help, MetricValue::Histogram(h));
    }

    fn insert(&mut self, name: &str, unit: &str, help: &str, value: MetricValue) {
        self.entries.insert(
            name.to_owned(),
            Metric {
                value,
                unit: unit.to_owned(),
                help: help.to_owned(),
            },
        );
    }

    /// Counter value by name, if present and a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Histogram by name, if present and a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match &self.entries.get(name)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Iterates `(name, metric)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics registered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metrics are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the registry as a JSON object keyed by metric name.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(name, m)| {
                    let (kind, value) = match &m.value {
                        MetricValue::Counter(v) => ("counter", Json::U64(*v)),
                        MetricValue::Gauge(v) => ("gauge", Json::F64(*v)),
                        MetricValue::Histogram(h) => ("histogram", h.to_json()),
                    };
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("type", Json::Str(kind.to_owned())),
                            ("unit", Json::Str(m.unit.clone())),
                            ("help", Json::Str(m.help.clone())),
                            ("value", value),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Reconstructs a registry from the [`Metrics::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed entry.
    pub fn from_json(v: &Json) -> Result<Metrics, String> {
        let members = v.as_obj().ok_or("metrics: expected an object")?;
        let mut out = Metrics::new();
        for (name, m) in members {
            let kind = m
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric {name:?}: missing type"))?;
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let help = m.get("help").and_then(Json::as_str).unwrap_or("");
            let value = m
                .get("value")
                .ok_or_else(|| format!("metric {name:?}: missing value"))?;
            let value = match kind {
                "counter" => MetricValue::Counter(
                    value
                        .as_u64()
                        .ok_or_else(|| format!("metric {name:?}: bad counter"))?,
                ),
                "gauge" => MetricValue::Gauge(
                    value
                        .as_f64()
                        .ok_or_else(|| format!("metric {name:?}: bad gauge"))?,
                ),
                "histogram" => MetricValue::Histogram(Histogram::from_json(value)?),
                other => return Err(format!("metric {name:?}: unknown type {other:?}")),
            };
            out.insert(name, unit, help, value);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(vec![1, 4, 16]);
        for v in [0, 1, 2, 5, 100] {
            h.observe(v);
        }
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(
            buckets,
            vec![(Some(1), 2), (Some(4), 1), (Some(16), 1), (None, 1)]
        );
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 108);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn registry_round_trips_through_json() {
        let mut m = Metrics::new();
        m.set_counter("cache.l1.misses", "refs", "L1 demand misses", 12345);
        m.set_gauge(
            "dram.row_hit_rate",
            "fraction",
            "row-buffer hit rate",
            0.625,
        );
        let mut h = Histogram::new(vec![2, 8]);
        h.observe(1);
        h.observe(9);
        m.set_histogram("cache.l2.evictions_per_set", "evictions", "per-set", h);
        let parsed = Metrics::from_json(&Json::parse(&m.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn typed_lookups_reject_wrong_kind() {
        let mut m = Metrics::new();
        m.set_counter("a", "x", "", 1);
        assert_eq!(m.counter("a"), Some(1));
        assert!(m.histogram("a").is_none());
    }

    #[test]
    fn empty_histogram_serializes_null_extrema() {
        let h = Histogram::new(vec![1]);
        let j = h.to_json();
        assert_eq!(j.get("min"), Some(&Json::Null));
        assert_eq!(Histogram::from_json(&j).unwrap(), h);
    }
}
