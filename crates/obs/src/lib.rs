//! Observability layer: typed metrics, event tracing, and self-describing
//! run-report artifacts.
//!
//! The paper's whole argument is *attribution* — splitting misses into
//! conflict vs. capacity/compulsory (§4, Figs. 5–7) and execution time
//! into Busy / Other Stalls / Memory Stall (Fig. 8). This crate is how
//! the simulator exposes those attributions as first-class, machine-
//! readable signals instead of end-of-run prints:
//!
//! * [`Metrics`] — a registry of typed counters / gauges / histograms
//!   with names, units, and help text (per-level miss counts, per-set
//!   eviction histograms, DRAM row-hit and bank-wait totals, ROB-stall
//!   attribution, streaming back-pressure),
//! * [`Recorder`] + [`ObsHandle`] — the hot-path hook the cache
//!   hierarchy, DRAM model, and CPU share during one run; counters are
//!   plain field increments, and event tracing goes through a bounded
//!   [`RingBuffer`] with a runtime sampling knob ([`ObsConfig`]),
//! * [`ObsEvent`] / [`EventSink`] — sim-time-stamped trace events
//!   (cache accesses, evictions, DRAM bank activity, sweep-task
//!   scheduling) with pluggable sinks: [`JsonlSink`] for files,
//!   [`MemorySink`] for tests,
//! * [`RunReport`] — a versioned JSON artifact carrying provenance
//!   (config hash, workload, git revision, wall/sim time) plus the full
//!   metric dump, so every regenerated figure is reproducible from the
//!   artifact alone,
//! * [`Json`] — the hand-rolled JSON model (writer *and* parser) all of
//!   the above serialize through; the workspace has no external
//!   dependencies.
//!
//! Simulator crates depend on this one only under their `obs` cargo
//! feature, and every instrumented structure holds an
//! `Option<ObsHandle>`: with the feature off the code does not exist,
//! and with the feature on but nothing attached the cost is one branch
//! per access. See `OBSERVABILITY.md` at the repo root for the metric
//! and event reference.

pub mod events;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;

pub use events::{EventKind, EventSink, JsonlSink, Level, MemorySink, ObsEvent, RingBuffer};
pub use json::{Json, JsonError};
pub use metrics::{Histogram, Metric, MetricValue, Metrics};
pub use recorder::{HotCounters, ObsConfig, ObsHandle, Recorder};
pub use report::{
    fnv1a_64, git_revision, BreakdownSummary, CacheSummary, DramSummary, Provenance, RunReport,
    RUN_REPORT_SCHEMA, RUN_REPORT_VERSION,
};
