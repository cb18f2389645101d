//! The primecache benchmark (`pcbench`).
//!
//! Four workloads drive the simulator through its public functions,
//! closed-loop (one client, repetitions back to back). An untraced run
//! reports end-to-end host-time metrics, rescaled to a reference host
//! speed by a calibration probe; a traced run times nested layer
//! configurations from outside and reports per-layer costs. Every cell
//! is checked against golden results outside the timed region. See
//! `README.md` in this package for the metrics and why each workload is
//! in the set.

pub mod cli;
pub mod compare;
pub mod envelope;
pub mod golden;
pub mod hostspeed;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod stats;
pub mod workloads;
