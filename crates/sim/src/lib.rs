//! Experiment framework: machine configuration, cache-hashing schemes, run
//! drivers, and the per-table/per-figure experiments of the paper's §5.
//!
//! The public surface mirrors the paper's evaluation:
//!
//! * [`Scheme`] — the eight cache configurations compared (Base, 8-way,
//!   XOR, pMod, pDisp, SKW, skw+pDisp, FA),
//! * [`run_workload`] — one (workload, scheme) simulation returning the
//!   execution breakdown and cache statistics,
//! * [`suite`] — the full 23-application sweep with parallel fan-out and
//!   the Table-4 summary,
//! * [`experiments`] — data producers for every figure (5 through 13) and
//!   table, each returning plain data structures the bench binaries print,
//! * [`report`] — text-table rendering.
//!
//! # Examples
//!
//! ```
//! use primecache_sim::{run_workload, Scheme};
//! use primecache_workloads::by_name;
//!
//! let tree = by_name("tree").unwrap();
//! let base = run_workload(tree, Scheme::Base, 50_000);
//! let pmod = run_workload(tree, Scheme::PrimeModulo, 50_000);
//! assert!(pmod.l2.misses < base.l2.misses);
//! ```

pub mod artifact;
mod config;
pub mod experiments;
pub mod export;
#[cfg(feature = "obs")]
pub mod observe;
pub mod oracle;
pub mod report;
mod run;
pub mod suite;
pub mod tenants;

pub use artifact::{build_report, report_for_run};
pub use config::{MachineConfig, Scheme};
pub use oracle::{static_model, SimOracle, PROBE_BITS};
pub use run::{
    run_chunks, run_recorded, run_trace, run_trace_reference, run_workload, run_workload_warm,
    RunResult,
};
pub use tenants::{run_tenant_mix, tenant_solo_baseline, TenantLane, TenantRun};
