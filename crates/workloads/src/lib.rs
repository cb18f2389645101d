//! Synthetic models of the 23 memory-intensive applications of the paper's
//! evaluation (§4).
//!
//! The paper evaluates on real benchmarks (SPEC2000/95, NAS, Olden,
//! SparseBench, the Hawaii treecode, and several scientific kernels). This
//! crate substitutes each with a deterministic trace generator modelled on
//! the published memory-access structure of that code — grid sweeps,
//! power-of-two FFT strides, CSR sparse gathers, pointer chases over padded
//! heap objects, neighbour-list gathers, histograms. The substitution is
//! faithful in the dimension that matters to the paper: the *set-index
//! distribution* of the L2 access stream and its temporal reuse.
//!
//! The same seven applications the paper lists — `bt`, `cg`, `ft`, `irr`,
//! `mcf`, `sp`, `tree` — are non-uniform under traditional indexing by the
//! §4 criterion (`stdev/mean > 0.5` over per-set accesses), which the test
//! suite verifies end-to-end against the cache simulator.
//!
//! # Examples
//!
//! ```
//! use primecache_workloads::{all, by_name};
//!
//! assert_eq!(all().len(), 23);
//! let tree = by_name("tree").unwrap();
//! assert!(tree.expected_non_uniform);
//! let trace = tree.trace(10_000);
//! assert!(trace.iter().filter(|e| e.is_memory()).count() >= 10_000);
//! ```

mod chunks;
mod grid;
mod md;
mod nas;
mod pointer;
pub mod probe;
pub mod profile;
mod registry;
mod sparse;
mod spec_int;
pub mod tenant;
mod util;

pub use chunks::EventChunks;
pub use registry::{all, by_name, non_uniform_names, uniform_names, Workload};
pub use tenant::{MixConfig, MixCursor, MixStats, TenantMix};
pub use util::{Lcg, TraceSink, STREAM_CHUNK};
