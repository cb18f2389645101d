//! # primecache
//!
//! A full-system Rust reproduction of *"Using Prime Numbers for Cache
//! Indexing to Eliminate Conflict Misses"* (Kharbutli, Irwin, Solihin,
//! Lee — HPCA 2004).
//!
//! This umbrella crate re-exports every subsystem of the reproduction:
//!
//! * [`primes`] — number-theory substrate (primality, prime search,
//!   fragmentation analysis of Table 1),
//! * [`core`] — the paper's contribution: the [`core::index::SetIndexer`]
//!   trait with traditional, XOR, prime-modulo and prime-displacement
//!   indexers, the fast hardware-implementation models of §3.1, and the
//!   balance/concentration metrics of §2,
//! * [`cache`] — set-associative, skewed-associative and fully-associative
//!   cache simulators with the replacement policies of §5.3,
//! * [`mem`] — the DRAM/bus timing back-end of Table 3,
//! * [`cpu`] — the trace-driven superscalar timing model,
//! * [`trace`] — trace event types and the synthetic strided generator of
//!   Figures 5/6,
//! * [`workloads`] — synthetic models of the paper's 23 applications,
//!   plus the multi-tenant trace interleaver ([`workloads::TenantMix`]),
//! * [`ingest`] — external trace ingestion: the line-oriented text
//!   importer and `PCTE` frame reader behind `pcache import`
//!   (`TRACE_FORMAT.md` is the normative wire spec),
//! * [`sim`] — the experiment framework that regenerates every table and
//!   figure,
//! * [`analyze`] — the static conflict-miss analyzer: symbolic
//!   GF(2)/residue models of every index function, per-indexer
//!   certificates, and the config lint pass,
//! * [`attack`] — the adversarial counterpart: black-box recovery of
//!   index functions from conflict probes, the recovered-vs-static
//!   differential oracle, and eviction-set construction cost,
//! * [`obs`] — the observability layer: typed metrics, event tracing,
//!   and the self-describing [`obs::RunReport`] artifact (see
//!   `OBSERVABILITY.md`).
//!
//! # Quickstart
//!
//! ```
//! use primecache::cache::{Cache, CacheConfig, CacheSim, ReplacementKind};
//! use primecache::core::index::HashKind;
//!
//! // The paper's L2: 512 KB, 4-way, 64-B lines, prime-modulo indexed.
//! let config = CacheConfig::new(512 * 1024, 4, 64)
//!     .with_hash(HashKind::PrimeModulo)
//!     .with_replacement(ReplacementKind::Lru);
//! let mut l2 = Cache::new(config);
//!
//! // Strided accesses that would all conflict under traditional indexing.
//! for i in 0..10_000u64 {
//!     l2.access(i * 128 * 1024, /*write=*/ false);
//! }
//! assert!(l2.stats().misses > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use primecache_analyze as analyze;
pub use primecache_attack as attack;
pub use primecache_cache as cache;
pub use primecache_core as core;
pub use primecache_cpu as cpu;
pub use primecache_ingest as ingest;
pub use primecache_mem as mem;
pub use primecache_obs as obs;
pub use primecache_primes as primes;
pub use primecache_sim as sim;
pub use primecache_trace as trace;
pub use primecache_workloads as workloads;
