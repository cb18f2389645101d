//! The paper's core contribution: cache index/hash functions based on prime
//! numbers, their fast hardware-implementation models, and the metrics used
//! to analyze hashing pathologies.
//!
//! *"Using Prime Numbers for Cache Indexing to Eliminate Conflict Misses"*
//! (Kharbutli, Irwin, Solihin, Lee — HPCA 2004) proposes two L2 index
//! functions:
//!
//! * **prime modulo** (`H(a) = a mod n_set` with `n_set` prime), and
//! * **prime displacement** (`H(a) = (p·T + x) mod n_set` with `n_set` a
//!   power of two and `p` an odd displacement factor),
//!
//! argues from two metrics — *balance* (Eq. 1) and *concentration* (Eq. 2) —
//! that they resist the pathological behaviour of XOR-style hashing, and
//! shows the prime modulo can be computed with narrow adds instead of an
//! integer division (§3.1).
//!
//! This crate contains:
//!
//! * [`index`] — the [`index::SetIndexer`] trait and every hash function the
//!   paper evaluates (traditional, XOR, prime modulo, prime displacement,
//!   and the per-bank skewed families),
//! * [`hw`] — bit-level models of the hardware schemes: subtract&select,
//!   the iterative linear method (with the Theorem 1 iteration bound), the
//!   polynomial method, the Mersenne fold, the wired-permutation 2039-set
//!   unit of Figs. 3–4, and the TLB-assisted split computation,
//! * [`metrics`] — balance, concentration, sequence invariance and the
//!   uniformity ratio used to classify applications (§4),
//! * [`expr`] — a tiny expression language for user-defined index
//!   functions, compiled once into a hot-path closure and once into the
//!   statically certified model consumed by `primecache-analyze`.
//!
//! # Examples
//!
//! ```
//! use primecache_core::index::{Geometry, HashKind, SetIndexer};
//!
//! let geom = Geometry::new(2048); // 2048 physical sets (the paper's L2)
//! let pmod = HashKind::PrimeModulo.build(geom);
//! assert_eq!(pmod.n_set(), 2039);
//! assert_eq!(pmod.index(2039), 0); // 2039 mod 2039
//! ```

// Beyond the workspace-wide lints: hash/index arithmetic mixes widths
// constantly, so silent truncation here corrupts results rather than
// just looking sloppy.
#![warn(clippy::cast_possible_truncation)]

pub mod expr;
pub mod hw;
pub mod index;
pub mod metrics;
pub mod probe;
