//! Differential-oracle and invariant-checking subsystem.
//!
//! The fast paths in this workspace — hardware modulo units, prime
//! index functions, skewed/victim caches — are exactly the kind of code
//! where a subtle modeling bug silently produces confidently wrong
//! figures. This crate pits every fast path against a deliberately naive
//! reference implementation over randomized and adversarial address
//! streams, and asserts bit-exact agreement.
//!
//! - [`prop`]: dependency-free property-testing harness with shrinking.
//! - [`oracle`]: naive reference implementations (plain `%` indexing,
//!   textbook LRU set-associative lookup, straight-line DRAM latency,
//!   the CPU timing rules restated with plain `/` and `Vec` scans, the
//!   whole machine composed from them, the `&str` text-trace parser over
//!   a whole input split at newlines).
//! - [`battery`]: the differential battery run by the `primecache-check`
//!   binary and the crate tests.

pub mod battery;
pub mod oracle;
pub mod prop;

pub use battery::{run_battery, BatteryConfig, UnitReport};
