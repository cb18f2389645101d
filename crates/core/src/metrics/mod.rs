//! Metrics for analyzing hashing pathologies (§2).
//!
//! The paper analyzes hash functions with two metrics over a sequence of
//! *distinct* block addresses:
//!
//! * **balance** (Eq. 1) — how evenly addresses distribute over the sets,
//!   1.0 being ideal; and
//! * **concentration** (Eq. 2) — the standard deviation of the distances
//!   between consecutive accesses to the same set, 0.0 being ideal.
//!
//! Ideal concentration requires both ideal balance *and* sequence
//! invariance (Property 2), checked by
//! [`invariance::violation_fraction`]. Applications are classified as
//! uniform/non-uniform by the ratio `stdev(f)/mean(f)` over per-set access
//! frequencies ([`uniformity::uniformity_ratio`], §4).

mod balance;
mod concentration;
pub mod invariance;
mod online;
pub mod uniformity;

pub use balance::{balance, balance_of_counts};
pub use concentration::concentration;
pub use invariance::violation_fraction;
pub use online::OnlineMetrics;
pub use uniformity::{is_non_uniform, uniformity_ratio, NON_UNIFORM_THRESHOLD};

use crate::index::SetIndexer;

/// Histogram of set accesses produced by running an address sequence
/// through an indexer.
///
/// # Examples
///
/// ```
/// use primecache_core::index::{Geometry, Traditional};
/// use primecache_core::metrics::set_histogram;
///
/// let idx = Traditional::new(Geometry::new(16));
/// let h = set_histogram(&idx, (0..32u64).map(|i| i * 16));
/// assert_eq!(h[0], 32); // power-of-two stride: everything in set 0
/// ```
#[must_use]
pub fn set_histogram<I, A>(indexer: &I, addrs: A) -> Vec<u64>
where
    I: SetIndexer + ?Sized,
    A: IntoIterator<Item = u64>,
{
    let mut counts = vec![0u64; usize::try_from(indexer.n_set()).expect("set count fits usize")];
    for a in addrs {
        counts[usize::try_from(indexer.index(a)).expect("set index fits usize")] += 1;
    }
    counts
}

/// Generates the strided block-address sequence `0, s, 2s, …` of length `m`
/// used throughout §5.1 (each address distinct for `s >= 1` while
/// `(m - 1)·s` fits in a `u64`).
#[must_use]
pub fn strided_addresses(stride: u64, m: usize) -> Vec<u64> {
    (0..m as u64).map(|i| i * stride).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Geometry, Traditional};

    #[test]
    fn histogram_counts_every_access() {
        let idx = Traditional::new(Geometry::new(64));
        let h = set_histogram(&idx, 0..1000u64);
        assert_eq!(h.iter().sum::<u64>(), 1000);
        assert_eq!(h.len(), 64);
    }

    #[test]
    fn strided_addresses_are_distinct() {
        let addrs = strided_addresses(7, 100);
        let set: std::collections::HashSet<u64> = addrs.iter().copied().collect();
        assert_eq!(set.len(), 100);
        assert_eq!(addrs[1], 7);
    }
}
