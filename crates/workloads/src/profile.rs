//! Structured per-workload profiles: what each model imitates and why it
//! behaves the way it does.

/// The dominant access-pattern class of a workload model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternClass {
    /// Unit-/odd-stride stencil sweeps over grids.
    GridSweep,
    /// Sweeps over several power-of-two-aligned arrays (the bt/sp/ft
    /// conflict generator).
    AlignedMultiArray,
    /// CSR-style streaming with gathers.
    SparseGather,
    /// Dependent pointer chases over heap structures.
    PointerChase,
    /// Hash-table probing.
    HashProbe,
    /// Histogram / counting.
    Histogram,
    /// Blocked dense linear algebra.
    BlockedDense,
    /// Neighbour-list particle gathers.
    NeighborList,
    /// Block-transform compression.
    BlockSort,
}

/// Why a workload does (or does not) conflict under traditional indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictMechanism {
    /// No engineered conflicts: odd strides / packed records.
    None,
    /// More power-of-two-aligned live regions than the cache has ways.
    AlignedRegions,
    /// Structures padded to a power of two; only a fraction of the sets
    /// is ever touched.
    PaddedStructs,
    /// Randomly scattered blocks at ~capacity: Poisson imbalance that
    /// only multiple hash functions absorb.
    ScatteredBlocks,
}

/// A workload's profile: pattern, conflict mechanism and footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Dominant pattern class.
    pub pattern: PatternClass,
    /// Conflict mechanism under traditional indexing.
    pub conflict: ConflictMechanism,
    /// Approximate touched footprint in bytes (order of magnitude).
    pub footprint_bytes: u64,
    /// Whether the trace contains serializing (dependent) loads.
    pub has_dependent_loads: bool,
}

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// Returns the profile for a workload name, if known.
///
/// # Examples
///
/// ```
/// use primecache_workloads::profile::{profile_of, ConflictMechanism};
///
/// let tree = profile_of("tree").unwrap();
/// assert_eq!(tree.conflict, ConflictMechanism::PaddedStructs);
/// assert!(tree.has_dependent_loads);
/// ```
#[must_use]
pub fn profile_of(name: &str) -> Option<Profile> {
    use ConflictMechanism as C;
    use PatternClass as P;
    let p = |pattern, conflict, footprint_bytes, has_dependent_loads| Profile {
        pattern,
        conflict,
        footprint_bytes,
        has_dependent_loads,
    };
    Some(match name {
        "bzip2" => p(P::BlockSort, C::None, 256 * KB, false),
        "gap" => p(P::PointerChase, C::None, 4 * MB, true),
        "mcf" => p(P::PointerChase, C::PaddedStructs, 5 * MB, true),
        "parser" => p(P::HashProbe, C::None, 16 * MB, true),
        "applu" => p(P::GridSweep, C::None, 3 * MB, false),
        "mgrid" => p(P::GridSweep, C::None, 5 * MB, false),
        "swim" => p(P::GridSweep, C::None, 8 * MB, false),
        "equake" => p(P::SparseGather, C::None, 5 * MB, false),
        "tomcatv" => p(P::GridSweep, C::None, 8 * MB, false),
        "mst" => p(P::HashProbe, C::ScatteredBlocks, 640 * KB, true),
        "bt" => p(P::AlignedMultiArray, C::AlignedRegions, 384 * KB, false),
        "ft" => p(P::AlignedMultiArray, C::AlignedRegions, 8 * MB, false),
        "lu" => p(P::BlockedDense, C::None, 5 * MB, false),
        "is" => p(P::Histogram, C::None, MB, false),
        "sp" => p(P::AlignedMultiArray, C::AlignedRegions, 240 * KB, false),
        "cg" => p(P::SparseGather, C::ScatteredBlocks, 700 * KB, false),
        "sparse" => p(P::SparseGather, C::None, 900 * KB, false),
        "tree" => p(P::PointerChase, C::PaddedStructs, 2 * MB, true),
        "irr" => p(P::SparseGather, C::PaddedStructs, 4 * MB, false),
        "charmm" => p(P::NeighborList, C::None, 3 * MB, false),
        "moldyn" => p(P::NeighborList, C::None, 800 * KB, false),
        "nbf" => p(P::NeighborList, C::None, MB, false),
        "euler" => p(P::GridSweep, C::None, 5 * MB, false),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all;
    use primecache_trace::TraceStats;

    #[test]
    fn every_workload_has_a_profile() {
        for w in all() {
            assert!(profile_of(w.name).is_some(), "{} missing", w.name);
        }
        assert!(profile_of("nonexistent").is_none());
    }

    #[test]
    fn conflict_mechanism_matches_classification() {
        // Apps with an engineered conflict mechanism are non-uniform or
        // scattered-block apps; apps with None are uniform. (mst and cg
        // are the scattered-block cases: mst is uniform-histogram, cg
        // non-uniform via its hot head.)
        for w in all() {
            let prof = profile_of(w.name).unwrap();
            match prof.conflict {
                ConflictMechanism::AlignedRegions | ConflictMechanism::PaddedStructs => {
                    assert!(w.expected_non_uniform, "{}", w.name);
                }
                ConflictMechanism::None => {
                    assert!(!w.expected_non_uniform, "{}", w.name);
                }
                ConflictMechanism::ScatteredBlocks => {} // either group
            }
        }
    }

    #[test]
    fn dependent_load_flag_matches_traces() {
        for w in all() {
            let prof = profile_of(w.name).unwrap();
            let stats: TraceStats = w.trace(20_000).iter().collect();
            assert_eq!(
                stats.dependent_loads > 0,
                prof.has_dependent_loads,
                "{}: {} dependent loads",
                w.name,
                stats.dependent_loads
            );
        }
    }

    #[test]
    fn footprints_are_within_an_order_of_magnitude() {
        // Measure the true touched footprint on a long trace and compare
        // to the declared estimate.
        use std::collections::HashSet;
        for w in all() {
            let prof = profile_of(w.name).unwrap();
            let blocks: HashSet<u64> = w
                .trace(300_000)
                .iter()
                .filter_map(|e| e.addr())
                .map(|a| a / 64)
                .collect();
            let measured = blocks.len() as u64 * 64;
            let ratio = measured as f64 / prof.footprint_bytes as f64;
            assert!(
                (0.05..=20.0).contains(&ratio),
                "{}: declared {} bytes, measured {} (ratio {ratio:.2})",
                w.name,
                prof.footprint_bytes,
                measured
            );
        }
    }
}
