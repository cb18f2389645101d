//! Execution-time breakdown.

/// Cycle breakdown of one simulated run — the three bar segments of the
/// paper's Figs. 7–10.
///
/// # Examples
///
/// ```
/// use primecache_cpu::ExecBreakdown;
///
/// let b = ExecBreakdown { busy: 600, other_stall: 100, mem_stall: 300 };
/// assert_eq!(b.total(), 1000);
/// assert!((b.mem_fraction() - 0.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecBreakdown {
    /// Cycles spent executing instructions (*Busy*).
    pub busy: u64,
    /// Cycles lost to pipeline hazards — branch mispredictions
    /// (*Other Stalls*).
    pub other_stall: u64,
    /// Cycles stalled on memory (*Memory Stall*).
    pub mem_stall: u64,
}

impl ExecBreakdown {
    /// Total execution time in cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.busy + self.other_stall + self.mem_stall
    }

    /// Fraction of time stalled on memory; 0.0 for an empty run.
    #[must_use]
    pub fn mem_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.mem_stall as f64 / t as f64
        }
    }

    /// Execution time normalized to a baseline (my_time / baseline_time),
    /// the y-axis of Figs. 7–10.
    ///
    /// # Panics
    ///
    /// Panics if `baseline.total() == 0`.
    #[must_use]
    pub fn normalized_to(&self, baseline: &ExecBreakdown) -> f64 {
        assert!(baseline.total() > 0, "empty baseline");
        self.total() as f64 / baseline.total() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let b = ExecBreakdown {
            busy: 100,
            other_stall: 50,
            mem_stall: 350,
        };
        assert_eq!(b.total(), 500);
        assert!((b.mem_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn normalization_divides_by_the_baseline() {
        let fast = ExecBreakdown {
            busy: 100,
            other_stall: 0,
            mem_stall: 100,
        };
        let slow = ExecBreakdown {
            busy: 100,
            other_stall: 0,
            mem_stall: 300,
        };
        assert!((fast.normalized_to(&slow) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown() {
        let e = ExecBreakdown::default();
        assert_eq!(e.total(), 0);
        assert_eq!(e.mem_fraction(), 0.0);
    }
}
