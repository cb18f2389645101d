//! Processor configuration (Table 3).

/// First-order parameters of the modelled core.
///
/// Defaults are the paper's Table 3: 6-issue dynamic, 1.6 GHz; pending
/// loads/stores 8/16; 12-cycle branch penalty; L1 3-cycle and L2 16-cycle
/// round trips.
///
/// # Examples
///
/// ```
/// use primecache_cpu::CpuConfig;
///
/// let cfg = CpuConfig::paper_default();
/// assert_eq!(cfg.issue_width, 6);
/// assert_eq!(cfg.branch_penalty, 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions retired per cycle at peak.
    pub issue_width: u32,
    /// Floating-point operations issued per cycle (Table 3: 4 FP FUs).
    pub fp_width: u32,
    /// Memory operations issued per cycle (Table 3: 2 ld/st FUs).
    pub mem_width: u32,
    /// Cycles lost per branch misprediction.
    pub branch_penalty: u64,
    /// Maximum in-flight loads.
    pub max_pending_loads: usize,
    /// Maximum in-flight stores.
    pub max_pending_stores: usize,
    /// L1 hit round trip, cycles (fully pipelined: contributes no stall).
    pub l1_hit_cycles: u64,
    /// L2 hit round trip, cycles.
    pub l2_hit_cycles: u64,
    /// Reorder-buffer capacity in instructions: a load's latency can be
    /// hidden only by up to this many younger instructions (Table 3 does
    /// not list it; 128 is typical for a 2003-era 6-issue core and is
    /// recorded in DESIGN.md).
    pub rob_size: u64,
}

impl CpuConfig {
    /// The paper's Table-3 processor.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            issue_width: 6,
            fp_width: 4,
            mem_width: 2,
            branch_penalty: 12,
            max_pending_loads: 8,
            max_pending_stores: 16,
            l1_hit_cycles: 3,
            l2_hit_cycles: 16,
            rob_size: 128,
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values() {
        let c = CpuConfig::paper_default();
        assert_eq!(c.fp_width, 4);
        assert_eq!(c.mem_width, 2);
        assert_eq!(c.max_pending_loads, 8);
        assert_eq!(c.max_pending_stores, 16);
        assert_eq!(c.l1_hit_cycles, 3);
        assert_eq!(c.l2_hit_cycles, 16);
    }
}
