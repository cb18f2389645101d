//! Memory-system configuration (Table 3).

/// DRAM address-mapping policy: how lines map onto channels, banks and
/// rows.
///
/// The paper's related-work section cites the DRAM-side analogue of its
/// own idea — Zhang, Zhu & Zhang's permutation-based page interleaving
/// (\[26\], MICRO 2000), which XORs tag bits into the bank index to break
/// power-of-two bank conflicts. Implementing both lets the reproduction
/// show the same pathology/remedy pair one level down the hierarchy
/// (`ablation_dram_mapping`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramMapping {
    /// Row-linear: consecutive rows walk the banks (the classic layout;
    /// power-of-two strides collide on a single bank).
    RowInterleaved,
    /// Permutation-based (\[26\]): the bank index is XORed with low tag
    /// bits, dispersing power-of-two strides across banks.
    PermutationBased,
}

/// Timing and geometry of the memory back-end, in CPU cycles (1.6 GHz).
///
/// Defaults follow the paper's Table 3: 243-cycle row-miss and 208-cycle
/// row-hit round trips, a split-transaction 8 B/400 MHz bus (a 64-byte line
/// occupies the bus for 8 beats = 32 CPU cycles), and dual-channel DRAM.
/// The bank count and row size are not given by the paper; 8 banks per
/// channel and 4 KB rows are typical for 2003-era DDR and are noted in
/// `DESIGN.md`.
///
/// # Examples
///
/// ```
/// use primecache_mem::MemConfig;
///
/// let cfg = MemConfig::paper_default();
/// assert_eq!(cfg.row_miss_cycles, 243);
/// assert_eq!(cfg.bus_occupancy_cycles(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Round-trip latency on a DRAM row miss (cycles).
    pub row_miss_cycles: u64,
    /// Round-trip latency on a DRAM row hit (cycles).
    pub row_hit_cycles: u64,
    /// Independent DRAM channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row-buffer size per bank, bytes (power of two).
    pub row_bytes: u64,
    /// Transferred line size, bytes.
    pub line_bytes: u64,
    /// Bus width in bytes.
    pub bus_bytes: u64,
    /// CPU cycles per bus beat (1600 MHz / 400 MHz = 4).
    pub cycles_per_beat: u64,
    /// Cycles a bank stays busy servicing a row hit (CAS + burst).
    pub bank_busy_row_hit: u64,
    /// Cycles a bank stays busy servicing a row miss (precharge +
    /// activate + CAS ≈ tRAC = 45 ns = 72 cycles at 1.6 GHz).
    pub bank_busy_row_miss: u64,
    /// How lines map to channels/banks/rows.
    pub mapping: DramMapping,
}

impl MemConfig {
    /// The paper's Table-3 memory system.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            row_miss_cycles: 243,
            row_hit_cycles: 208,
            channels: 2,
            banks_per_channel: 8,
            row_bytes: 4096,
            line_bytes: 64,
            bus_bytes: 8,
            cycles_per_beat: 4,
            bank_busy_row_hit: 24,
            bank_busy_row_miss: 72,
            mapping: DramMapping::RowInterleaved,
        }
    }

    /// The same machine with permutation-based bank interleaving (\[26\]).
    #[must_use]
    pub fn with_permutation_mapping(mut self) -> Self {
        self.mapping = DramMapping::PermutationBased;
        self
    }

    /// CPU cycles one line transfer occupies the bus.
    #[must_use]
    pub fn bus_occupancy_cycles(&self) -> u64 {
        self.line_bytes.div_ceil(self.bus_bytes) * self.cycles_per_beat
    }

    /// Total banks across channels.
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.channels * self.banks_per_channel
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values() {
        let c = MemConfig::paper_default();
        assert_eq!(c.row_hit_cycles, 208);
        assert_eq!(c.channels, 2);
        // 64-B line over an 8-B 400 MHz bus at 1.6 GHz: 8 beats x 4 = 32.
        assert_eq!(c.bus_occupancy_cycles(), 32);
        assert_eq!(c.total_banks(), 16);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(MemConfig::default(), MemConfig::paper_default());
    }
}
