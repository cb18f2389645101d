//! Event-driven DRAM + bus model.

#[cfg(feature = "obs")]
use primecache_obs::ObsHandle;

use crate::MemConfig;

/// Result of one memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Cycle the data round trip completes.
    pub complete: u64,
    /// Observed latency from issue (includes queueing).
    pub latency: u64,
    /// Whether the request hit an open DRAM row.
    pub row_hit: bool,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read requests serviced.
    pub reads: u64,
    /// Write (writeback) requests serviced.
    pub writes: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that opened a new row.
    pub row_misses: u64,
    /// Total queueing cycles (waiting for bank or bus).
    pub queue_cycles: u64,
}

impl DramStats {
    /// Fraction of requests that hit an open row.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Dual-channel DRAM with per-bank open rows and a split-transaction bus.
///
/// Address mapping: line-interleaved across channels, then row-interleaved
/// across banks — consecutive lines alternate channels, and consecutive
/// rows in one channel walk the banks. This is the classic layout that
/// gives streaming workloads high row-hit rates.
///
/// # Examples
///
/// ```
/// use primecache_mem::{Dram, MemConfig};
///
/// let mut dram = Dram::new(MemConfig::paper_default());
/// let c = dram.request(0, 0, false);
/// assert_eq!(c.latency, 243); // cold: every first touch is a row miss
/// ```
#[derive(Debug)]
pub struct Dram {
    config: MemConfig,
    /// Open row per (channel, bank); `u64::MAX` = closed.
    open_rows: Vec<u64>,
    /// Cycle each bank becomes free.
    bank_free: Vec<u64>,
    /// Cycle each channel's bus becomes free.
    bus_free: Vec<u64>,
    stats: DramStats,
    /// Per-request event recorder.
    #[cfg(feature = "obs")]
    obs: Option<ObsHandle>,
}

impl Dram {
    /// Creates the DRAM model.
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        let banks = config.total_banks() as usize;
        Self {
            open_rows: vec![u64::MAX; banks],
            bank_free: vec![0; banks],
            bus_free: vec![0; config.channels as usize],
            stats: DramStats::default(),
            #[cfg(feature = "obs")]
            obs: None,
            config,
        }
    }

    /// Attaches an observability recorder; every request is reported
    /// with its channel, global bank index, row-hit outcome, and
    /// queueing delay.
    #[cfg(feature = "obs")]
    pub fn attach_obs(&mut self, handle: ObsHandle) {
        self.obs = Some(handle);
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Decomposes an address into (channel, global bank index, row).
    fn map(&self, addr: u64) -> (usize, usize, u64) {
        let line = addr / self.config.line_bytes;
        let channel = (line % u64::from(self.config.channels)) as usize;
        let line_in_channel = line / u64::from(self.config.channels);
        let lines_per_row = self.config.row_bytes / self.config.line_bytes;
        let row_linear = line_in_channel / lines_per_row;
        let banks = u64::from(self.config.banks_per_channel);
        let mut bank_in_channel = row_linear % banks;
        let row = row_linear / banks;
        if self.config.mapping == crate::DramMapping::PermutationBased {
            // [26]: XOR low row (page) bits into the bank index so
            // power-of-two strides spread across banks. The row id is
            // untouched, so row locality is preserved.
            bank_in_channel ^= row % banks;
        }
        let bank = channel * self.config.banks_per_channel as usize + bank_in_channel as usize;
        (channel, bank, row)
    }

    /// Issues a request at cycle `now`; returns its completion.
    pub fn request(&mut self, addr: u64, now: u64, write: bool) -> Completion {
        let (channel, bank, row) = self.map(addr);
        let row_hit = self.open_rows[bank] == row;
        self.open_rows[bank] = row;

        let service = if row_hit {
            self.config.row_hit_cycles
        } else {
            self.config.row_miss_cycles
        };
        // Split-transaction bus: the request occupies its bank only for
        // the array access (CAS+burst, or precharge+activate+CAS on a row
        // miss), and the channel bus only for the line transfer at the
        // tail of the round trip. The round-trip `service` latency is
        // longer than either occupancy — it includes controller and
        // interconnect time that pipelines across requests.
        let bus_occ = self.config.bus_occupancy_cycles();
        let bank_busy = if row_hit {
            self.config.bank_busy_row_hit
        } else {
            self.config.bank_busy_row_miss
        };
        let start = now.max(self.bank_free[bank]);
        let tentative_complete = start + service;
        let data_start = tentative_complete
            .saturating_sub(bus_occ)
            .max(self.bus_free[channel]);
        let complete = data_start + bus_occ;
        let queue = complete - now - service;

        self.bank_free[bank] = start + bank_busy;
        self.bus_free[channel] = complete;

        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        self.stats.queue_cycles += queue;
        #[cfg(feature = "obs")]
        if let Some(h) = &self.obs {
            h.borrow_mut()
                .dram_request(channel as u32, bank as u32, row_hit, write, queue);
        }

        Completion {
            complete,
            latency: complete - now,
            row_hit,
        }
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Starts a new measurement epoch: clears statistics and the timing
    /// clocks but *keeps* the open rows — used when a warmup phase ends
    /// and the cycle counter restarts at zero.
    pub fn new_epoch(&mut self) {
        let banks = self.config.total_banks() as usize;
        self.bank_free = vec![0; banks];
        self.bus_free = vec![0; self.config.channels as usize];
        self.stats = DramStats::default();
    }

    /// Resets statistics and timing state (open rows are closed).
    pub fn reset(&mut self) {
        let banks = self.config.total_banks() as usize;
        self.open_rows = vec![u64::MAX; banks];
        self.bank_free = vec![0; banks];
        self.bus_free = vec![0; self.config.channels as usize];
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(MemConfig::paper_default())
    }

    #[test]
    fn cold_access_is_row_miss() {
        let mut d = dram();
        let c = d.request(0, 0, false);
        assert!(!c.row_hit);
        assert_eq!(c.latency, 243);
    }

    #[test]
    fn same_row_hits_after_first_touch() {
        let mut d = dram();
        let a = d.request(0, 0, false);
        // Same channel + row: lines 0 and 2 (line 1 goes to channel 1).
        let b = d.request(128, a.complete, false);
        assert!(b.row_hit);
        assert_eq!(b.latency, 208);
    }

    #[test]
    fn different_rows_same_bank_conflict() {
        let mut d = dram();
        let cfg = *d.config();
        // Two addresses in the same channel and bank but different rows:
        // advance by banks_per_channel rows worth of bytes x channels.
        let stride = cfg.row_bytes * u64::from(cfg.banks_per_channel) * u64::from(cfg.channels);
        let a = d.request(0, 0, false);
        let b = d.request(stride, a.complete, false);
        assert!(!b.row_hit, "same bank, new row must be a row miss");
    }

    #[test]
    fn back_to_back_requests_queue_on_the_bus() {
        let mut d = dram();
        let a = d.request(0, 0, false);
        // Immediately issue to the same channel (line 2): must wait for the
        // first transfer to release the bus.
        let b = d.request(128, 0, false);
        assert!(b.latency > a.latency, "{} vs {}", b.latency, a.latency);
        assert!(d.stats().queue_cycles > 0);
    }

    #[test]
    fn channels_overlap() {
        let mut d = dram();
        let a = d.request(0, 0, false); // channel 0
        let b = d.request(64, 0, false); // channel 1
        assert_eq!(a.latency, 243);
        assert_eq!(b.latency, 243, "different channels must not queue");
    }

    #[test]
    fn stats_track_requests() {
        let mut d = dram();
        d.request(0, 0, false);
        d.request(64, 0, true);
        d.request(128, 300, false);
        assert_eq!(d.stats().reads, 2);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().row_hits + d.stats().row_misses, 3);
        assert!(d.stats().row_hit_rate() > 0.0);
    }

    #[test]
    fn reset_clears_rows() {
        let mut d = dram();
        d.request(0, 0, false);
        d.reset();
        let c = d.request(128, 0, false);
        assert!(!c.row_hit, "reset must close open rows");
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn permutation_mapping_disperses_power_of_two_strides() {
        // Classic bank-conflict stride: one row apart in the same bank
        // under row-interleaving.
        let cfg = MemConfig::paper_default();
        let stride = cfg.row_bytes * u64::from(cfg.banks_per_channel) * u64::from(cfg.channels);
        let serial = {
            let mut d = Dram::new(cfg);
            let mut worst = 0u64;
            for i in 0..16u64 {
                worst = worst.max(d.request(i * stride, 0, false).latency);
            }
            worst
        };
        let permuted = {
            let mut d = Dram::new(cfg.with_permutation_mapping());
            let mut worst = 0u64;
            for i in 0..16u64 {
                worst = worst.max(d.request(i * stride, 0, false).latency);
            }
            worst
        };
        // The floor is the single-channel bus serialization (16 x 32
        // cycles); permutation removes the bank component on top of it.
        assert!(
            (permuted as f64) < serial as f64 * 0.7,
            "permutation must break the bank pileup: {permuted} vs {serial}"
        );
    }

    #[test]
    fn permutation_mapping_is_a_bijection_per_row_region() {
        // No two distinct addresses may alias to the same (bank, row,
        // line-in-row) — checked by counting distinct placements.
        let cfg = MemConfig::paper_default().with_permutation_mapping();
        let d = Dram::new(cfg);
        let mut seen = std::collections::HashSet::new();
        for line in 0..32_768u64 {
            let addr = line * cfg.line_bytes;
            let (ch, bank, row) = d.map(addr);
            let line_in_row = (addr / cfg.line_bytes / u64::from(cfg.channels))
                % (cfg.row_bytes / cfg.line_bytes);
            assert!(
                seen.insert((ch, bank, row, line_in_row)),
                "aliased placement for line {line}"
            );
        }
    }

    #[test]
    fn new_epoch_keeps_open_rows() {
        let mut d = dram();
        d.request(0, 0, false);
        d.new_epoch();
        assert_eq!(d.stats().reads, 0);
        let c = d.request(128, 0, false);
        assert!(c.row_hit, "open row must survive the epoch boundary");
    }

    #[test]
    fn streaming_gets_high_row_hit_rate() {
        let mut d = dram();
        let mut now = 0;
        for i in 0..1000u64 {
            let c = d.request(i * 64, now, false);
            now = c.complete;
        }
        assert!(
            d.stats().row_hit_rate() > 0.9,
            "{}",
            d.stats().row_hit_rate()
        );
    }
}
