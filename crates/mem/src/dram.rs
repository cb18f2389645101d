//! Event-driven DRAM + bus model.

use primecache_core::index::FastMod;
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
    /// Reciprocals of the address-map divisors, built once so a request
    /// divides by nothing.
    div: MapDivisors,
    /// [`MemConfig::bus_occupancy_cycles`], computed once.
    bus_occ: u64,
    /// Open row per (channel, bank); `u64::MAX` = closed.
    open_rows: Vec<u64>,
    /// Cycle each bank becomes free.
    bank_free: Vec<u64>,
    /// Cycle each channel's bus becomes free.
    bus_free: Vec<u64>,
    stats: DramStats,
    /// Per-request event recorder.
    obs: Option<ObsHandle>,
}

/// The address map's divisors: line size, channels, lines per row and
/// banks per channel.
#[derive(Debug, Clone, Copy)]
struct MapDivisors {
    line: FastMod,
    channels: FastMod,
    lines_per_row: FastMod,
    banks: FastMod,
}

/// A reciprocal for the config field `name`, which must be nonzero.
fn divisor(name: &str, d: u64) -> FastMod {
    assert!(d > 0, "MemConfig::{name} must be nonzero");
    FastMod::new(d)
}

impl Dram {
    /// Creates the DRAM model.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if `line_bytes`, `bus_bytes`,
    /// `channels` or `banks_per_channel` is zero, if `row_bytes` holds
    /// no whole line, or if the permutation mapping is asked of a bank
    /// count that is not a power of two (\[26\] permutes bank-index
    /// bits; any other count would XOR a bank outside its channel).
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        assert!(config.bus_bytes > 0, "MemConfig::bus_bytes must be nonzero");
        assert!(
            config.row_bytes >= config.line_bytes,
            "MemConfig::row_bytes ({}) must hold at least one line ({} bytes)",
            config.row_bytes,
            config.line_bytes
        );
        assert!(
            config.mapping != crate::DramMapping::PermutationBased
                || config.banks_per_channel.is_power_of_two(),
            "permutation mapping needs a power-of-two banks_per_channel, got {}",
            config.banks_per_channel
        );
        // Fields evaluate in order: `line_bytes` is known nonzero before
        // it divides `row_bytes`.
        let div = MapDivisors {
            line: divisor("line_bytes", config.line_bytes),
            channels: divisor("channels", u64::from(config.channels)),
            lines_per_row: FastMod::new(config.row_bytes / config.line_bytes),
            banks: divisor("banks_per_channel", u64::from(config.banks_per_channel)),
        };
        let banks = config.total_banks() as usize;
        Self {
            div,
            bus_occ: config.bus_occupancy_cycles(),
            open_rows: vec![u64::MAX; banks],
            bank_free: vec![0; banks],
            bus_free: vec![0; config.channels as usize],
            stats: DramStats::default(),
            obs: None,
            config,
        }
    }

    /// Attaches an observability recorder; every request is reported
    /// with its channel, global bank index, row-hit outcome, and
    /// queueing delay.
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
        let line = self.div.line.quotient(addr);
        let (line_in_channel, channel) = self.div.channels.div_rem(line);
        let row_linear = self.div.lines_per_row.quotient(line_in_channel);
        let (row, mut bank_in_channel) = self.div.banks.div_rem(row_linear);
        if self.config.mapping == crate::DramMapping::PermutationBased {
            // [26]: XOR low row (page) bits into the bank index so
            // power-of-two strides spread across banks. The row id is
            // untouched, so row locality is preserved.
            bank_in_channel ^= self.div.banks.reduce(row);
        }
        let bank =
            channel as usize * self.config.banks_per_channel as usize + bank_in_channel as usize;
        (channel as usize, bank, row)
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
        let bus_occ = self.bus_occ;
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
    #[should_panic(expected = "permutation mapping needs a power-of-two banks_per_channel, got 6")]
    fn permutation_mapping_rejects_a_non_power_of_two_bank_count() {
        let cfg = MemConfig {
            banks_per_channel: 6,
            ..MemConfig::paper_default()
        };
        let _ = Dram::new(cfg.with_permutation_mapping());
    }

    #[test]
    #[should_panic(expected = "MemConfig::channels must be nonzero")]
    fn zero_channels_are_rejected() {
        let _ = Dram::new(MemConfig {
            channels: 0,
            ..MemConfig::paper_default()
        });
    }

    #[test]
    #[should_panic(expected = "MemConfig::banks_per_channel must be nonzero")]
    fn zero_banks_are_rejected() {
        let _ = Dram::new(MemConfig {
            banks_per_channel: 0,
            ..MemConfig::paper_default()
        });
    }

    #[test]
    #[should_panic(expected = "MemConfig::row_bytes (32) must hold at least one line (64 bytes)")]
    fn a_row_shorter_than_a_line_is_rejected() {
        let _ = Dram::new(MemConfig {
            row_bytes: 32,
            ..MemConfig::paper_default()
        });
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
