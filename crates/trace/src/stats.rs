//! Trace statistics.

use crate::Event;

/// Summary statistics of a trace.
///
/// # Examples
///
/// ```
/// use primecache_trace::{Event, TraceStats};
///
/// let stats: TraceStats = [Event::Work(8), Event::load(0), Event::Store { addr: 64 }]
///     .into_iter()
///     .collect();
/// assert_eq!(stats.loads, 1);
/// assert_eq!(stats.instructions, 10);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total instructions (work + fp work + memory ops + branches).
    pub instructions: u64,
    /// Load events.
    pub loads: u64,
    /// Serializing (dependent) loads.
    pub dependent_loads: u64,
    /// Store events.
    pub stores: u64,
    /// Branch events.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
}

impl TraceStats {
    /// Updates the statistics with one event.
    pub fn observe(&mut self, ev: &Event) {
        self.instructions += ev.instructions();
        match ev {
            Event::Load { dep, .. } => {
                self.loads += 1;
                if *dep {
                    self.dependent_loads += 1;
                }
            }
            Event::Store { .. } => self.stores += 1,
            Event::Branch { mispredict } => {
                self.branches += 1;
                if *mispredict {
                    self.mispredicts += 1;
                }
            }
            Event::Work(_) | Event::FpWork(_) => {}
        }
    }

    /// Memory references (loads + stores).
    #[must_use]
    pub fn memory_refs(&self) -> u64 {
        self.loads + self.stores
    }

    /// Fraction of instructions that reference memory.
    #[must_use]
    pub fn memory_intensity(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.memory_refs() as f64 / self.instructions as f64
        }
    }
}

impl<'a> FromIterator<&'a Event> for TraceStats {
    fn from_iter<T: IntoIterator<Item = &'a Event>>(iter: T) -> Self {
        let mut s = TraceStats::default();
        for ev in iter {
            s.observe(ev);
        }
        s
    }
}

impl FromIterator<Event> for TraceStats {
    fn from_iter<T: IntoIterator<Item = Event>>(iter: T) -> Self {
        let mut s = TraceStats::default();
        for ev in iter {
            s.observe(&ev);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_every_kind() {
        let stats: TraceStats = [
            Event::Work(10),
            Event::load(0),
            Event::chase(64),
            Event::Store { addr: 128 },
            Event::Branch { mispredict: true },
            Event::Branch { mispredict: false },
        ]
        .into_iter()
        .collect();
        assert_eq!(stats.instructions, 10 + 5);
        assert_eq!(stats.loads, 2);
        assert_eq!(stats.dependent_loads, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.branches, 2);
        assert_eq!(stats.mispredicts, 1);
        assert_eq!(stats.memory_refs(), 3);
    }

    #[test]
    fn intensity_of_pure_loads_is_one() {
        let stats: TraceStats = crate::strided(64, 100, 0).collect();
        assert!((stats.memory_intensity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_zeroed() {
        let stats: TraceStats = std::iter::empty::<Event>().collect();
        assert_eq!(stats, TraceStats::default());
        assert_eq!(stats.memory_intensity(), 0.0);
    }
}
