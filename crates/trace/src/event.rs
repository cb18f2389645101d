//! Trace events.

/// One event of a trace-driven simulation.
///
/// Memory addresses are byte addresses. A load's `dep` flag marks it as
/// *serializing*: the next event cannot issue until the load's data
/// returns. Pointer-chasing codes (mcf, mst, tree) set it; vectorizable
/// strided codes leave it clear, letting the timing model overlap misses
/// up to its pending-load limit (the machine's MLP).
///
/// # Examples
///
/// ```
/// use primecache_trace::Event;
///
/// let chase = Event::Load { addr: 0x1000, dep: true };
/// assert!(chase.is_memory());
/// assert_eq!(Event::Work(10).instructions(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `n` non-memory instructions (integer/address mix, issue-width
    /// limited only).
    Work(u32),
    /// `n` floating-point instructions, limited by the FP functional
    /// units (4 per cycle in the paper's Table 3).
    FpWork(u32),
    /// A conditional branch; mispredictions pay the pipeline penalty.
    Branch {
        /// Whether the branch was mispredicted.
        mispredict: bool,
    },
    /// A load from `addr`.
    Load {
        /// Byte address.
        addr: u64,
        /// Serializing (address-dependent) load.
        dep: bool,
    },
    /// A store to `addr`.
    Store {
        /// Byte address.
        addr: u64,
    },
}

impl Event {
    /// Convenience: an independent (overlappable) load.
    #[must_use]
    pub fn load(addr: u64) -> Self {
        Event::Load { addr, dep: false }
    }

    /// Convenience: a serializing (pointer-chase) load.
    #[must_use]
    pub fn chase(addr: u64) -> Self {
        Event::Load { addr, dep: true }
    }

    /// Returns `true` for loads and stores.
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(self, Event::Load { .. } | Event::Store { .. })
    }

    /// The memory address, if this is a memory event.
    #[must_use]
    pub fn addr(&self) -> Option<u64> {
        match self {
            Event::Load { addr, .. } | Event::Store { addr } => Some(*addr),
            _ => None,
        }
    }

    /// Instructions this event represents (memory ops and branches count
    /// as one instruction each).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        match self {
            Event::Work(n) | Event::FpWork(n) => u64::from(*n),
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Event::load(1).is_memory());
        assert!(Event::Store { addr: 2 }.is_memory());
        assert!(!Event::Work(5).is_memory());
        assert!(!Event::Branch { mispredict: true }.is_memory());
    }

    #[test]
    fn addr_extraction() {
        assert_eq!(Event::load(42).addr(), Some(42));
        assert_eq!(Event::Store { addr: 7 }.addr(), Some(7));
        assert_eq!(Event::Work(1).addr(), None);
    }

    #[test]
    fn instruction_counting() {
        assert_eq!(Event::Work(100).instructions(), 100);
        assert_eq!(Event::FpWork(40).instructions(), 40);
        assert_eq!(Event::load(0).instructions(), 1);
        assert_eq!(Event::Branch { mispredict: false }.instructions(), 1);
    }

    #[test]
    fn chase_sets_dep() {
        assert!(matches!(Event::chase(9), Event::Load { dep: true, .. }));
        assert!(matches!(Event::load(9), Event::Load { dep: false, .. }));
    }
}
