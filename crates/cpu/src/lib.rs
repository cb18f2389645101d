//! Trace-driven superscalar timing model (the PROCESSOR half of Table 3).
//!
//! The paper drives its caches from an execution-driven model of a 6-issue
//! dynamic superscalar core \[9\]. This crate substitutes a trace-driven
//! cycle-accounting model with the same first-order parameters. The
//! numbers below are the Table-3 defaults of [`CpuConfig`]; every one is
//! a config field.
//!
//! * **Issue (*Busy*).** Up to 6 instructions issue per cycle, of which
//!   at most 4 floating-point and at most 2 loads or stores. Let `N` count
//!   every instruction issued so far, `F` the FP ones and `M` the loads
//!   and stores. After each issue the busy time is raised to
//!   `max(⌊N/6⌋, ⌊F/4⌋, ⌊M/2⌋)` if that is larger, and the clock advances
//!   by the same amount. Fractions carry across events: a lone `Work(5)`
//!   costs 0 busy cycles, `Work(7)` costs 1, and four `Work(3)` cost 2.
//!   A branch issues 1 instruction, a load or store 1 memory instruction.
//! * **Branches (*Other Stalls*).** A mispredict adds 12 cycles to the
//!   clock.
//! * **Loads and stores.** An L1 hit (3-cycle round trip) is fully
//!   pipelined and tracks nothing. Otherwise the access completes at
//!   clock + 16 on an L2 hit; an L2 miss sends a DRAM read to the
//!   [`primecache_mem`] model at clock + 16 and completes when it does.
//!   A dependent (pointer-chase) load stalls the clock to its completion.
//!   An independent load waits first for the oldest in-flight load if 8
//!   are in flight, then joins them. A store waits first for the
//!   earliest-completing in-flight store if 16 are in flight, then joins
//!   them; stores never hold the ROB.
//! * **Retirement and the ROB.** Before each event the core drops
//!   in-flight loads from the oldest while they are complete (program
//!   order) and every complete store. Then, while the oldest in-flight
//!   load has 128 or more instructions issued since its own issue, the
//!   core waits for it, drops it and retires again. `Work(n)` and
//!   `FpWork(n)` issue in chunks of `⌊128/4⌋` instructions (at least 1),
//!   with the same retire and ROB step between chunks.
//! * **Writebacks.** After an access that missed the L1, each dirty L2
//!   victim is written to DRAM at the current clock; nothing waits on it.
//! * **End of run.** The clock advances to the latest completion among
//!   the in-flight loads.
//!
//! Every wait that advances the clock is *Memory Stall*, attributed by
//! cause in [`StallAttribution`]: ROB, in-flight-load limit, dependent
//! load, full store buffer, end-of-run drain.
//!
//! The output is the [`ExecBreakdown`] the paper's Figs. 7–10 plot: Busy /
//! Other Stalls / Memory Stall.
//!
//! # Examples
//!
//! ```
//! use primecache_cache::{Cache, CacheConfig, Hierarchy, HierarchyConfig, L2Organization};
//! use primecache_cpu::{Cpu, CpuConfig};
//! use primecache_mem::{Dram, MemConfig};
//! use primecache_trace::strided;
//!
//! let l2 = CacheConfig::new(512 * 1024, 4, 64);
//! let mut hierarchy = Hierarchy::with_l2(
//!     HierarchyConfig::paper_default(L2Organization::SetAssoc(l2)),
//!     Cache::new(l2),
//! );
//! let mut dram = Dram::new(MemConfig::paper_default());
//! let mut cpu = Cpu::new(CpuConfig::paper_default());
//! let breakdown = cpu.run(strided(64, 10_000, 12), &mut hierarchy, &mut dram);
//! assert!(breakdown.total() > 0);
//! ```

mod breakdown;
mod config;
mod model;

pub use breakdown::ExecBreakdown;
pub use config::CpuConfig;
pub use model::{Cpu, StallAttribution};
