//! The registry of all 23 application models.

use primecache_trace::{EncodedTrace, Event, TraceEncoder};

use crate::util::{push_chunks, TraceSink, STREAM_CHUNK};
use crate::{grid, md, nas, pointer, sparse, spec_int};

/// One application model: a named deterministic trace generator plus the
/// uniformity class the paper reports for it (§4).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Benchmark name as used in the paper's figures.
    pub name: &'static str,
    /// Suite the original benchmark came from.
    pub suite: &'static str,
    /// Whether the paper classifies it as non-uniform (stdev/mean > 0.5).
    pub expected_non_uniform: bool,
    generator: fn(&mut TraceSink),
}

impl Workload {
    /// Collects the chunks [`Workload::push_chunks`] pushes into one
    /// trace with at least `target_refs` memory references.
    ///
    /// Peak memory is linear in trace length; prefer
    /// [`Workload::push_chunks`] for large reference counts.
    #[must_use]
    pub fn trace(&self, target_refs: u64) -> Vec<Event> {
        let mut events = Vec::new();
        self.push_chunks(target_refs, &mut |chunk| events.extend_from_slice(chunk));
        events
    }

    /// Runs the generator on the calling thread and hands `consume` its
    /// events one chunk at a time, as each [`STREAM_CHUNK`]-event buffer
    /// fills (the last chunk may be shorter; none is empty). Peak memory
    /// is that one buffer, whatever `target_refs` is. Every other way of
    /// producing a workload's events consumes this push.
    pub fn push_chunks(&self, target_refs: u64, consume: &mut dyn FnMut(&[Event])) {
        push_chunks(self.generator, target_refs, consume);
    }

    /// Encodes the chunks [`Workload::push_chunks`] pushes, on the
    /// calling thread, into a compact delta/varint [`EncodedTrace`] that
    /// can be replayed any number of times ([`EncodedTrace::replay`]) —
    /// the generate-once path behind trace files and recorded runs. The
    /// encoder cuts a chunk every [`STREAM_CHUNK`] events, so each encoded
    /// chunk holds one pushed chunk and a replay pushes the live chunks.
    #[must_use]
    pub fn record(&self, target_refs: u64) -> EncodedTrace {
        let mut encoder = TraceEncoder::new(STREAM_CHUNK);
        self.push_chunks(target_refs, &mut |chunk| encoder.push_slice(chunk));
        encoder.finish()
    }
}

/// All 23 workloads, in the paper's §4 listing order.
#[must_use]
pub fn all() -> &'static [Workload] {
    const ALL: &[Workload] = &[
        Workload {
            name: "bzip2",
            suite: "SPECint2000",
            expected_non_uniform: false,
            generator: spec_int::bzip2,
        },
        Workload {
            name: "gap",
            suite: "SPECint2000",
            expected_non_uniform: false,
            generator: spec_int::gap,
        },
        Workload {
            name: "mcf",
            suite: "SPECint2000",
            expected_non_uniform: true,
            generator: spec_int::mcf,
        },
        Workload {
            name: "parser",
            suite: "SPECint2000",
            expected_non_uniform: false,
            generator: spec_int::parser,
        },
        Workload {
            name: "applu",
            suite: "SPECfp2000",
            expected_non_uniform: false,
            generator: grid::applu,
        },
        Workload {
            name: "mgrid",
            suite: "SPECfp2000",
            expected_non_uniform: false,
            generator: grid::mgrid,
        },
        Workload {
            name: "swim",
            suite: "SPECfp2000",
            expected_non_uniform: false,
            generator: grid::swim,
        },
        Workload {
            name: "equake",
            suite: "SPECfp2000",
            expected_non_uniform: false,
            generator: sparse::equake,
        },
        Workload {
            name: "tomcatv",
            suite: "SPECfp95",
            expected_non_uniform: false,
            generator: grid::tomcatv,
        },
        Workload {
            name: "mst",
            suite: "Olden",
            expected_non_uniform: false,
            generator: pointer::mst,
        },
        Workload {
            name: "bt",
            suite: "NAS",
            expected_non_uniform: true,
            generator: grid::bt,
        },
        Workload {
            name: "ft",
            suite: "NAS",
            expected_non_uniform: true,
            generator: nas::ft,
        },
        Workload {
            name: "lu",
            suite: "NAS",
            expected_non_uniform: false,
            generator: nas::lu,
        },
        Workload {
            name: "is",
            suite: "NAS",
            expected_non_uniform: false,
            generator: nas::is,
        },
        Workload {
            name: "sp",
            suite: "NAS",
            expected_non_uniform: true,
            generator: grid::sp,
        },
        Workload {
            name: "cg",
            suite: "NAS",
            expected_non_uniform: true,
            generator: sparse::cg,
        },
        Workload {
            name: "sparse",
            suite: "SparseBench",
            expected_non_uniform: false,
            generator: sparse::sparse,
        },
        Workload {
            name: "tree",
            suite: "Univ. of Hawaii",
            expected_non_uniform: true,
            generator: pointer::tree,
        },
        Workload {
            name: "irr",
            suite: "CFD kernel",
            expected_non_uniform: true,
            generator: sparse::irr,
        },
        Workload {
            name: "charmm",
            suite: "MD",
            expected_non_uniform: false,
            generator: md::charmm,
        },
        Workload {
            name: "moldyn",
            suite: "MD kernel",
            expected_non_uniform: false,
            generator: md::moldyn,
        },
        Workload {
            name: "nbf",
            suite: "GROMOS",
            expected_non_uniform: false,
            generator: md::nbf,
        },
        Workload {
            name: "euler",
            suite: "NASA",
            expected_non_uniform: false,
            generator: grid::euler,
        },
    ];
    ALL
}

/// Looks up a workload by its paper name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    all().iter().find(|w| w.name == name)
}

/// Names of the non-uniform applications, as the paper lists them (§4):
/// "bt, cg, ft, irr, mcf, sp, and tree".
#[must_use]
pub fn non_uniform_names() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = all()
        .iter()
        .filter(|w| w.expected_non_uniform)
        .map(|w| w.name)
        .collect();
    v.sort_unstable();
    v
}

/// Names of the uniform applications.
#[must_use]
pub fn uniform_names() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = all()
        .iter()
        .filter(|w| !w.expected_non_uniform)
        .map(|w| w.name)
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_three_workloads() {
        assert_eq!(all().len(), 23);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 23);
    }

    #[test]
    fn paper_non_uniform_set() {
        // §4: "30% of them (7 benchmarks) are non-uniform: bt, cg, ft,
        // irr, mcf, sp, and tree."
        assert_eq!(
            non_uniform_names(),
            ["bt", "cg", "ft", "irr", "mcf", "sp", "tree"]
        );
        assert_eq!(uniform_names().len(), 16);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("swim").is_some());
        assert!(by_name("doom").is_none());
        assert_eq!(by_name("mcf").unwrap().suite, "SPECint2000");
    }

    #[test]
    fn every_workload_generates_memory_refs() {
        for w in all() {
            let trace = w.trace(1_000);
            let refs = trace.iter().filter(|e| e.is_memory()).count();
            assert!(refs >= 1_000, "{}: {refs}", w.name);
        }
    }

    #[test]
    fn recorded_trace_matches_the_pushed_events() {
        fn tiny(t: &mut TraceSink) {
            let mut g = crate::Lcg::new(99);
            while !t.done() {
                t.load(g.below(1 << 20) * 64);
                t.work(3);
                t.branch(g.chance(1, 10));
            }
        }
        let w = Workload {
            name: "tiny",
            suite: "test",
            expected_non_uniform: false,
            generator: tiny,
        };
        let recorded = w.record(40_000);
        let buffered = w.trace(40_000);
        assert_eq!(recorded.decode_all().unwrap(), buffered);
        assert_eq!(recorded.events(), buffered.len() as u64);
        assert_eq!(recorded.refs(), 40_000);
        // Chunk boundaries mirror the live push path's STREAM_CHUNK.
        assert_eq!(recorded.chunk_events(), STREAM_CHUNK);
        // The compactness target the format exists for.
        assert!(
            recorded.bytes_per_event() < 5.0,
            "{} B/event",
            recorded.bytes_per_event()
        );
    }

    #[test]
    fn every_workload_pushes_memory_refs() {
        for w in all() {
            let mut refs = 0;
            w.push_chunks(1_000, &mut |c| {
                refs += c.iter().filter(|e| e.is_memory()).count();
            });
            assert!(refs >= 1_000, "{}: {refs}", w.name);
        }
    }
}
