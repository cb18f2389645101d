//! The traced run: per-layer costs from nested configurations timed
//! from outside the simulator.
//!
//! For every source trace (an app recording, or the tenant mix of
//! `ingest-tenants`) the run times, as the median of [`PASSES`] passes
//! each under its own span:
//!
//! * recording and decoding of the trace;
//! * an L1-only pass, and each L2 index function over the L1 misses;
//! * per cell: an L1+L2 pass (monomorphized parts, as `run_trace`
//!   builds them), a DRAM pass over that pass's requests in CPU-model
//!   order, `run_trace` over the materialized events, and the cell's
//!   end-to-end call.
//!
//! Text import, mix decode and tenant attribution are timed over the
//! tenants workload's input in every traced run, whatever its workload.
//!
//! A layer's cost is the difference between nested configurations
//! (L2 = L1+L2 − L1, CPU = `run_trace` − L1+L2 − DRAM, driver = the
//! end-to-end call − `run_trace` − decode). Every pass must reproduce
//! the cell's `RunResult` exactly, which shows that the layer numbers
//! time the work the end-to-end run does.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use primecache_cache::{
    bank_disp_factor, AccessOutcome, Cache, CacheSim, CacheStats, FullyAssociative, Hierarchy,
    HierarchyConfig, L2Organization, L2Sim, SkewHashKind, SkewedCache,
};
use primecache_core::index::{
    Geometry, HashKind, PrimeDisplacement, PrimeModulo, SetIndexer, SkewDispBank, SkewXorBank,
    Traditional, Xor,
};
use primecache_ingest::import_bytes;
use primecache_mem::{Dram, DramStats};
use primecache_obs::Json;
use primecache_sim::suite::run_sweep;
use primecache_sim::{
    run_chunks, run_recorded, run_tenant_mix, run_trace, MachineConfig, RunResult, Scheme,
};
use primecache_trace::{EncodedTrace, Event};
use primecache_workloads::{by_name, TenantMix};

use crate::envelope::{Measured, WorkloadResult};
use crate::golden::Golden;
use crate::metrics::{scheme_key, Better, PER_LAYER};
use crate::workloads::{
    lanes_partition, mix_config, scheme, text_export, Kind, Spec, DEFAULT_SEED, WORKLOADS,
};

/// Timed passes per layer and cell; each layer reports their median.
pub const PASSES: usize = 3;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or grouping name.
    pub name: String,
    /// Nanoseconds from the tracer's start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's start.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The source or `app/scheme` cell the span belongs to.
    pub cell: String,
}

/// Spans recorded in memory, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its index.
    pub fn open(&mut self, name: &str, parent: Option<usize>, cell: &str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent,
            cell: cell.to_owned(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id`; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` [`PASSES`] times, each in its own span; returns the last
    /// result and the median duration in seconds.
    pub fn passes<R>(
        &mut self,
        name: &str,
        parent: usize,
        cell: &str,
        mut f: impl FnMut() -> R,
    ) -> (R, f64) {
        let mut secs = Vec::with_capacity(PASSES);
        let mut last = None;
        for _ in 0..PASSES {
            let id = self.open(name, Some(parent), cell);
            let r = black_box(f());
            secs.push(self.close(id));
            last = Some(r);
        }
        let median = crate::stats::median(&secs).expect("PASSES > 0");
        (last.expect("PASSES > 0"), median)
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    #[must_use]
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::U64(id as u64)),
                ("name", Json::Str(s.name.clone())),
                ("cell", Json::Str(s.cell.clone())),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                ("self_ns", Json::U64(self.self_ns(id))),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Sums behind the per-layer metrics.
#[derive(Debug, Default)]
struct Ledger {
    app_refs: u64,
    record_s: f64,
    decode_s: f64,
    bytes: u64,
    import_s: f64,
    import_refs: u64,
    src_refs: u64,
    l1_s: f64,
    l1_accesses: u64,
    l1_misses: u64,
    index_s: [f64; 5],
    index_calls: u64,
    cell_refs: u64,
    l2_s: f64,
    l2_accesses: u64,
    l2_misses: u64,
    l2_by_scheme: BTreeMap<&'static str, (f64, u64)>,
    dram_s: f64,
    dram_requests: u64,
    row_hits: u64,
    row_misses: u64,
    cpu_s: f64,
    driver_s: f64,
    e2e_traced_s: f64,
    e2e_untraced_s: f64,
    mix_refs: u64,
    mix_decode_s: f64,
    attribution_s: f64,
    attribution_refs: u64,
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The five index functions timed by `core.index_ns.*`.
const INDEXERS: [&str; 5] = ["Base", "XOR", "pMod", "pDisp", "expr:pMod"];

/// Runs the traced ledger of `spec`; returns the per-layer metrics and
/// the spans.
#[must_use]
pub fn traced(spec: &Spec, quick: bool, seed: u64) -> (WorkloadResult, Tracer) {
    let machine = MachineConfig::paper_default();
    let refs = spec.refs(quick);
    let schemes = spec.resolve_schemes();
    let golden = Golden::parse(crate::golden::EMBEDDED).expect("embedded golden file parses");
    let mut tr = Tracer::default();
    let mut lg = Ledger::default();

    for app in spec.app_names() {
        let src = tr.open("source", None, app);
        let (trace, decode_s) = app_layers(&mut tr, &mut lg, src, app, refs);
        if spec.kind != Kind::Tenants {
            let events = trace.decode_all().expect("a fresh recording decodes");
            let e2e = |s: Scheme| run_recorded(&trace, s, &machine);
            let expected =
                |s: Scheme, r: &RunResult| golden.matches(spec.name, refs, app, s.label(), r);
            let cells = Cells {
                name: app,
                schemes: &schemes,
                e2e: &e2e,
                driver: None,
                decode_s,
                expected: &expected,
            };
            source_layers(&mut tr, &mut lg, src, &events, &cells, &machine);
        }
        tr.close(src);
    }

    let (mix, mix_decode_s) = ingest_layers(&mut tr, &mut lg, quick, seed, &machine);
    if spec.kind == Kind::Tenants {
        let label = spec.mix_label();
        let src = tr.open("source", None, &label);
        let events: Vec<Event> = mix.cursor().collect();
        let e2e = |s: Scheme| run_tenant_mix(&mix, s, &machine).aggregate;
        let driver = |s: Scheme| run_chunks(mix.cursor(), s, &machine);
        let expected = |s: Scheme, r: &RunResult| {
            seed != DEFAULT_SEED || golden.matches(spec.name, refs, &label, s.label(), r)
        };
        let cells = Cells {
            name: &label,
            schemes: &schemes,
            e2e: &e2e,
            driver: Some(&driver),
            decode_s: mix_decode_s,
            expected: &expected,
        };
        source_layers(&mut tr, &mut lg, src, &events, &cells, &machine);
        tr.close(src);
    }

    let mut detail = Vec::new();
    for (label, (secs, accesses)) in &lg.l2_by_scheme {
        let name = format!("cache.l2_ns_per_access.{}", scheme_key(label));
        if !PER_LAYER.iter().any(|p| p.name == name) {
            detail.push(ns(&name, *secs, *accesses));
        }
    }
    let mut workers = 1;
    if spec.kind == Kind::Sweep {
        workers = sweep_layers(&mut tr, &schemes, refs, &mut detail);
    }

    let metrics = PER_LAYER
        .iter()
        .map(|p| {
            let v = layer_value(&lg, p.name);
            Measured {
                n: PASSES as u64,
                ..Measured::single(p.name, p.unit, p.better, None, v)
            }
        })
        .collect();
    for f in lg.failures.iter().take(5) {
        eprintln!("pcbench: {}: FAILED {f}", spec.name);
    }
    let result = WorkloadResult {
        name: spec.name.to_owned(),
        correct: lg.failures.is_empty() && lg.attempted > 0,
        attempted: lg.attempted,
        failed: (lg.failures.len() as u64).min(lg.attempted.max(1)),
        reps: PASSES as u64,
        refs_per_app: refs,
        workers,
        metrics,
        detail,
    };
    (result, tr)
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

fn ns(name: &str, secs: f64, per: u64) -> Measured {
    Measured::single(name, "ns", Better::Lower, None, ratio(secs * 1e9, per))
}

fn layer_value(lg: &Ledger, name: &str) -> f64 {
    let per_ns = |secs: f64, per: u64| ratio(secs * 1e9, per);
    let l2_scheme = |label: &str| {
        lg.l2_by_scheme
            .get(label)
            .map_or(0.0, |&(s, n)| per_ns(s, n))
    };
    match name {
        "workloads.record_ns_per_ref" => per_ns(lg.record_s, lg.app_refs),
        "trace.decode_ns_per_ref" => per_ns(lg.decode_s, lg.app_refs),
        "trace.bytes_per_ref" => ratio(lg.bytes as f64, lg.app_refs),
        "ingest.import_ns_per_ref" => per_ns(lg.import_s, lg.import_refs),
        "core.index_ns.base" => per_ns(lg.index_s[0], lg.index_calls),
        "core.index_ns.xor" => per_ns(lg.index_s[1], lg.index_calls),
        "core.index_ns.pmod" => per_ns(lg.index_s[2], lg.index_calls),
        "core.index_ns.pdisp" => per_ns(lg.index_s[3], lg.index_calls),
        "core.index_ns.expr_pmod" => per_ns(lg.index_s[4], lg.index_calls),
        "cache.l1_ns_per_ref" => per_ns(lg.l1_s, lg.src_refs),
        "cache.l1_miss_rate" => ratio(lg.l1_misses as f64, lg.l1_accesses),
        "cache.l2_ns_per_access" => per_ns(lg.l2_s, lg.l2_accesses),
        "cache.l2_ns_per_access.base" => l2_scheme("Base"),
        "cache.l2_ns_per_access.pmod" => l2_scheme("pMod"),
        "cache.l2_miss_rate" => ratio(lg.l2_misses as f64, lg.l2_accesses),
        "mem.dram_ns_per_request" => per_ns(lg.dram_s, lg.dram_requests),
        "mem.requests_per_ref" => ratio(lg.dram_requests as f64, lg.cell_refs),
        "mem.row_hit_rate" => ratio(lg.row_hits as f64, lg.row_hits + lg.row_misses),
        "cpu.ns_per_ref" => per_ns(lg.cpu_s, lg.cell_refs),
        "sim.driver_ns_per_ref" => per_ns(lg.driver_s, lg.cell_refs),
        "sim.tenant_attribution_ns_per_ref" => per_ns(lg.attribution_s, lg.attribution_refs),
        "workloads.mix_decode_ns_per_ref" => per_ns(lg.mix_decode_s, lg.mix_refs),
        "trace_overhead" => {
            if lg.e2e_untraced_s > 0.0 {
                lg.e2e_traced_s / lg.e2e_untraced_s
            } else {
                0.0
            }
        }
        other => unreachable!("no ledger entry for per-layer metric {other}"),
    }
}

/// Counts a drained event stream, keeping every event observable.
fn drain(events: impl Iterator<Item = Event>) -> u64 {
    events.fold(0u64, |n, ev| {
        black_box(ev);
        n + 1
    })
}

/// Record and decode layers of one app; returns the recording and its
/// median decode time.
fn app_layers(
    tr: &mut Tracer,
    lg: &mut Ledger,
    src: usize,
    app: &str,
    refs: u64,
) -> (EncodedTrace, f64) {
    let w = by_name(app).expect("benchmark apps exist");
    let (trace, record_s) = tr.passes("workloads.record", src, app, || w.record(refs));
    let (_, decode_s) = tr.passes("trace.decode", src, app, || drain(trace.replay()));
    lg.app_refs += trace.refs();
    lg.record_s += record_s;
    lg.decode_s += decode_s;
    lg.bytes += trace.encoded_bytes();
    (trace, decode_s)
}

/// The cells of one source trace.
struct Cells<'a> {
    name: &'a str,
    schemes: &'a [Scheme],
    /// The cell's end-to-end call.
    e2e: &'a dyn Fn(Scheme) -> RunResult,
    /// The plain driver under the end-to-end call, when they differ.
    driver: Option<&'a dyn Fn(Scheme) -> RunResult>,
    /// Median time to decode the source once.
    decode_s: f64,
    /// Whether an end-to-end result matches the golden file.
    expected: &'a dyn Fn(Scheme, &RunResult) -> bool,
}

fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.breakdown == b.breakdown && a.l1 == b.l1 && a.l2 == b.l2 && a.dram == b.dram
}

fn same_dram_counts(a: &DramStats, b: &DramStats) -> bool {
    (a.reads, a.writes, a.row_hits, a.row_misses) == (b.reads, b.writes, b.row_hits, b.row_misses)
}

/// L1, index, L2, DRAM, CPU and driver layers over one source's events.
fn source_layers(
    tr: &mut Tracer,
    lg: &mut Ledger,
    src: usize,
    events: &[Event],
    cells: &Cells<'_>,
    machine: &MachineConfig,
) {
    let name = cells.name;
    let refs = events.iter().filter(|e| e.is_memory()).count() as u64;
    let hcfg = machine.hierarchy_config(Scheme::Base);
    let (l1, l1_s) = tr.passes("cache.l1", src, name, || l1_pass(events, &hcfg, |_| {}));
    lg.src_refs += refs;
    lg.l1_s += l1_s;
    lg.l1_accesses += l1.accesses;
    lg.l1_misses += l1.misses;

    let shift = machine.l2_line.trailing_zeros();
    let mut blocks = Vec::new();
    let _ = l1_pass(events, &hcfg, |addr| blocks.push(addr >> shift));
    index_layers(tr, lg, src, name, &blocks, machine);

    for &s in cells.schemes {
        let label = format!("{name}/{s}");
        lg.attempted += 1;
        let cell = tr.open("cell", Some(src), &label);
        // The end-to-end call alternately without and with a span, so
        // both sides of `trace_overhead` see the same machine state.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..PASSES {
            let t = Instant::now();
            black_box((cells.e2e)(s));
            untraced.push(t.elapsed().as_secs_f64());
            let id = tr.open("e2e", Some(cell), &label);
            last = Some(black_box((cells.e2e)(s)));
            traced.push(tr.close(id));
        }
        let r = last.expect("PASSES > 0");
        let e2e_s = crate::stats::median(&traced).expect("PASSES > 0");
        let (driver_r, driver_s) = match cells.driver {
            Some(d) => tr.passes("sim.driver", cell, &label, || d(s)),
            None => (r.clone(), e2e_s),
        };
        let ((hl1, hl2, reqs), l1l2_s) =
            tr.passes("cache.l1l2", cell, &label, || l1l2_pass(events, s, machine));
        let (dram, dram_s) = tr.passes("mem.dram", cell, &label, || dram_pass(&reqs, machine));
        let (rt, trace_s) = tr.passes("cpu.run_trace", cell, &label, || {
            run_trace(events.iter().copied(), s, machine)
        });
        tr.close(cell);

        lg.check((cells.expected)(s, &r), || {
            format!("{label}: differs from golden")
        });
        lg.check(l1 == r.l1, || {
            format!("{label}: L1 pass differs from the cell")
        });
        lg.check(hl1 == r.l1 && hl2 == r.l2, || {
            format!("{label}: L1+L2 pass differs from the cell")
        });
        lg.check(same_dram_counts(&dram, &r.dram), || {
            format!("{label}: DRAM pass differs from the cell")
        });
        lg.check(same_result(&rt, &r), || {
            format!("{label}: run_trace differs from the cell")
        });
        lg.check(same_result(&driver_r, &r), || {
            format!("{label}: driver differs from the cell")
        });

        let l2_s = l1l2_s - l1_s;
        let slot = lg.l2_by_scheme.entry(s.label()).or_default();
        slot.0 += l2_s;
        slot.1 += r.l2.accesses;
        lg.cell_refs += r.l1.accesses;
        lg.l2_s += l2_s;
        lg.l2_accesses += r.l2.accesses;
        lg.l2_misses += r.l2.misses;
        lg.dram_s += dram_s;
        lg.dram_requests += r.dram.reads + r.dram.writes;
        lg.row_hits += r.dram.row_hits;
        lg.row_misses += r.dram.row_misses;
        lg.cpu_s += trace_s - l1l2_s - dram_s;
        lg.driver_s += driver_s - trace_s - cells.decode_s;
        lg.e2e_traced_s += e2e_s;
        lg.e2e_untraced_s += crate::stats::median(&untraced).expect("PASSES > 0");
    }
}

/// `SetIndexer::index` of each of [`INDEXERS`] over the L2 block
/// addresses (the L1 misses) of one source.
fn index_layers(
    tr: &mut Tracer,
    lg: &mut Ledger,
    src: usize,
    name: &str,
    blocks: &[u64],
    machine: &MachineConfig,
) {
    let geom = match machine.l2_organization(Scheme::Base) {
        L2Organization::SetAssoc(c) => Geometry::new(c.n_set_phys()),
        other => unreachable!("Base is set-associative, not {other:?}"),
    };
    let Scheme::Expr(expr) = scheme("expr:pMod") else {
        unreachable!("expr:pMod resolves to a DSL scheme")
    };
    for (i, label) in INDEXERS.iter().enumerate() {
        let span = format!("core.index.{}", scheme_key(label));
        let (_, secs) = match i {
            0 => tr.passes(&span, src, name, || {
                index_pass(&Traditional::new(geom), blocks)
            }),
            1 => tr.passes(&span, src, name, || index_pass(&Xor::new(geom), blocks)),
            2 => tr.passes(&span, src, name, || {
                index_pass(&PrimeModulo::new(geom), blocks)
            }),
            3 => tr.passes(&span, src, name, || {
                index_pass(&PrimeDisplacement::paper_default(geom), blocks)
            }),
            _ => tr.passes(&span, src, name, || index_pass(&expr.indexer(), blocks)),
        };
        lg.index_s[i] += secs;
    }
    lg.index_calls += blocks.len() as u64;
}

fn index_pass<I: SetIndexer>(ix: &I, blocks: &[u64]) -> u64 {
    blocks
        .iter()
        .fold(0u64, |acc, &b| acc.wrapping_add(ix.index(black_box(b))))
}

/// The paper's L1, monomorphized as `run_trace` builds it.
fn paper_l1(hcfg: &HierarchyConfig) -> Cache<Traditional> {
    Cache::with_typed(
        hcfg.l1,
        Traditional::new(Geometry::new(hcfg.l1.n_set_phys())),
    )
}

/// The L1 alone over every memory event; `on_miss` sees each missing
/// address.
fn l1_pass(events: &[Event], hcfg: &HierarchyConfig, mut on_miss: impl FnMut(u64)) -> CacheStats {
    let mut l1 = paper_l1(hcfg);
    for ev in events {
        if let Some(addr) = ev.addr() {
            let write = matches!(ev, Event::Store { .. });
            let (_, hit) = l1.access_indexed(addr, write);
            if !hit {
                on_miss(addr);
            }
            drop(l1.take_writebacks());
        }
    }
    CacheSim::stats(&l1).clone()
}

/// A closure over a concrete L2 type, so one dispatch on the scheme
/// builds the same monomorphized parts `run_trace` does.
trait L2Op {
    type Out;
    fn run<X: L2Sim>(self, hcfg: HierarchyConfig, l2: X) -> Self::Out;
}

fn with_l2<O: L2Op>(machine: &MachineConfig, s: Scheme, op: O) -> O::Out {
    let hcfg = machine.hierarchy_config(s);
    match hcfg.l2 {
        L2Organization::SetAssoc(cfg) => {
            let geom = Geometry::new(cfg.n_set_phys());
            match cfg.hash() {
                HashKind::Traditional => {
                    op.run(hcfg, Cache::with_typed(cfg, Traditional::new(geom)))
                }
                HashKind::Xor => op.run(hcfg, Cache::with_typed(cfg, Xor::new(geom))),
                HashKind::PrimeModulo => {
                    op.run(hcfg, Cache::with_typed(cfg, PrimeModulo::new(geom)))
                }
                HashKind::PrimeDisplacement => op.run(
                    hcfg,
                    Cache::with_typed(cfg, PrimeDisplacement::paper_default(geom)),
                ),
                HashKind::Expr(id) => op.run(hcfg, Cache::with_typed(cfg, id.indexer())),
            }
        }
        L2Organization::Skewed(cfg) => match cfg.hash() {
            SkewHashKind::Xor => op.run(
                hcfg,
                SkewedCache::with_banks(cfg, |b, g| SkewXorBank::new(g, b)),
            ),
            SkewHashKind::PrimeDisplacement => op.run(
                hcfg,
                SkewedCache::with_banks(cfg, |b, g| SkewDispBank::new(g, bank_disp_factor(b))),
            ),
        },
        L2Organization::FullyAssociative {
            size_bytes,
            line_bytes,
        } => op.run(hcfg, FullyAssociative::new(size_bytes, line_bytes)),
    }
}

/// DRAM requests in the order the CPU model issues them: a read for
/// each access served by memory, then that access's dirty L2 victims.
type Requests = Vec<(u64, bool)>;

struct L1L2<'e> {
    events: &'e [Event],
    line: u64,
}

impl L2Op for L1L2<'_> {
    type Out = (CacheStats, CacheStats, Requests);

    fn run<X: L2Sim>(self, hcfg: HierarchyConfig, l2: X) -> Self::Out {
        let mut h = Hierarchy::with_parts(hcfg, paper_l1(&hcfg), l2);
        let mut reqs = Vec::new();
        for ev in self.events {
            if let Some(addr) = ev.addr() {
                let write = matches!(ev, Event::Store { .. });
                if h.access(addr, write) == AccessOutcome::Memory {
                    reqs.push((addr, false));
                }
                for block in h.take_memory_writes() {
                    reqs.push((block * self.line, true));
                }
            }
        }
        (h.l1_stats().clone(), h.l2_stats().clone(), reqs)
    }
}

fn l1l2_pass(
    events: &[Event],
    s: Scheme,
    machine: &MachineConfig,
) -> (CacheStats, CacheStats, Requests) {
    with_l2(
        machine,
        s,
        L1L2 {
            events,
            line: machine.l2_line,
        },
    )
}

/// `Dram::request` over recorded requests. Row-buffer outcomes depend
/// only on the request order, so the counts match the full run; each
/// read is issued when the previous one completes.
fn dram_pass(reqs: &[(u64, bool)], machine: &MachineConfig) -> DramStats {
    let mut dram = Dram::new(machine.mem);
    let mut now = 0;
    for &(addr, write) in reqs {
        let c = dram.request(addr, now, write);
        if !write {
            now = c.complete;
        }
    }
    *dram.stats()
}

/// Text import, mix decode and tenant attribution, over the input of the
/// tenants workload in every traced run: its apps at its size, exported
/// as text, imported, and interleaved with the run's seed. That is the
/// only workload whose end-to-end time these layers move, and every
/// traced run reports every per-layer metric. Returns the mix and its
/// median decode time.
fn ingest_layers(
    tr: &mut Tracer,
    lg: &mut Ledger,
    quick: bool,
    seed: u64,
    machine: &MachineConfig,
) -> (TenantMix, f64) {
    let spec = WORKLOADS
        .iter()
        .find(|w| w.kind == Kind::Tenants)
        .expect("a tenants workload exists");
    let refs = spec.refs(quick);
    let label = spec.mix_label();
    let src = tr.open("ingest", None, &label);
    let mut tenants = Vec::with_capacity(spec.apps.len());
    for &app in spec.apps {
        let trace = by_name(app).expect("benchmark apps exist").record(refs);
        let text = text_export(&trace);
        let (imported, import_s) = tr.passes("ingest.import", src, app, || {
            import_bytes(&text).expect("a write_text export re-imports")
        });
        lg.check(imported.trace.replay().eq(trace.replay()), || {
            format!("{app}: imported trace differs from the recording")
        });
        lg.import_refs += trace.refs();
        lg.import_s += import_s;
        tenants.push((app.to_owned(), imported.trace));
    }
    let mix = TenantMix::new(tenants, mix_config(seed));

    let (_, decode_s) = tr.passes("workloads.mix_decode", src, &label, || drain(mix.cursor()));
    lg.mix_refs += mix.cursor().filter(Event::is_memory).count() as u64;
    lg.mix_decode_s += decode_s;
    for s in spec.resolve_schemes() {
        let cell = format!("{label}/{s}");
        let (plain, plain_s) = tr.passes("sim.run_chunks", src, &cell, || {
            run_chunks(mix.cursor(), s, machine)
        });
        let (run, mix_s) = tr.passes("sim.run_tenant_mix", src, &cell, || {
            run_tenant_mix(&mix, s, machine)
        });
        lg.check(same_result(&plain, &run.aggregate), || {
            format!("{cell}: tenant aggregate differs from run_chunks")
        });
        if let Err(e) = lanes_partition(&run) {
            lg.failures.push(format!("{cell}: {e}"));
        }
        lg.attribution_s += mix_s - plain_s;
        lg.attribution_refs += run.aggregate.l1.accesses;
    }
    tr.close(src);
    (mix, decode_s)
}

/// Sweep scheduling: worker utilization over the task phase and the
/// time before it (recording). Returns the worker count.
fn sweep_layers(tr: &mut Tracer, schemes: &[Scheme], refs: u64, detail: &mut Vec<Measured>) -> u64 {
    let src = tr.open("sweep", None, "sweep");
    let mut util = Vec::with_capacity(PASSES);
    let mut record = Vec::with_capacity(PASSES);
    let mut workers = 1;
    for _ in 0..PASSES {
        let id = tr.open("sim.run_sweep", Some(src), "sweep");
        let sweep = run_sweep(schemes, refs);
        let wall = tr.close(id);
        workers = sweep
            .tasks
            .iter()
            .map(|t| u64::from(t.worker) + 1)
            .max()
            .unwrap_or(1);
        let busy_us: u64 = sweep.tasks.iter().map(|t| t.end_us - t.start_us).sum();
        let last_us = sweep.tasks.iter().map(|t| t.end_us).max().unwrap_or(0);
        util.push(ratio(busy_us as f64, workers * last_us));
        record.push(wall - last_us as f64 / 1e6);
    }
    tr.close(src);
    let med = |v: &[f64]| crate::stats::median(v).expect("PASSES > 0");
    detail.push(Measured::single(
        "sim.sweep_worker_util",
        "ratio",
        Better::Higher,
        None,
        med(&util),
    ));
    detail.push(Measured::single(
        "sim.sweep_record_s",
        "s",
        Better::Lower,
        None,
        med(&record),
    ));
    workers
}
