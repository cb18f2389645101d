//! CLI subcommand implementations.

use std::borrow::Cow;

use primecache_analyze::{
    certify_all, certify_expr, has_errors, model_of, report_json, self_check, xor_folded_model,
    Theorem1,
};
use primecache_attack::{attack_report_json, eviction_cost, AttackEntry};
use primecache_core::expr::ExprError;
use primecache_core::index::{Geometry, HashKind, SetIndexer, XorFolded};
use primecache_core::metrics::{
    balance, concentration, strided_addresses, violation_fraction, OnlineMetrics,
};
use primecache_ingest::text::write_text;
use primecache_ingest::{import_path, SourceFormat};
use primecache_sim::experiments::{self, check_claims, Ctx, Experiment, EXPERIMENTS};
use primecache_sim::report::render_table;
use primecache_sim::suite::{run_sweep, Sweep};
use primecache_sim::{
    run_chunks, run_tenant_mix, run_workload, static_model, tenant_solo_baseline, MachineConfig,
    RunResult, Scheme, SimOracle, PROBE_BITS,
};
use primecache_trace::{EncodedTrace, TraceStats};
use primecache_workloads::profile::profile_of;
use primecache_workloads::{all, by_name, MixConfig, TenantMix};

use crate::args::Args;

/// Writes `args` to stdout, the one place the subcommands print. Rust
/// ignores `SIGPIPE`, so a write to a pipe whose reader has gone (`pcache
/// reproduce | head -n 1`) fails with `BrokenPipe`; the process then ends
/// quietly with status 141, what a shell reports for a process the
/// signal killed. Any other write error panics, as `print!` does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// What `pcache help` prints after the subcommands.
const SCHEMES: &str = "\
SCHEMES: Base, 8-way, XOR, pMod, pDisp, SKW, skw+pDisp, FA,
         or a DSL expression: expr:'a % 2039' (see DESIGN.md for the grammar;
         the scheme is statically certified before any simulation runs, and
         one with an error-level lint is refused with exit code 2)
";

/// A subcommand: its checked arguments to an exit code.
type Subcommand = fn(&Args) -> i32;

/// Every subcommand: its usage line, which names it and declares its
/// flags (see [`crate::args`]), what it does, and its implementation.
#[rustfmt::skip]
const COMMANDS: [(&str, &str, Subcommand); 12] = [
    ("pcache list [--verbose]",
     "list the 23 workload models", list),
    ("pcache run <app> [--scheme S] [--refs N]",
     "simulate one (workload, scheme)", run),
    ("pcache reproduce [NAME ...] [--refs N]",
     "regenerate the paper's tables, figures and studies (all, or those named), \
      writing figures/ and checking each claim", reproduce),
    ("pcache sweep [--refs N] | --tenants A,B[,...] [--refs N] [--quantum Q] [--seed S]",
     "all apps x main schemes, or tenants sharing one L2 (interference blowup)", sweep),
    ("pcache metrics --stride S [--sets N] | --app <name> [--refs N]",
     "balance/concentration at a stride, or over a workload trace", metrics),
    ("pcache analyze [--json] [--expr 'SRC' [--name N] | --self-check [--refs N]]",
     "static certificates + config lints, one DSL expression, or a self-check", analyze),
    ("pcache attack [--scheme S | --expr SRC] [--json] [--seed N]",
     "black-box index recovery + eviction-set cost, checked against the model", attack),
    ("pcache report <app> [--scheme S] [--refs N] [--out FILE] [--compact]",
     "self-describing run report (JSON)", report),
    ("pcache trace-events <app> [--scheme S] [--refs N] [--sample N] [--ring N] [--out FILE] \
      | --sweep [--refs N] [--out FILE]",
     "per-access event trace, or sweep-task scheduling trace (JSONL)", trace_events),
    ("pcache trace <app> --out FILE [--refs N] [--format pcte|text]",
     "dump a trace (recorded PCTE frame, or importable text)", trace),
    ("pcache import FILE [--out FILE] [--run] [--scheme S]",
     "validate a trace (TRACE_FORMAT.md); --out writes PCTE, --run simulates it", import),
    ("pcache inspect FILE",
     "summarize a PCTE trace frame", inspect),
];

/// What `pcache help` prints: every subcommand's usage line and what
/// it does, then the schemes.
#[must_use]
pub fn help_text() -> String {
    let mut text = String::from(
        "pcache — prime-number cache indexing simulator (HPCA 2004 reproduction)\n\nUSAGE:\n",
    );
    for (line, what, _) in COMMANDS {
        text.extend(["  ", line, "\n      ", what, "\n"]);
    }
    text + "\n" + SCHEMES
}

/// Runs the `pcache` command line `argv` (program name excluded) and
/// returns its exit code: 2 for an unknown command, or for arguments
/// the command's usage line does not declare.
pub fn main(argv: &[String]) -> i32 {
    let name = argv.first().map_or("help", String::as_str);
    if matches!(name, "help" | "--help" | "-h") {
        out!("{}", help_text());
        return 0;
    }
    let named = |usage: &str| usage.split_whitespace().nth(1) == Some(name);
    let Some(&(usage, _, command)) = COMMANDS.iter().find(|c| named(c.0)) else {
        eprintln!("unknown command '{name}'\n");
        eprint!("{}", help_text());
        return 2;
    };
    match Args::parse(&argv[1..], usage) {
        Ok(args) => command(&args),
        Err(e) => {
            eprintln!("{e}\nusage: {usage}");
            2
        }
    }
}

/// Resolves a `--scheme` label, then runs the config lint pass on it:
/// a scheme with any error-level lint is refused before any simulation
/// runs. Warning-only lints pass.
fn parse_scheme(label: &str) -> Result<Scheme, String> {
    let scheme = if let Some(src) = label.strip_prefix("expr:") {
        primecache_core::expr::register_anonymous(src)
            .map(Scheme::Expr)
            .map_err(|e| format!("invalid expression scheme '{}': {e}", excerpt(src, &e)))?
    } else {
        Scheme::ALL
            .into_iter()
            .find(|s| s.label() == label)
            .ok_or_else(|| format!("unknown scheme '{label}' (built-ins or expr:<src>)"))?
    };
    let lints = MachineConfig::paper_default().lint_scheme(scheme);
    if has_errors(&lints) {
        let listed: Vec<String> = lints.iter().map(|l| format!("  {l}")).collect();
        return Err(format!(
            "refusing degenerate {} configuration:\n{}",
            window(scheme.label(), 0),
            listed.join("\n")
        ));
    }
    Ok(scheme)
}

/// A rejected DSL source for an error message: whole when it is short,
/// otherwise the window around the error's span (the head of the source
/// when the error has no span), so a long source does not flood the
/// terminal.
fn excerpt<'a>(src: &'a str, err: &ExprError) -> Cow<'a, str> {
    let at = match err {
        ExprError::Parse(e) => e.span.start,
        _ => 0,
    };
    window(src, at)
}

/// `text` whole when it is at most 64 bytes long, otherwise a 64-byte
/// window around byte `at`, cut at char boundaries, with `…` where it
/// cuts.
fn window(text: &str, at: usize) -> Cow<'_, str> {
    let width = 64;
    if text.len() <= width {
        return Cow::Borrowed(text);
    }
    let mut start = at.saturating_sub(width / 2).min(text.len() - width);
    while !text.is_char_boundary(start) {
        start -= 1;
    }
    let mut end = start + width;
    while !text.is_char_boundary(end) {
        end += 1;
    }
    let cut = |cut: bool| if cut { "…" } else { "" };
    Cow::Owned(format!(
        "{}{}{}",
        cut(start > 0),
        &text[start..end],
        cut(end < text.len())
    ))
}

/// `pcache list [--verbose]`
fn list(args: &Args) -> i32 {
    let verbose = args.has("--verbose");
    if verbose {
        let rows: Vec<Vec<String>> = all()
            .iter()
            .map(|w| {
                let p = profile_of(w.name).expect("every workload has a profile");
                vec![
                    w.name.to_owned(),
                    w.suite.to_owned(),
                    if w.expected_non_uniform {
                        "non-uniform"
                    } else {
                        "uniform"
                    }
                    .to_owned(),
                    format!("{:?}", p.pattern),
                    format!("{:?}", p.conflict),
                    format!("{} KB", p.footprint_bytes / 1024),
                    if p.has_dependent_loads { "yes" } else { "no" }.to_owned(),
                ]
            })
            .collect();
        out!(
            "{}",
            render_table(
                &[
                    "app",
                    "suite",
                    "class (§4)",
                    "pattern",
                    "conflicts",
                    "footprint",
                    "chases"
                ],
                &rows
            )
        );
    } else {
        let rows: Vec<Vec<String>> = all()
            .iter()
            .map(|w| {
                vec![
                    w.name.to_owned(),
                    w.suite.to_owned(),
                    if w.expected_non_uniform {
                        "non-uniform"
                    } else {
                        "uniform"
                    }
                    .to_owned(),
                ]
            })
            .collect();
        out!("{}", render_table(&["app", "suite", "class (§4)"], &rows));
    }
    0
}

/// `pcache run <app> [--scheme S] [--refs N]`
fn run(args: &Args) -> i32 {
    let Some(name) = args.positional() else {
        eprintln!("usage: {}", args.usage());
        return 2;
    };
    let Some(workload) = by_name(name) else {
        eprintln!("unknown workload '{name}' (try `pcache list`)");
        return 2;
    };
    let scheme_label = args.value("--scheme").unwrap_or("pMod");
    let scheme = match parse_scheme(scheme_label) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let refs = match positive_refs(args, 200_000) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let base = run_workload(workload, Scheme::Base, refs);
    let r = if scheme == Scheme::Base {
        base.clone()
    } else {
        run_workload(workload, scheme, refs)
    };
    outln!("{name} under {scheme} ({refs} refs):");
    outln!(
        "  cycles: {} (busy {}, other {}, mem {})",
        r.breakdown.total(),
        r.breakdown.busy,
        r.breakdown.other_stall,
        r.breakdown.mem_stall
    );
    outln!(
        "  L1: {} accesses, {:.2}% miss; L2 demand: {} accesses, {:.2}% miss",
        r.l1.accesses,
        r.l1.miss_rate() * 100.0,
        r.l2.accesses,
        r.l2.miss_rate() * 100.0
    );
    outln!(
        "  vs Base: time x{:.3}, misses x{:.3}",
        r.breakdown.total() as f64 / base.breakdown.total() as f64,
        r.l2.misses as f64 / base.l2.misses.max(1) as f64
    );
    outln!(
        "  DRAM: {} reads, {} writes, {:.1}% row hits",
        r.dram.reads,
        r.dram.writes,
        r.dram.row_hit_rate() * 100.0
    );
    0
}

/// The trace length `pcache reproduce` runs by default: the scale of
/// the committed `reproduce_output.txt` and `figures/`.
const REPRODUCE_REFS: u64 = 500_000;

/// `pcache reproduce [NAME ...] [--refs N]`
///
/// Runs the named registry entries (every one when none is named) from
/// one sweep over the union of their schemes: prints each entry's text
/// and its claims table to stdout, writes its files under `figures/` —
/// only at [`REPRODUCE_REFS`], the scale of the committed figures — and
/// exits 1 when a claim fails. Progress goes to stderr.
fn reproduce(args: &Args) -> i32 {
    let refs = match positive_refs(args, REPRODUCE_REFS) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\nusage: {}", args.usage());
            return 2;
        }
    };
    let mut selected: Vec<&Experiment> = Vec::new();
    for &name in args.positionals() {
        let Some(e) = experiments::find(name) else {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            eprintln!("unknown experiment '{name}'; known: {}", known.join(", "));
            return 2;
        };
        if !selected.iter().any(|s| s.name == name) {
            selected.push(e);
        }
    }
    if selected.is_empty() {
        selected = EXPERIMENTS.iter().collect();
    }
    let schemes: Vec<Scheme> = Scheme::ALL
        .into_iter()
        .filter(|s| selected.iter().any(|e| e.schemes.contains(s)))
        .collect();
    let sweep = if schemes.is_empty() {
        Sweep::default()
    } else {
        eprintln!(
            "sweep: {} workloads x {} schemes at {refs} refs ...",
            all().len(),
            schemes.len()
        );
        run_sweep(&schemes, refs)
    };
    let ctx = Ctx::new(refs, sweep);
    let write_figures = refs == REPRODUCE_REFS;
    if !write_figures && selected.iter().any(|e| !e.files.is_empty()) {
        eprintln!(
            "writing no figures/ files: they are kept at the committed {REPRODUCE_REFS} refs, \
             not {refs}"
        );
    }
    let n = selected.len();
    outln!("primecache reproduction: {n} experiment(s), {refs} refs per (workload, scheme)\n");
    let (mut passed, mut failed, mut skipped) = (0, Vec::new(), 0);
    for e in selected {
        eprintln!("{} ...", e.name);
        outln!("--- {} [{}] ---\n", e.title, e.name);
        outln!("{}", (e.text)(&ctx).trim_end());
        let files = if write_figures { e.files } else { &[] };
        for (path, render) in files {
            let path = std::path::Path::new("figures").join(path);
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, render(&ctx)));
            if let Err(err) = written {
                eprintln!("cannot write {}: {err}", path.display());
                return 1;
            }
            eprintln!("wrote {}", path.display());
        }
        if !e.claims.is_empty() {
            let report = check_claims(e.claims, &ctx);
            out!("\n{}", report.table);
            passed += report.passed;
            skipped += report.skipped;
            failed.extend(report.failed);
        }
        outln!();
    }
    outln!(
        "claims: {passed} hold, {} fail, {skipped} not evaluated at {refs} refs",
        failed.len()
    );
    if failed.is_empty() {
        0
    } else {
        eprintln!("failed claims: {}", failed.join(", "));
        1
    }
}

/// The scheme grid `pcache sweep` dispatches; `pcache analyze` lints the
/// resulting task count against the machine's worker count.
const SWEEP_SCHEMES: [Scheme; 5] = [
    Scheme::Base,
    Scheme::Xor,
    Scheme::PrimeModulo,
    Scheme::PrimeDisplacement,
    Scheme::SkewedPrimeDisplacement,
];

/// `--refs` as a positive count: zero references leave no Base time to
/// normalize a run, a sweep or an experiment by, and no blocks to
/// measure a hash's balance over.
fn positive_refs(args: &Args, default: u64) -> Result<u64, String> {
    match args.parsed("--refs", default) {
        Ok(0) => Err("--refs must be positive".to_owned()),
        parsed => parsed,
    }
}

/// `pcache sweep [--refs N]` / `pcache sweep --tenants A,B[,...]`
fn sweep(args: &Args) -> i32 {
    if args.value("--tenants").is_some() {
        return sweep_tenants(args);
    }
    let refs = match positive_refs(args, 100_000) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let schemes = SWEEP_SCHEMES;
    let ctx = Ctx::new(refs, run_sweep(&schemes, refs));
    let mut header = vec!["app"];
    header.extend(schemes.iter().skip(1).map(|s| s.label()));
    let mut rows = Vec::new();
    for w in all() {
        let mut row = vec![w.name.to_owned()];
        for &s in schemes.iter().skip(1) {
            row.push(format!("{:.3}", ctx.time(w.name, s)));
        }
        rows.push(row);
    }
    outln!("execution time normalized to Base ({refs} refs):\n");
    out!("{}", render_table(&header, &rows));
    if let Some(st) = ctx.sweep.shared {
        outln!(
            "\nshared inputs: {} workloads prepared once in {:.2} s of worker time \
             ({} events; peak {} KB in flight), replayed into every scheme",
            st.prepared,
            st.prepare_us as f64 / 1e6,
            st.events,
            st.peak_bytes / 1024
        );
    }
    0
}

/// `pcache sweep --tenants A,B[,...] [--refs N] [--quantum Q] [--seed S]`
///
/// Builds a deterministic multi-tenant mix — each token is a workload
/// name (recorded at `--refs`) or an importable trace file — and runs it
/// through every sweep scheme on one shared hierarchy. For each tenant
/// the table compares its L2 misses inside the mix against its solo
/// baseline (same tagged address stream, no co-tenants); the blowup
/// ratio is pure inter-tenant interference.
fn sweep_tenants(args: &Args) -> i32 {
    let spec = args.value("--tenants").expect("caller checked the flag");
    let defaults = MixConfig::default();
    let (refs, quantum, seed) = match (
        positive_refs(args, 50_000),
        args.parsed("--quantum", defaults.quantum_instructions),
        args.parsed("--seed", defaults.seed),
    ) {
        (Ok(r), Ok(q), Ok(s)) => (r, q, s),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if quantum == 0 {
        eprintln!("--quantum must be positive (instructions per scheduling slice)");
        return 2;
    }
    let mut tenants = Vec::new();
    for tok in spec.split(',').filter(|t| !t.is_empty()) {
        if let Some(w) = by_name(tok) {
            tenants.push((w.name.to_owned(), w.record(refs)));
        } else if std::path::Path::new(tok).is_file() {
            let label = std::path::Path::new(tok)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(tok)
                .to_owned();
            match import_path(tok) {
                Ok(i) => tenants.push((label, i.trace)),
                Err(e) => {
                    eprintln!("cannot import tenant '{tok}': {e}");
                    return 1;
                }
            }
        } else {
            eprintln!(
                "unknown tenant '{tok}': neither a workload (try `pcache list`) \
                 nor a trace file"
            );
            return 2;
        }
    }
    if tenants.is_empty() {
        eprintln!("--tenants needs at least one workload name or trace file");
        return 2;
    }
    let n = tenants.len();
    let names: Vec<String> = tenants.iter().map(|(t, _)| t.clone()).collect();
    let mix = TenantMix::new(
        tenants,
        MixConfig {
            quantum_instructions: quantum,
            seed,
        },
    );
    let machine = MachineConfig::paper_default();
    let mut header: Vec<String> = vec!["scheme".into(), "L2 miss%".into()];
    for name in &names {
        header.push(format!("{name} shared"));
        header.push(format!("{name} solo"));
        header.push(format!("{name} blowup"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    let mut quanta = 0u64;
    let mut switches = 0u64;
    for scheme in SWEEP_SCHEMES {
        let run = run_tenant_mix(&mix, scheme, &machine);
        let mut row = vec![
            scheme.label().to_owned(),
            format!("{:.2}", run.aggregate.l2.miss_rate() * 100.0),
        ];
        for (i, lane) in run.lanes.iter().enumerate() {
            let (_, solo_l2) = tenant_solo_baseline(&mix, i, scheme, &machine);
            row.push(lane.l2.misses.to_string());
            row.push(solo_l2.misses.to_string());
            row.push(format!(
                "x{:.3}",
                lane.l2.misses as f64 / solo_l2.misses.max(1) as f64
            ));
        }
        rows.push(row);
        quanta = run.mix.quanta;
        switches = run.mix.switches;
    }
    outln!(
        "{n} tenants time-sliced through one shared hierarchy \
         ({quantum}-instruction quanta, seed {seed:#x}):\n"
    );
    out!("{}", render_table(&header_refs, &rows));
    outln!(
        "\nschedule: {quanta} quanta, {switches} tenant switches \
         (deterministic; L2 misses per tenant, solo = same stream alone)"
    );
    0
}

/// The most sets `pcache metrics --sets` takes: the stride pattern holds
/// four addresses per set, about 80 MB at this cap.
const METRICS_MAX_SETS: u64 = 1 << 20;

/// `pcache metrics --stride S [--sets N]` or `--app <name> [--refs N]`
fn metrics(args: &Args) -> i32 {
    if let Some(app) = args.value("--app") {
        return metrics_app(app, args);
    }
    let stride = match args.parsed("--stride", 1u64) {
        Ok(v) if v > 0 => v,
        _ => {
            eprintln!("usage: {}", args.usage());
            return 2;
        }
    };
    let sets = match args.parsed("--sets", 2048u64) {
        Ok(v) if v.is_power_of_two() && (4..=METRICS_MAX_SETS).contains(&v) => v,
        _ => {
            eprintln!("--sets must be a power of two from 4 to {METRICS_MAX_SETS}");
            return 2;
        }
    };
    // The pattern is the 4·sets addresses 0, s, 2s, …; the last must fit.
    let n_addrs = sets * 4;
    if (n_addrs - 1).checked_mul(stride).is_none() {
        eprintln!(
            "--stride {stride} overflows u64 over the {n_addrs}-address pattern; \
             the largest stride over {sets} sets is {}",
            u64::MAX / (n_addrs - 1)
        );
        return 2;
    }
    let geom = Geometry::new(sets);
    let addrs = strided_addresses(stride, n_addrs as usize);
    let mut rows = Vec::new();
    for kind in HashKind::ALL {
        let idx = kind.build(geom);
        rows.push(vec![
            kind.label().to_owned(),
            format!("{:.3}", balance(&idx, addrs.iter().copied())),
            format!("{:.1}", concentration(&idx, addrs.iter().copied())),
            format!("{:.4}", violation_fraction(&idx, &addrs)),
        ]);
    }
    outln!("stride {stride} over {sets} physical sets:\n");
    out!(
        "{}",
        render_table(
            &[
                "hash",
                "balance (1=ideal)",
                "concentration (0=ideal)",
                "violations"
            ],
            &rows
        )
    );
    0
}

/// The L2 geometry and skew-bank geometry the paper machine builds.
fn analysis_geometries(machine: &MachineConfig) -> (Geometry, Geometry) {
    let geom = match machine.l2_organization(Scheme::Base) {
        primecache_cache::L2Organization::SetAssoc(c) => Geometry::new(c.n_set_phys()),
        _ => Geometry::new(2048),
    };
    let bank_geom = match machine.l2_organization(Scheme::Skewed) {
        primecache_cache::L2Organization::Skewed(c) => Geometry::new(c.sets_per_bank()),
        _ => geom,
    };
    (geom, bank_geom)
}

/// `pcache analyze [--json]` / `pcache analyze --expr 'SRC'` /
/// `pcache analyze --self-check [--refs N]`
fn analyze(args: &Args) -> i32 {
    if args.has("--self-check") {
        return analyze_self_check(args);
    }
    if let Some(src) = args.value("--expr") {
        return analyze_expr(src, args);
    }
    let machine = MachineConfig::paper_default();
    let (geom, bank_geom) = analysis_geometries(&machine);
    let in_bits = (2 * geom.index_bits() + 4).min(64);
    let certs = certify_all(geom, bank_geom, in_bits);
    let lints: Vec<(Scheme, primecache_analyze::Lint)> = Scheme::ALL
        .into_iter()
        .flat_map(|s| machine.lint_scheme(s).into_iter().map(move |l| (s, l)))
        .collect();
    // Sweep-shape lint: the task grid `pcache sweep` would dispatch vs
    // this machine's worker pool (pre-clamp, as the scheduler sees it).
    let n_tasks = SWEEP_SCHEMES.len() * all().len();
    let n_workers = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let sweep_lints = primecache_analyze::lint_sweep_shape(n_tasks, n_workers);
    let mut bare: Vec<primecache_analyze::Lint> = lints.iter().map(|(_, l)| l.clone()).collect();
    bare.extend(sweep_lints.iter().cloned());
    if args.has("--json") {
        outln!("{}", report_json(&certs, &bare).render());
        return i32::from(has_errors(&bare));
    }
    let rows: Vec<Vec<String>> = certs
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.n_set.to_string(),
                c.rank.to_string(),
                c.kernel_dim.to_string(),
                c.smallest_conflict_stride()
                    .map_or_else(|| "—".to_owned(), |d| d.to_string()),
                if c.permutation { "yes" } else { "no" }.to_owned(),
                format!("{:.1}", c.balance_bound),
                c.invariance.label().to_owned(),
                match &c.theorem1 {
                    Theorem1::Holds { modulus } => format!("holds (p={modulus})"),
                    Theorem1::Fails { witness_stride } => {
                        format!("fails (stride {witness_stride})")
                    }
                    Theorem1::NoGuarantee => "no guarantee".to_owned(),
                },
            ]
        })
        .collect();
    outln!(
        "static certificates over {} address bits ({} L2 sets, {}-set skew banks):\n",
        in_bits,
        geom.n_set_phys(),
        bank_geom.n_set_phys()
    );
    out!(
        "{}",
        render_table(
            &[
                "hash",
                "sets",
                "rank",
                "kernel",
                "min stride",
                "perm",
                "bal bound",
                "invariance",
                "theorem 1"
            ],
            &rows
        )
    );
    outln!();
    if bare.is_empty() {
        outln!(
            "config lints: all {} schemes clean; sweep shape {} tasks / {} workers ok",
            Scheme::ALL.len(),
            n_tasks,
            n_workers
        );
    } else {
        outln!("config lints:");
        for (s, l) in &lints {
            outln!("  {s}: {l}");
        }
        for l in &sweep_lints {
            outln!("  sweep: {l}");
        }
    }
    i32::from(has_errors(&bare))
}

/// `pcache analyze --expr 'SRC' [--name N] [--json]`: compile one DSL
/// index expression, lower it to its abstract model, and print the
/// certificate plus the lints the paper machine's L2 geometry raises —
/// the same gate `--scheme expr:SRC` simulation runs behind.
fn analyze_expr(src: &str, args: &Args) -> i32 {
    let registered = match args.value("--name") {
        Some(name) => primecache_core::expr::register(name, src),
        None => primecache_core::expr::register_anonymous(src),
    };
    let id = match registered {
        Ok(id) => id,
        Err(e) => {
            eprintln!("invalid expression '{}': {e}", excerpt(src, &e));
            return 2;
        }
    };
    let machine = MachineConfig::paper_default();
    let (geom, _) = analysis_geometries(&machine);
    let in_bits = (2 * geom.index_bits() + 4).min(64);
    let cert = certify_expr(id.name().to_owned(), id.folded(), in_bits);
    let lints = machine.lint_scheme(Scheme::Expr(id));
    if args.has("--json") {
        outln!(
            "{}",
            report_json(std::slice::from_ref(&cert), &lints).render()
        );
        return i32::from(has_errors(&lints));
    }
    outln!("expression: {src}");
    outln!("  folded:      {}", id.folded());
    outln!(
        "  certificate: {} ({} sets over {} address bits)",
        if cert.exact {
            "exact"
        } else {
            "sampled (opaque model)"
        },
        cert.n_set,
        cert.in_bits
    );
    outln!("  rank {} / kernel dim {}", cert.rank, cert.kernel_dim);
    outln!(
        "  permutation: {}; balance bound {:.2}{}",
        if cert.permutation { "yes" } else { "no" },
        cert.balance_bound,
        if cert.balanced { "" } else { " (UNBALANCED)" }
    );
    match cert.smallest_conflict_stride() {
        Some(d) => outln!("  smallest conflict stride: {d}"),
        None => outln!("  no universal conflict stride found"),
    }
    match &cert.theorem1 {
        Theorem1::Holds { modulus } => outln!("  theorem 1: holds (p = {modulus})"),
        Theorem1::Fails { witness_stride } => {
            outln!("  theorem 1: fails (witness stride {witness_stride})");
        }
        Theorem1::NoGuarantee => outln!("  theorem 1: no guarantee"),
    }
    if lints.is_empty() {
        outln!("  lints: clean — `--scheme expr:{src}` will simulate");
    } else {
        outln!("  lints:");
        for l in &lints {
            outln!("    {l}");
        }
        if has_errors(&lints) {
            outln!("  the simulator's certificate gate REJECTS this scheme");
        }
    }
    i32::from(has_errors(&lints))
}

/// `pcache analyze --self-check [--refs N]`: the full static-vs-concrete
/// cross-validation battery, then the 23-workload distribution check.
fn analyze_self_check(args: &Args) -> i32 {
    let refs = match positive_refs(args, 60_000) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut failed = false;
    let report = self_check();
    for stage in &report.stages {
        match &stage.failure {
            None => outln!("  ok   {} ({} cases)", stage.name, stage.cases),
            Some(f) => {
                outln!("  FAIL {}: {f}", stage.name);
                failed = true;
            }
        }
    }
    match check_workload_distributions(refs) {
        Ok(cases) => outln!(
            "  ok   workload-distributions ({cases} cases over {} apps)",
            all().len()
        ),
        Err(f) => {
            outln!("  FAIL workload-distributions: {f}");
            failed = true;
        }
    }
    let machine = MachineConfig::paper_default();
    let mut lint_errors = 0usize;
    for s in Scheme::ALL {
        if has_errors(&machine.lint_scheme(s)) {
            outln!("  FAIL lint: scheme {s} has error-level lints");
            lint_errors += 1;
        }
    }
    if lint_errors == 0 {
        outln!("  ok   config-lints ({} schemes)", Scheme::ALL.len());
    } else {
        failed = true;
    }
    i32::from(failed)
}

/// Streams every workload's block addresses through each single-function
/// indexer and checks the measured set-index distribution stays inside
/// the statically predicted image (e.g. pMod never touches the 9 sets at
/// or above its modulus) and matches the symbolic model access-by-access.
fn check_workload_distributions(refs: u64) -> Result<u64, String> {
    let geom = Geometry::new(2048);
    // 64-bit models: exact for arbitrary workload address ranges.
    let mut indexers: Vec<(String, primecache_analyze::IndexModel, Box<dyn SetIndexer>)> =
        HashKind::ALL
            .into_iter()
            .map(|kind| {
                (
                    kind.label().to_owned(),
                    model_of(kind, geom, 64),
                    kind.build(geom),
                )
            })
            .collect();
    indexers.push((
        "XOR-fold".to_owned(),
        xor_folded_model(geom, 64),
        Box::new(XorFolded::new(geom)),
    ));
    let mut cases = 0u64;
    for w in all() {
        let blocks: Vec<u64> = w
            .trace(refs)
            .iter()
            .filter_map(primecache_trace::Event::addr)
            .map(|a| a / 64)
            .collect();
        for (name, model, idx) in &indexers {
            let n_set = model.n_set();
            for &b in &blocks {
                let predicted = model.eval(b);
                let measured = idx.index(b);
                if predicted != measured {
                    return Err(format!(
                        "{}/{name}: model predicts set {predicted}, indexer \
                         maps block {b:#x} to {measured}",
                        w.name
                    ));
                }
                if measured >= n_set {
                    return Err(format!(
                        "{}/{name}: block {b:#x} landed on set {measured}, \
                         outside the static image [0, {n_set})",
                        w.name
                    ));
                }
                cases += 1;
            }
        }
    }
    Ok(cases)
}

/// `pcache metrics --app <name>`: the §2 metrics over a workload's block
/// stream under each hash function.
fn metrics_app(app: &str, args: &Args) -> i32 {
    let Some(workload) = by_name(app) else {
        eprintln!("unknown workload '{app}' (try `pcache list`)");
        return 2;
    };
    let refs = match positive_refs(args, 100_000) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let geom = Geometry::new(2048);
    let blocks: Vec<u64> = workload
        .trace(refs)
        .iter()
        .filter_map(|e| e.addr())
        .map(|a| a / 64)
        .collect();
    let mut rows = Vec::new();
    for kind in HashKind::ALL {
        let idx = kind.build(geom);
        let mut m = OnlineMetrics::new(idx.n_set());
        for &b in &blocks {
            m.observe(&idx, b);
        }
        rows.push(vec![
            kind.label().to_owned(),
            format!("{:.3}", m.balance()),
            format!("{:.1}", m.concentration()),
            format!("{:.3}", m.uniformity()),
        ]);
    }
    outln!(
        "{app}: {} block accesses through a 2048-set geometry:
",
        blocks.len()
    );
    out!(
        "{}",
        render_table(&["hash", "balance", "concentration", "stdev/mean"], &rows)
    );
    0
}

/// `pcache report <app> [--scheme S] [--refs N] [--out FILE] [--compact]`
///
/// Runs one observed simulation and emits the versioned
/// `primecache.run-report` JSON document: provenance (config
/// fingerprint, git revision, wall and simulated time) and the full
/// named metric dump, read from the run's own statistics.
fn report(args: &Args) -> i32 {
    let Some(name) = args.positional() else {
        eprintln!("usage: {}", args.usage());
        return 2;
    };
    let Some(workload) = by_name(name) else {
        eprintln!("unknown workload '{name}' (try `pcache list`)");
        return 2;
    };
    let scheme_label = args.value("--scheme").unwrap_or("pMod");
    let scheme = match parse_scheme(scheme_label) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let refs = match args.parsed("--refs", 200_000u64) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let (report, _) = primecache_sim::observe::observed_report(
        workload,
        scheme,
        refs,
        primecache_obs::ObsConfig::default(),
    );
    let text = if args.has("--compact") {
        let mut t = report.to_json().render();
        t.push('\n');
        t
    } else {
        report.to_json().render_pretty()
    };
    match args.value("--out") {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &text) {
                eprintln!("cannot write {out}: {e}");
                return 1;
            }
            outln!("wrote run report for {name}/{scheme} to {out}");
        }
        None => out!("{text}"),
    }
    0
}

/// `pcache trace-events <app> [--scheme S] [--refs N] [--sample N]
/// [--ring N] [--out FILE]` and `pcache trace-events --sweep [--refs N]
/// [--out FILE]`
///
/// Emits JSONL: one event object per line (`"ev"` discriminates
/// access/eviction/dram/task; schema in OBSERVABILITY.md). The per-run
/// form traces one observed simulation; the `--sweep` form records the
/// scheduling of the parallel sweep.
fn trace_events(args: &Args) -> i32 {
    if args.has("--sweep") {
        return trace_events_sweep(args);
    }
    trace_events_run(args)
}

/// Writes `lines` of JSONL to `--out` or stdout.
fn emit_jsonl(args: &Args, events: &[primecache_obs::ObsEvent]) -> i32 {
    use primecache_obs::{EventSink, JsonlSink};
    let mut sink = match args.value("--out") {
        Some(out) => match std::fs::File::create(out) {
            Ok(f) => {
                JsonlSink::new(Box::new(std::io::BufWriter::new(f)) as Box<dyn std::io::Write>)
            }
            Err(e) => {
                eprintln!("cannot create {out}: {e}");
                return 1;
            }
        },
        None => JsonlSink::new(Box::new(std::io::stdout().lock()) as Box<dyn std::io::Write>),
    };
    for ev in events {
        sink.emit(ev);
    }
    if let Err(e) = sink.finish() {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("cannot write the events: {e}");
        return 1;
    }
    if let Some(out) = args.value("--out") {
        outln!("wrote {} events to {out}", events.len());
    }
    0
}

fn trace_events_run(args: &Args) -> i32 {
    let Some(name) = args.positional() else {
        eprintln!("usage: {}", args.usage());
        return 2;
    };
    let Some(workload) = by_name(name) else {
        eprintln!("unknown workload '{name}' (try `pcache list`)");
        return 2;
    };
    let scheme_label = args.value("--scheme").unwrap_or("pMod");
    let scheme = match parse_scheme(scheme_label) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let (refs, sample, ring) = match (
        args.parsed("--refs", 50_000u64),
        args.parsed("--sample", 1u64),
        args.parsed("--ring", 1usize << 20),
    ) {
        (Ok(r), Ok(s), Ok(g)) => (r, s, g),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let cfg = primecache_obs::ObsConfig {
        trace_events: true,
        sample_every: sample.max(1),
        ring_capacity: ring,
    };
    let mut recorder =
        primecache_sim::observe::run_workload_observed(workload, scheme, refs, cfg).recorder;
    if recorder.events_dropped() > 0 {
        eprintln!(
            "note: ring overflowed; {} oldest events dropped (raise --ring or --sample)",
            recorder.events_dropped()
        );
    }
    let mut mem = primecache_obs::MemorySink::default();
    recorder.drain_events(&mut mem);
    emit_jsonl(args, &mem.events)
}

/// `pcache trace-events --sweep [--refs N] [--out FILE]`: runs a small
/// parallel sweep and emits one `task` event per (workload, scheme)
/// cell, recording worker assignment and wall-clock placement.
fn trace_events_sweep(args: &Args) -> i32 {
    use primecache_obs::{EventKind, ObsEvent};
    let refs = match args.parsed("--refs", 20_000u64) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let sweep = run_sweep(&[Scheme::Base, Scheme::PrimeModulo], refs);
    let events: Vec<ObsEvent> = sweep
        .tasks
        .iter()
        .map(|t| ObsEvent {
            t: t.start_us,
            kind: EventKind::Task {
                workload: t.workload.to_owned(),
                scheme: t.scheme.to_owned(),
                cost: t.cost,
                worker: t.worker,
                start_us: t.start_us,
                end_us: t.end_us,
                wait_us: t.wait_us,
            },
        })
        .collect();
    emit_jsonl(args, &events)
}

/// `pcache trace <app> --out FILE [--refs N] [--format pcte|text]`
///
/// `pcte` (default) is the chunked recorded-trace frame, `text` the
/// line-oriented grammar of TRACE_FORMAT.md. Both exports come from the
/// same recording, so `pcache import` of the text file reproduces the
/// PCTE file byte-for-byte (same fingerprint) — `ci/ingest_smoke.sh`
/// pins it.
fn trace(args: &Args) -> i32 {
    let Some(name) = args.positional() else {
        eprintln!("usage: {}", args.usage());
        return 2;
    };
    let Some(workload) = by_name(name) else {
        eprintln!("unknown workload '{name}'");
        return 2;
    };
    let Some(out) = args.value("--out") else {
        eprintln!("--out FILE is required");
        return 2;
    };
    let refs = match args.parsed("--refs", 100_000u64) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let format = args.value("--format").unwrap_or("pcte");
    let (label, n_events, bytes) = match format {
        "pcte" => {
            let trace = workload.record(refs);
            ("PCTE frame", trace.events(), trace.to_bytes())
        }
        "text" => {
            let trace = workload.record(refs);
            let events = trace.decode_all().expect("a fresh recording decodes");
            let mut buf = Vec::new();
            write_text(events, &mut buf).expect("Vec<u8> writes cannot fail");
            ("text", trace.events(), buf)
        }
        other => {
            eprintln!("unknown --format '{other}' (pcte or text)");
            return 2;
        }
    };
    if let Err(e) = std::fs::write(out, &bytes) {
        eprintln!("cannot write {out}: {e}");
        return 1;
    }
    outln!(
        "wrote {n_events} events ({} bytes, {label}) to {out}",
        bytes.len()
    );
    0
}

/// `pcache import FILE [--out FILE] [--run] [--scheme S]`
///
/// Validates an external trace (line-oriented text or a PCTE frame,
/// sniffed by magic), converts it to the recorded PCTE form, and prints
/// provenance: source shape, event and reference counts, address range,
/// encoded size, and the frame fingerprint. `--out` writes the
/// conversion; `--run` simulates the imported trace through the
/// standard batched driver.
fn import(args: &Args) -> i32 {
    let Some(path) = args.positional() else {
        eprintln!("usage: {}", args.usage());
        return 2;
    };
    let imported = match import_path(path) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("cannot import {path}: {e}");
            return 1;
        }
    };
    let st = &imported.stats;
    outln!("{path}: valid {} source", st.format);
    if st.format == SourceFormat::Text {
        outln!(
            "  lines: {} ({} blank or comment-only)",
            st.lines,
            st.silent_lines
        );
    }
    outln!(
        "  events: {} ({} loads, {} stores, {} branches), {} refs, {} instructions",
        st.events,
        st.loads,
        st.stores,
        st.branches,
        st.refs(),
        st.instructions
    );
    match st.addr_range {
        Some((lo, hi)) => outln!("  address range: {lo:#x}..={hi:#x}"),
        None => outln!("  address range: (no memory events)"),
    }
    outln!(
        "  converted: {} chunks, {:.2} bytes/event, fingerprint {:016x}",
        imported.trace.chunks().len(),
        imported.trace.bytes_per_event(),
        imported.trace.fingerprint()
    );
    if let Some(out) = args.value("--out") {
        let bytes = imported.trace.to_bytes();
        if let Err(e) = std::fs::write(out, &bytes) {
            eprintln!("cannot write {out}: {e}");
            return 1;
        }
        outln!("  wrote PCTE frame ({} bytes) to {out}", bytes.len());
    }
    if args.has("--run") {
        let scheme_label = args.value("--scheme").unwrap_or("pMod");
        let scheme = match parse_scheme(scheme_label) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        let machine = MachineConfig::paper_default();
        let r = run_chunks(imported.chunks(), scheme, &machine);
        print_run_summary(&r);
    }
    0
}

/// The `--run` tail of [`import`]: a compact, diff-stable simulation
/// summary (`ci/ingest_smoke.sh` compares these lines across the text
/// and binary imports of the same trace).
fn print_run_summary(r: &RunResult) {
    outln!(
        "simulated under {}: {} cycles (busy {}, other {}, mem {})",
        r.scheme,
        r.breakdown.total(),
        r.breakdown.busy,
        r.breakdown.other_stall,
        r.breakdown.mem_stall
    );
    outln!(
        "  L1: {} accesses, {} misses; L2: {} accesses, {} misses",
        r.l1.accesses,
        r.l1.misses,
        r.l2.accesses,
        r.l2.misses
    );
    outln!(
        "  DRAM: {} reads, {} writes, {:.1}% row hits",
        r.dram.reads,
        r.dram.writes,
        r.dram.row_hit_rate() * 100.0
    );
}

/// `pcache inspect FILE` — summarizes a chunked PCTE frame.
fn inspect(args: &Args) -> i32 {
    let Some(path) = args.positional() else {
        eprintln!("usage: {}", args.usage());
        return 2;
    };
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    let trace = match EncodedTrace::from_bytes_diagnose(&data) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot decode {path}: {e}");
            return 1;
        }
    };
    let events = trace.decode_all().expect("a validated frame decodes");
    let stats: TraceStats = events.iter().collect();
    outln!(
        "{path}: PCTE frame, {} events, {} refs in {} chunks",
        trace.events(),
        trace.refs(),
        trace.chunks().len()
    );
    outln!(
        "  encoded: {} bytes ({:.2} bytes/event), fingerprint {:016x}",
        data.len(),
        trace.bytes_per_event(),
        trace.fingerprint()
    );
    print_trace_stats(&stats);
    0
}

/// The per-kind event breakdown [`inspect`] prints.
fn print_trace_stats(stats: &TraceStats) {
    outln!("  instructions: {}", stats.instructions);
    outln!(
        "  loads: {} ({} dependent), stores: {}",
        stats.loads,
        stats.dependent_loads,
        stats.stores
    );
    outln!(
        "  branches: {} ({} mispredicted)",
        stats.branches,
        stats.mispredicts
    );
    outln!(
        "  memory intensity: {:.1}%",
        stats.memory_intensity() * 100.0
    );
}

/// `pcache attack [--scheme S | --expr SRC] [--json] [--seed N]`: run the
/// black-box recovery engine and the three-tier eviction-set cost
/// measurement against one scheme (or all eight built-ins), and check
/// every recovered model against the static analyzer's — the
/// differential oracle. Exit code 1 when any scheme disagrees.
fn attack(args: &Args) -> i32 {
    let seed = match args.parsed("--seed", 0x5EEDu64) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let schemes: Vec<Scheme> = if let Some(src) = args.value("--expr") {
        match parse_scheme(&format!("expr:{src}")) {
            Ok(s) => vec![s],
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    } else if let Some(label) = args.value("--scheme") {
        match parse_scheme(label) {
            Ok(s) => vec![s],
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    } else {
        Scheme::ALL.to_vec()
    };
    let machine = MachineConfig::paper_default();
    let entries: Vec<AttackEntry> = schemes
        .iter()
        .map(|&s| attack_scheme(&machine, s, seed))
        .collect();
    let all_agree = entries.iter().all(|e| e.agrees_static);
    if args.has("--json") {
        outln!("{}", attack_report_json(&entries).render());
        return i32::from(!all_agree);
    }
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            let recovered = match &e.recovery.verdict {
                primecache_attack::Verdict::Model(m) => {
                    primecache_analyze::canonicalize(m).to_string()
                }
                primecache_attack::Verdict::Opaque { .. } => "opaque (declared)".to_owned(),
            };
            let tier = |name: &str| {
                e.eviction.tier(name).map_or_else(
                    || "—".to_owned(),
                    |t| {
                        if t.success {
                            format!("{} refs", t.cost.refs)
                        } else if t.detail.starts_with("skipped") {
                            "skipped".to_owned()
                        } else if t.detail.starts_with("recovery declared") {
                            "no model".to_owned()
                        } else {
                            "resists".to_owned()
                        }
                    },
                )
            };
            vec![
                e.scheme.clone(),
                recovered,
                e.recovery.cost.probes.to_string(),
                e.recovery.cost.refs.to_string(),
                if e.agrees_static { "agree" } else { "MISMATCH" }.to_owned(),
                tier("naive-stride"),
                tier("random-pool"),
                tier("informed"),
            ]
        })
        .collect();
    outln!(
        "black-box recovery + eviction-set cost over {PROBE_BITS} address bits \
         (informed tier includes recovery cost):\n"
    );
    out!(
        "{}",
        render_table(
            &[
                "scheme",
                "recovered model",
                "probes",
                "refs",
                "vs static",
                "naive evict",
                "pool evict",
                "informed evict"
            ],
            &rows
        )
    );
    outln!();
    if all_agree {
        outln!(
            "differential oracle: all {} scheme(s) agree with the static analyzer",
            entries.len()
        );
        0
    } else {
        outln!("differential oracle: MISMATCH — recovered and static models differ");
        1
    }
}

/// One scheme's full attack campaign: recovery against the direct probe
/// shape, then eviction-set cost against the native organization.
fn attack_scheme(machine: &MachineConfig, scheme: Scheme, seed: u64) -> AttackEntry {
    let mut direct = SimOracle::direct(machine, scheme, PROBE_BITS);
    let recovery = primecache_attack::recover(&mut direct, seed);
    let statik = static_model(machine, scheme, PROBE_BITS);
    let agrees_static = recovery.verdict.matches_static(statik.as_ref());
    let informed = match &recovery.verdict {
        primecache_attack::Verdict::Model(m) => Some(m.clone()),
        primecache_attack::Verdict::Opaque { .. } => None,
    };
    let mut native = SimOracle::native(machine, scheme, PROBE_BITS);
    let eviction = eviction_cost(&mut native, informed.as_ref(), recovery.cost, seed);
    AttackEntry {
        scheme: scheme.label().to_owned(),
        recovery,
        agrees_static,
        static_canonical: statik.as_ref().map(primecache_analyze::canonicalize),
        eviction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scheme_refuses_error_lints_and_names_them() {
        let err = parse_scheme("expr:a % 2046").unwrap_err();
        assert!(err.contains("non-prime-modulus"), "{err}");
        // Warning-only lints (XOR's null-space strides) pass the gate.
        assert!(!MachineConfig::paper_default()
            .lint_scheme(Scheme::Xor)
            .is_empty());
        assert_eq!(parse_scheme("XOR"), Ok(Scheme::Xor));
        assert!(parse_scheme("expr:a % 2039").is_ok());
    }

    #[test]
    fn rejected_sources_are_echoed_in_a_bounded_window() {
        // Short sources are shown whole.
        assert_eq!(window("a + a", 0), "a + a");
        // A long one shows the 64 bytes around the error, marked where
        // they are cut.
        let deep = format!("{}a{}", "(".repeat(10_000), ")".repeat(10_000));
        let err = parse_scheme(&format!("expr:{deep}")).unwrap_err();
        assert!(err.len() < 200, "{} bytes", err.len());
        assert!(err.contains("parse error at byte 128..129"), "{err}");
        assert_eq!(window(&deep, 128), format!("…{}…", "(".repeat(64)));
        assert_eq!(window(&deep, 20_000), format!("…{}", ")".repeat(64)));
        // Cuts never split a multi-byte character.
        let wide = "é".repeat(100);
        for at in 0..wide.len() {
            let shown = window(&wide, at);
            let body = shown.trim_matches('…');
            assert!(body.chars().all(|c| c == 'é') && body.len() >= 64, "{at}");
        }
    }
}
