//! CLI subcommand implementations.

use primecache_analyze::{
    certify_all, certify_expr, has_errors, model_of, report_json, self_check, xor_folded_model,
    Theorem1,
};
use primecache_attack::{
    attack_report_json, eviction_cost, AttackEntry, EvictConfig, RecoveryConfig,
};
use primecache_core::index::{Geometry, HashKind, SetIndexer, XorFolded};
use primecache_core::metrics::{
    balance, concentration, strided_addresses, uniformity_ratio, violation_fraction, OnlineMetrics,
};
use primecache_ingest::text::write_text;
use primecache_ingest::{import_path, SourceFormat};
use primecache_sim::experiments::miss_taxonomy;
use primecache_sim::report::render_table;
use primecache_sim::suite::run_sweep;
use primecache_sim::{
    run_chunks, run_tenant_mix, run_workload, static_model, tenant_solo_baseline, MachineConfig,
    RunResult, Scheme, SimOracle, PROBE_BITS,
};
use primecache_trace::{read_trace, write_trace, EncodedTrace, TraceStats, FRAME_MAGIC};
use primecache_workloads::profile::profile_of;
use primecache_workloads::{all, by_name, MixConfig, TenantMix};

use crate::args::{flag_parsed, flag_value, positional};

/// Top-level usage text.
pub const USAGE: &str = "\
pcache — prime-number cache indexing simulator (HPCA 2004 reproduction)

USAGE:
  pcache list [--verbose]                  list the 23 workload models
  pcache run <app> [--scheme S] [--refs N] simulate one (workload, scheme)
  pcache classify [--refs N]               uniformity classification (§4)
  pcache sweep [--refs N]                  all apps x main schemes
  pcache metrics --stride S                balance/concentration at a stride
  pcache metrics --app <name> [--refs N]   same metrics over a workload trace
  pcache taxonomy [--refs N]               three-C miss decomposition
  pcache analyze [--json]                  static certificates + config lints
  pcache analyze --expr 'SRC' [--name N] [--json]
                                           certify one DSL index expression
  pcache analyze --self-check [--refs N]   cross-validate the static analyzer
  pcache attack [--scheme S | --expr SRC] [--json] [--seed N]
                                           black-box index recovery +
                                           eviction-set construction cost;
                                           checks every recovered model
                                           against the static one
  pcache report <app> [--scheme S] [--refs N] [--out FILE] [--compact]
               [--replay]                  self-describing run report (JSON);
                                           --replay simulates from a recorded
                                           trace and adds trace_store.* metrics
  pcache trace-events <app> [--scheme S] [--refs N] [--sample N] [--ring N]
                      [--out FILE]         per-access event trace (JSONL)
  pcache trace-events --sweep [--refs N] [--out FILE]
                                           sweep-task scheduling trace (JSONL)
  pcache trace <app> --out FILE [--refs N] [--format pct1|pcte|text]
                                           dump a trace (flat binary, recorded
                                           PCTE frame, or importable text)
  pcache import FILE [--out FILE] [--run] [--scheme S]
                                           validate + convert an external trace
                                           (text, PCTE, or flat PCT1; grammar in
                                           TRACE_FORMAT.md); --out writes the
                                           PCTE conversion, --run simulates it
  pcache sweep --tenants A,B[,...] [--refs N] [--quantum Q] [--seed S]
                                           interleave N workloads (or trace
                                           files) through one shared L2 and
                                           report per-scheme, per-tenant
                                           interference miss blowup
  pcache inspect FILE                      summarize a binary trace (flat PCT1
                                           or PCTE frame)

SCHEMES: Base, 8-way, XOR, pMod, pDisp, SKW, skw+pDisp, FA,
         or a DSL expression: expr:'a % 2039' (see DESIGN.md for the grammar;
         the scheme is statically certified before any simulation runs, and
         one with an error-level lint is refused with exit code 2)
";

/// Resolves a `--scheme` label, then runs the config lint pass on it:
/// a scheme with any error-level lint is refused before any simulation
/// runs. Warning-only lints pass.
fn parse_scheme(label: &str) -> Result<Scheme, String> {
    let scheme = if let Some(src) = label.strip_prefix("expr:") {
        primecache_core::expr::register_anonymous(src)
            .map(Scheme::Expr)
            .map_err(|e| format!("invalid expression scheme '{src}': {e}"))?
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
            scheme.label(),
            listed.join("\n")
        ));
    }
    Ok(scheme)
}

/// `pcache list [--verbose]`
pub fn list(args: &[String]) -> i32 {
    let verbose = args.iter().any(|a| a == "--verbose");
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
        print!(
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
        print!("{}", render_table(&["app", "suite", "class (§4)"], &rows));
    }
    0
}

/// `pcache run <app> [--scheme S] [--refs N]`
pub fn run(args: &[String]) -> i32 {
    let Some(name) = positional(args) else {
        eprintln!("usage: pcache run <app> [--scheme S] [--refs N]");
        return 2;
    };
    let Some(workload) = by_name(name) else {
        eprintln!("unknown workload '{name}' (try `pcache list`)");
        return 2;
    };
    let scheme_label = flag_value(args, "--scheme").unwrap_or("pMod");
    let scheme = match parse_scheme(scheme_label) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let refs = match flag_parsed(args, "--refs", 200_000u64) {
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
    println!("{name} under {scheme} ({refs} refs):");
    println!(
        "  cycles: {} (busy {}, other {}, mem {})",
        r.breakdown.total(),
        r.breakdown.busy,
        r.breakdown.other_stall,
        r.breakdown.mem_stall
    );
    println!(
        "  L1: {} accesses, {:.2}% miss; L2 demand: {} accesses, {:.2}% miss",
        r.l1.accesses,
        r.l1.miss_rate() * 100.0,
        r.l2.accesses,
        r.l2.miss_rate() * 100.0
    );
    println!(
        "  vs Base: time x{:.3}, misses x{:.3}",
        r.breakdown.total() as f64 / base.breakdown.total() as f64,
        r.l2.misses as f64 / base.l2.misses.max(1) as f64
    );
    println!(
        "  DRAM: {} reads, {} writes, {:.1}% row hits",
        r.dram.reads,
        r.dram.writes,
        r.dram.row_hit_rate() * 100.0
    );
    0
}

/// `pcache classify [--refs N]`
pub fn classify(args: &[String]) -> i32 {
    let refs = match flag_parsed(args, "--refs", 200_000u64) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut rows = Vec::new();
    for w in all() {
        let r = run_workload(w, Scheme::Base, refs);
        let cv = uniformity_ratio(&r.l2.set_accesses);
        rows.push(vec![
            w.name.to_owned(),
            format!("{cv:.3}"),
            if cv > 0.5 { "non-uniform" } else { "uniform" }.to_owned(),
            if (cv > 0.5) == w.expected_non_uniform {
                "="
            } else {
                "MISMATCH"
            }
            .to_owned(),
        ]);
    }
    print!(
        "{}",
        render_table(&["app", "stdev/mean", "class", "vs paper"], &rows)
    );
    0
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

/// `pcache sweep [--refs N]` / `pcache sweep --tenants A,B[,...]`
pub fn sweep(args: &[String]) -> i32 {
    if flag_value(args, "--tenants").is_some() {
        return sweep_tenants(args);
    }
    let refs = match flag_parsed(args, "--refs", 100_000u64) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let schemes = SWEEP_SCHEMES;
    let sweep = run_sweep(&schemes, refs);
    let mut header = vec!["app"];
    header.extend(schemes.iter().skip(1).map(|s| s.label()));
    let mut rows = Vec::new();
    for w in all() {
        let mut row = vec![w.name.to_owned()];
        for &s in schemes.iter().skip(1) {
            row.push(format!(
                "{:.3}",
                sweep.normalized_time(w.name, s).unwrap_or(f64::NAN)
            ));
        }
        rows.push(row);
    }
    println!("execution time normalized to Base ({refs} refs):\n");
    print!("{}", render_table(&header, &rows));
    if let Some(st) = sweep.store {
        println!(
            "\ntrace store: {} workloads recorded once ({} events, {} KB encoded), \
             {} replays served",
            st.records,
            st.events,
            st.encoded_bytes / 1024,
            st.replays
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
fn sweep_tenants(args: &[String]) -> i32 {
    let spec = flag_value(args, "--tenants").expect("caller checked the flag");
    let defaults = MixConfig::default();
    let (refs, quantum, seed) = match (
        flag_parsed(args, "--refs", 50_000u64),
        flag_parsed(args, "--quantum", defaults.quantum_instructions),
        flag_parsed(args, "--seed", defaults.seed),
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
            ..defaults
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
    println!(
        "{n} tenants time-sliced through one shared hierarchy \
         ({quantum}-instruction quanta, seed {seed:#x}):\n"
    );
    print!("{}", render_table(&header_refs, &rows));
    println!(
        "\nschedule: {quanta} quanta, {switches} tenant switches \
         (deterministic; L2 misses per tenant, solo = same stream alone)"
    );
    0
}

/// `pcache metrics --stride S [--sets N]` or `--app <name> [--refs N]`
pub fn metrics(args: &[String]) -> i32 {
    if let Some(app) = flag_value(args, "--app") {
        return metrics_app(app, args);
    }
    let stride = match flag_parsed(args, "--stride", 1u64) {
        Ok(v) if v > 0 => v,
        _ => {
            eprintln!("usage: pcache metrics --stride S [--sets N]");
            return 2;
        }
    };
    let sets = match flag_parsed(args, "--sets", 2048u64) {
        Ok(v) if v.is_power_of_two() && v >= 4 => v,
        _ => {
            eprintln!("--sets must be a power of two >= 4");
            return 2;
        }
    };
    let geom = Geometry::new(sets);
    let addrs = strided_addresses(stride, (sets * 4) as usize);
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
    println!("stride {stride} over {sets} physical sets:\n");
    print!(
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

/// `pcache taxonomy [--refs N]`
pub fn taxonomy(args: &[String]) -> i32 {
    let refs = match flag_parsed(args, "--refs", 150_000u64) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut rows = Vec::new();
    for w in all() {
        let t = miss_taxonomy(w, Scheme::Base, refs);
        rows.push(vec![
            w.name.to_owned(),
            t.compulsory.to_string(),
            t.capacity.to_string(),
            t.conflict.to_string(),
            format!("{:.0}%", t.conflict_fraction() * 100.0),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "app",
                "compulsory",
                "capacity",
                "conflict",
                "conflict share"
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
pub fn analyze(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--self-check") {
        return analyze_self_check(args);
    }
    if let Some(src) = flag_value(args, "--expr") {
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
    if args.iter().any(|a| a == "--json") {
        println!("{}", report_json(&certs, &bare));
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
    println!(
        "static certificates over {} address bits ({} L2 sets, {}-set skew banks):\n",
        in_bits,
        geom.n_set_phys(),
        bank_geom.n_set_phys()
    );
    print!(
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
    println!();
    if bare.is_empty() {
        println!(
            "config lints: all {} schemes clean; sweep shape {} tasks / {} workers ok",
            Scheme::ALL.len(),
            n_tasks,
            n_workers
        );
    } else {
        println!("config lints:");
        for (s, l) in &lints {
            println!("  {s}: {l}");
        }
        for l in &sweep_lints {
            println!("  sweep: {l}");
        }
    }
    i32::from(has_errors(&bare))
}

/// `pcache analyze --expr 'SRC' [--name N] [--json]`: compile one DSL
/// index expression, lower it to its abstract model, and print the
/// certificate plus the lints the paper machine's L2 geometry raises —
/// the same gate `--scheme expr:SRC` simulation runs behind.
fn analyze_expr(src: &str, args: &[String]) -> i32 {
    let registered = match flag_value(args, "--name") {
        Some(name) => primecache_core::expr::register(name, src),
        None => primecache_core::expr::register_anonymous(src),
    };
    let id = match registered {
        Ok(id) => id,
        Err(e) => {
            eprintln!("invalid expression '{src}': {e}");
            return 2;
        }
    };
    let machine = MachineConfig::paper_default();
    let (geom, _) = analysis_geometries(&machine);
    let in_bits = (2 * geom.index_bits() + 4).min(64);
    let cert = certify_expr(id.name().to_owned(), id.folded(), in_bits);
    let lints = machine.lint_scheme(Scheme::Expr(id));
    if args.iter().any(|a| a == "--json") {
        println!("{}", report_json(std::slice::from_ref(&cert), &lints));
        return i32::from(has_errors(&lints));
    }
    println!("expression: {src}");
    println!("  folded:      {}", id.folded());
    println!(
        "  certificate: {} ({} sets over {} address bits)",
        if cert.exact {
            "exact"
        } else {
            "sampled (opaque model)"
        },
        cert.n_set,
        cert.in_bits
    );
    println!("  rank {} / kernel dim {}", cert.rank, cert.kernel_dim);
    println!(
        "  permutation: {}; balance bound {:.2}{}",
        if cert.permutation { "yes" } else { "no" },
        cert.balance_bound,
        if cert.balanced { "" } else { " (UNBALANCED)" }
    );
    match cert.smallest_conflict_stride() {
        Some(d) => println!("  smallest conflict stride: {d}"),
        None => println!("  no universal conflict stride found"),
    }
    match &cert.theorem1 {
        Theorem1::Holds { modulus } => println!("  theorem 1: holds (p = {modulus})"),
        Theorem1::Fails { witness_stride } => {
            println!("  theorem 1: fails (witness stride {witness_stride})");
        }
        Theorem1::NoGuarantee => println!("  theorem 1: no guarantee"),
    }
    if lints.is_empty() {
        println!("  lints: clean — `--scheme expr:{src}` will simulate");
    } else {
        println!("  lints:");
        for l in &lints {
            println!("    {l}");
        }
        if has_errors(&lints) {
            println!("  the simulator's certificate gate REJECTS this scheme");
        }
    }
    i32::from(has_errors(&lints))
}

/// `pcache analyze --self-check [--refs N]`: the full static-vs-concrete
/// cross-validation battery, then the 23-workload distribution check.
fn analyze_self_check(args: &[String]) -> i32 {
    let refs = match flag_parsed(args, "--refs", 60_000u64) {
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
            None => println!("  ok   {} ({} cases)", stage.name, stage.cases),
            Some(f) => {
                println!("  FAIL {}: {f}", stage.name);
                failed = true;
            }
        }
    }
    match check_workload_distributions(refs) {
        Ok(cases) => println!(
            "  ok   workload-distributions ({cases} cases over {} apps)",
            all().len()
        ),
        Err(f) => {
            println!("  FAIL workload-distributions: {f}");
            failed = true;
        }
    }
    let machine = MachineConfig::paper_default();
    let mut lint_errors = 0usize;
    for s in Scheme::ALL {
        if has_errors(&machine.lint_scheme(s)) {
            println!("  FAIL lint: scheme {s} has error-level lints");
            lint_errors += 1;
        }
    }
    if lint_errors == 0 {
        println!("  ok   config-lints ({} schemes)", Scheme::ALL.len());
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
fn metrics_app(app: &str, args: &[String]) -> i32 {
    let Some(workload) = by_name(app) else {
        eprintln!("unknown workload '{app}' (try `pcache list`)");
        return 2;
    };
    let refs = match flag_parsed(args, "--refs", 100_000u64) {
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
    println!(
        "{app}: {} block accesses through a 2048-set geometry:
",
        blocks.len()
    );
    print!(
        "{}",
        render_table(&["hash", "balance", "concentration", "stdev/mean"], &rows)
    );
    0
}

/// `pcache report <app> [--scheme S] [--refs N] [--out FILE] [--compact]
/// [--replay]`
///
/// Runs one simulation and emits the versioned `primecache.run-report`
/// JSON document: provenance (config fingerprint, git revision, wall and
/// simulated time), the execution breakdown, per-level cache and DRAM
/// totals, and — when built with the `obs` feature — the full named
/// metric dump. With `--replay`, the simulation consumes a recorded
/// trace instead of a live generator (bit-identical results); the
/// metric dump then includes the `trace_store.*` family, and its
/// `stream.*` counters show the same chunk cadence as the live run.
pub fn report(args: &[String]) -> i32 {
    let Some(name) = positional(args) else {
        eprintln!(
            "usage: pcache report <app> [--scheme S] [--refs N] [--out FILE] \
             [--compact] [--replay]"
        );
        return 2;
    };
    let Some(workload) = by_name(name) else {
        eprintln!("unknown workload '{name}' (try `pcache list`)");
        return 2;
    };
    let scheme_label = flag_value(args, "--scheme").unwrap_or("pMod");
    let scheme = match parse_scheme(scheme_label) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let refs = match flag_parsed(args, "--refs", 200_000u64) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let replay = args.iter().any(|a| a == "--replay");
    #[cfg(feature = "obs")]
    let report = if replay {
        primecache_sim::observe::observed_report_replayed(
            workload,
            scheme,
            refs,
            primecache_obs::ObsConfig::default(),
        )
        .0
    } else {
        primecache_sim::observe::observed_report(
            workload,
            scheme,
            refs,
            primecache_obs::ObsConfig::default(),
        )
        .0
    };
    #[cfg(not(feature = "obs"))]
    let report = {
        if replay {
            eprintln!(
                "note: this pcache was built without the `obs` feature; --replay \
                 results are bit-identical to the live path, and the trace_store.* \
                 metrics need an obs build"
            );
        }
        primecache_sim::report_for_run(workload, scheme, refs)
    };
    let text = if args.iter().any(|a| a == "--compact") {
        let mut t = report.to_json().render();
        t.push('\n');
        t
    } else {
        report.to_json().render_pretty()
    };
    match flag_value(args, "--out") {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &text) {
                eprintln!("cannot write {out}: {e}");
                return 1;
            }
            println!("wrote run report for {name}/{scheme} to {out}");
        }
        None => print!("{text}"),
    }
    0
}

/// `pcache trace-events <app> [--scheme S] [--refs N] [--sample N]
/// [--ring N] [--out FILE]` and `pcache trace-events --sweep [--refs N]
/// [--out FILE]`
///
/// Emits JSONL: one event object per line (`"ev"` discriminates
/// access/eviction/dram/task; schema in OBSERVABILITY.md). The per-run
/// form needs the `obs` build feature; the `--sweep` form (scheduling
/// records of the parallel sweep) works in every build.
pub fn trace_events(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--sweep") {
        return trace_events_sweep(args);
    }
    trace_events_run(args)
}

/// Writes `lines` of JSONL to `--out` or stdout.
fn emit_jsonl(args: &[String], events: &[primecache_obs::ObsEvent]) -> i32 {
    use primecache_obs::{EventSink, JsonlSink};
    let mut sink = match flag_value(args, "--out") {
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
    let lines = sink.lines();
    if sink.finish().is_err() || lines != events.len() as u64 {
        eprintln!("short write: {lines} of {} events", events.len());
        return 1;
    }
    if let Some(out) = flag_value(args, "--out") {
        println!("wrote {lines} events to {out}");
    }
    0
}

#[cfg(feature = "obs")]
fn trace_events_run(args: &[String]) -> i32 {
    let Some(name) = positional(args) else {
        eprintln!(
            "usage: pcache trace-events <app> [--scheme S] [--refs N] \
             [--sample N] [--ring N] [--out FILE]"
        );
        return 2;
    };
    let Some(workload) = by_name(name) else {
        eprintln!("unknown workload '{name}' (try `pcache list`)");
        return 2;
    };
    let scheme_label = flag_value(args, "--scheme").unwrap_or("pMod");
    let scheme = match parse_scheme(scheme_label) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let (refs, sample, ring) = match (
        flag_parsed(args, "--refs", 50_000u64),
        flag_parsed(args, "--sample", 1u64),
        flag_parsed(args, "--ring", 1usize << 20),
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
    let (report, mut recorder) =
        primecache_sim::observe::observed_report(workload, scheme, refs, cfg);
    if report.events_dropped > 0 {
        eprintln!(
            "note: ring overflowed; {} oldest events dropped (raise --ring or --sample)",
            report.events_dropped
        );
    }
    let mut mem = primecache_obs::MemorySink::default();
    recorder.drain_events(&mut mem);
    emit_jsonl(args, &mem.events)
}

#[cfg(not(feature = "obs"))]
fn trace_events_run(_args: &[String]) -> i32 {
    eprintln!(
        "this pcache was built without the `obs` feature; per-access event \
         tracing is unavailable (rebuild with `--features obs`). \
         `pcache trace-events --sweep` works in every build."
    );
    2
}

/// `pcache trace-events --sweep [--refs N] [--out FILE]`: runs a small
/// parallel sweep and emits one `task` event per (workload, scheme)
/// cell, recording worker assignment and wall-clock placement.
fn trace_events_sweep(args: &[String]) -> i32 {
    use primecache_obs::{EventKind, ObsEvent};
    let refs = match flag_parsed(args, "--refs", 20_000u64) {
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
            },
        })
        .collect();
    emit_jsonl(args, &events)
}

/// `pcache trace <app> --out FILE [--refs N] [--format pct1|pcte|text]`
///
/// `pct1` (default) is the flat binary dump, `pcte` the chunked
/// recorded-trace frame, `text` the line-oriented grammar of
/// TRACE_FORMAT.md. The `pcte` and `text` exports come from the same
/// recording, so `pcache import` of the text file reproduces the PCTE
/// file byte-for-byte (same fingerprint) — `ci/ingest_smoke.sh` pins it.
pub fn trace(args: &[String]) -> i32 {
    let Some(name) = positional(args) else {
        eprintln!("usage: pcache trace <app> --out FILE [--refs N] [--format pct1|pcte|text]");
        return 2;
    };
    let Some(workload) = by_name(name) else {
        eprintln!("unknown workload '{name}'");
        return 2;
    };
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("--out FILE is required");
        return 2;
    };
    let refs = match flag_parsed(args, "--refs", 100_000u64) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let format = flag_value(args, "--format").unwrap_or("pct1");
    let (label, n_events, bytes) = match format {
        "pct1" => {
            let events = workload.trace(refs);
            let bytes = write_trace(&events);
            ("flat PCT1", events.len() as u64, bytes)
        }
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
            eprintln!("unknown --format '{other}' (pct1, pcte, or text)");
            return 2;
        }
    };
    if let Err(e) = std::fs::write(out, &bytes) {
        eprintln!("cannot write {out}: {e}");
        return 1;
    }
    println!(
        "wrote {n_events} events ({} bytes, {label}) to {out}",
        bytes.len()
    );
    0
}

/// `pcache import FILE [--out FILE] [--run] [--scheme S]`
///
/// Validates an external trace (line-oriented text, a PCTE frame, or a
/// legacy flat PCT1 dump — sniffed by magic), converts it to the
/// recorded PCTE form, and prints provenance: source shape, event and
/// reference counts, address range, encoded size, and the frame
/// fingerprint. `--out` writes the conversion; `--run` simulates the
/// imported trace through the standard batched driver.
pub fn import(args: &[String]) -> i32 {
    let Some(path) = positional(args) else {
        eprintln!("usage: pcache import FILE [--out FILE] [--run] [--scheme S]");
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
    println!("{path}: valid {} source", st.format);
    if st.format == SourceFormat::Text {
        println!(
            "  lines: {} ({} blank or comment-only)",
            st.lines, st.silent_lines
        );
    }
    println!(
        "  events: {} ({} loads, {} stores, {} branches), {} refs, {} instructions",
        st.events,
        st.loads,
        st.stores,
        st.branches,
        st.refs(),
        st.instructions
    );
    match st.addr_range {
        Some((lo, hi)) => println!("  address range: {lo:#x}..={hi:#x}"),
        None => println!("  address range: (no memory events)"),
    }
    println!(
        "  converted: {} chunks, {:.2} bytes/event, fingerprint {:016x}",
        imported.trace.chunks().len(),
        imported.trace.bytes_per_event(),
        imported.trace.fingerprint()
    );
    if let Some(out) = flag_value(args, "--out") {
        let bytes = imported.trace.to_bytes();
        if let Err(e) = std::fs::write(out, &bytes) {
            eprintln!("cannot write {out}: {e}");
            return 1;
        }
        println!("  wrote PCTE frame ({} bytes) to {out}", bytes.len());
    }
    if args.iter().any(|a| a == "--run") {
        let scheme_label = flag_value(args, "--scheme").unwrap_or("pMod");
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
    println!(
        "simulated under {}: {} cycles (busy {}, other {}, mem {})",
        r.scheme,
        r.breakdown.total(),
        r.breakdown.busy,
        r.breakdown.other_stall,
        r.breakdown.mem_stall
    );
    println!(
        "  L1: {} accesses, {} misses; L2: {} accesses, {} misses, {} writebacks",
        r.l1.accesses, r.l1.misses, r.l2.accesses, r.l2.misses, r.l2.writebacks
    );
    println!(
        "  DRAM: {} reads, {} writes, {:.1}% row hits",
        r.dram.reads,
        r.dram.writes,
        r.dram.row_hit_rate() * 100.0
    );
}

/// `pcache inspect FILE` — summarizes a flat PCT1 dump or a chunked
/// PCTE frame (recognized by magic).
pub fn inspect(args: &[String]) -> i32 {
    let Some(path) = positional(args) else {
        eprintln!("usage: pcache inspect FILE");
        return 2;
    };
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    if data.starts_with(FRAME_MAGIC) {
        let trace = match EncodedTrace::from_bytes_diagnose(&data) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot decode {path}: {e}");
                return 1;
            }
        };
        let events = trace.decode_all().expect("a validated frame decodes");
        let stats: TraceStats = events.iter().collect();
        println!(
            "{path}: PCTE frame, {} events, {} refs in {} chunks",
            trace.events(),
            trace.refs(),
            trace.chunks().len()
        );
        println!(
            "  encoded: {} bytes ({:.2} bytes/event), fingerprint {:016x}",
            data.len(),
            trace.bytes_per_event(),
            trace.fingerprint()
        );
        print_trace_stats(&stats);
        return 0;
    }
    let events = match read_trace(&data) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("cannot decode {path}: {e}");
            return 1;
        }
    };
    let stats: TraceStats = events.iter().collect();
    println!("{path}: {} events", events.len());
    print_trace_stats(&stats);
    0
}

/// The per-kind event breakdown shared by both [`inspect`] branches.
fn print_trace_stats(stats: &TraceStats) {
    println!("  instructions: {}", stats.instructions);
    println!(
        "  loads: {} ({} dependent), stores: {}",
        stats.loads, stats.dependent_loads, stats.stores
    );
    println!(
        "  branches: {} ({} mispredicted)",
        stats.branches, stats.mispredicts
    );
    println!(
        "  memory intensity: {:.1}%",
        stats.memory_intensity() * 100.0
    );
}

/// `pcache attack [--scheme S | --expr SRC] [--json] [--seed N]`: run the
/// black-box recovery engine and the three-tier eviction-set cost
/// measurement against one scheme (or all eight built-ins), and check
/// every recovered model against the static analyzer's — the
/// differential oracle. Exit code 1 when any scheme disagrees.
pub fn attack(args: &[String]) -> i32 {
    let seed = match flag_parsed(args, "--seed", 0x5EEDu64) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let schemes: Vec<Scheme> = if let Some(src) = flag_value(args, "--expr") {
        match parse_scheme(&format!("expr:{src}")) {
            Ok(s) => vec![s],
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    } else if let Some(label) = flag_value(args, "--scheme") {
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
    if args.iter().any(|a| a == "--json") {
        println!("{}", attack_report_json(&entries));
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
    println!(
        "black-box recovery + eviction-set cost over {PROBE_BITS} address bits \
         (informed tier includes recovery cost):\n"
    );
    print!(
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
    println!();
    if all_agree {
        println!(
            "differential oracle: all {} scheme(s) agree with the static analyzer",
            entries.len()
        );
        0
    } else {
        println!("differential oracle: MISMATCH — recovered and static models differ");
        1
    }
}

/// One scheme's full attack campaign: recovery against the direct probe
/// shape, then eviction-set cost against the native organization.
fn attack_scheme(machine: &MachineConfig, scheme: Scheme, seed: u64) -> AttackEntry {
    let rcfg = RecoveryConfig {
        seed,
        ..RecoveryConfig::default()
    };
    let mut direct = SimOracle::direct(machine, scheme, PROBE_BITS);
    let recovery = primecache_attack::recover(&mut direct, &rcfg);
    let statik = static_model(machine, scheme, PROBE_BITS);
    let agrees_static = recovery.verdict.matches_static(statik.as_ref());
    let informed = match &recovery.verdict {
        primecache_attack::Verdict::Model(m) => Some(m.clone()),
        primecache_attack::Verdict::Opaque { .. } => None,
    };
    let mut native = SimOracle::native(machine, scheme, PROBE_BITS);
    let eviction = eviction_cost(
        &mut native,
        informed.as_ref(),
        recovery.cost,
        &EvictConfig {
            seed,
            ..EvictConfig::default()
        },
    );
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
}
