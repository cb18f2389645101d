//! The `pcbench` command line.
//!
//! ```text
//! pcbench [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--out FILE] [--quick]
//! pcbench --bless [--workload NAME]
//! pcbench --compare A.json B.json
//! ```
//!
//! With `--workload` the workload runs in this process. Without it each
//! workload runs in a child process of its own (so `peak_rss_mb` is per
//! workload), one after another. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and every metric
//! with its unit.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use primecache_sim::MachineConfig;

use crate::compare::{compare, Verdict};
use crate::envelope::{BenchResult, Provenance, WorkloadResult};
use crate::golden::{self, Golden};
use crate::hostspeed::HostClock;
use crate::layers::traced;
use crate::measure::measure;
use crate::workloads::{run_rep, setup, Spec, DEFAULT_SEED, WORKLOADS};

/// Measuring time per workload when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`, which passes it as `--seconds`
/// (a test keeps the two equal). `--quick` ignores it.
pub const DEFAULT_SECONDS: u64 = 30;

const USAGE: &str = "usage: pcbench [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--out FILE] [--quick]
       pcbench --bless [--workload NAME]
       pcbench --compare A.json B.json";

/// Parsed command-line flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// Run only this workload, in this process.
    pub workload: Option<&'static Spec>,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time per workload.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Where to write the result envelope.
    pub out: Option<PathBuf>,
    /// Tiny inputs and the fewest repetitions, for smoke tests.
    pub quick: bool,
    /// Rewrite the golden file instead of measuring.
    pub bless: bool,
    /// Compare two result envelopes instead of measuring.
    pub compare: Option<(PathBuf, PathBuf)>,
}

/// Parses the flags (program name excluded).
///
/// # Errors
///
/// A message naming the bad flag or value.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        quick: false,
        bless: false,
        compare: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(Spec::by_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => out.seed = number(value("a number")?)?,
            "--seconds" => out.seconds = number(value("a number")?)?,
            "--out" => out.out = Some(PathBuf::from(value("a file")?)),
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => out.quick = true,
            "--bless" => out.bless = true,
            "--compare" => {
                let a = value("two files")?;
                let b = value("two files")?;
                out.compare = Some((PathBuf::from(a), PathBuf::from(b)));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

/// Runs the command; returns the process exit code (0 success, 1 a
/// failed check or comparison, 2 bad usage).
#[must_use]
pub fn main(raw: Vec<String>) -> i32 {
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pcbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if args.bless {
        bless(args.workload)
    } else {
        run(&args)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("pcbench: {e}");
        1
    })
}

fn run(args: &Args) -> Result<i32, String> {
    let workloads = match args.workload {
        Some(spec) => vec![run_here(spec, args)?],
        None => run_children(args)?,
    };
    let result = BenchResult {
        provenance: Provenance {
            git_rev: git_rev(),
            nproc: nproc(),
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
            trace: args.trace,
        },
        workloads,
    };
    print_table(&result);
    if let Some(path) = &args.out {
        std::fs::write(path, result.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", result.summary_line());
    Ok(if result.correct() { 0 } else { 1 })
}

fn run_here(spec: &Spec, args: &Args) -> Result<WorkloadResult, String> {
    if !args.trace {
        return Ok(measure(spec, args.quick, args.seed, args.seconds));
    }
    let (result, tracer) = traced(spec, args.quick, args.seed);
    let path = work_dir()?.join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
    std::fs::write(&path, tracer.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "pcbench: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(result)
}

/// Runs every workload in a child process of its own, one at a time.
fn run_children(args: &Args) -> Result<Vec<WorkloadResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate pcbench: {e}"))?;
    let dir = work_dir()?;
    let mut results = Vec::new();
    for spec in &WORKLOADS {
        let out = dir.join(format!("{}-{}.json", spec.name, std::process::id()));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&out)
            .stdout(Stdio::null());
        if args.quick {
            cmd.arg("--quick");
        }
        eprintln!("pcbench: running {} ...", spec.name);
        let status = cmd
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let text = std::fs::read_to_string(&out)
            .map_err(|e| format!("{} ({status}) left no result: {e}", spec.name))?;
        let _ = std::fs::remove_file(&out);
        results.extend(BenchResult::from_json(&text)?.workloads);
    }
    Ok(results)
}

/// Scratch directory beside the executable, inside the build tree.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate pcbench: {e}"))?;
    let dir = exe
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
        .join("pcbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn print_table(result: &BenchResult) {
    let p = &result.provenance;
    eprintln!(
        "pcbench: rev {} | nproc {} | seed {} | {}{}",
        p.git_rev,
        p.nproc,
        p.seed,
        if p.trace { "traced" } else { "untraced" },
        if p.quick { " | quick" } else { "" }
    );
    for w in &result.workloads {
        eprintln!(
            "{} — {} reps, {} refs/app, {} worker(s), {}/{} cells failed",
            w.name, w.reps, w.refs_per_app, w.workers, w.failed, w.attempted
        );
        for m in w.metrics.iter().chain(&w.detail) {
            let spread = if m.n > 1 && m.q1 != m.q3 {
                format!("  [q1 {:.6} q3 {:.6} n {}]", m.q1, m.q3, m.n)
            } else {
                String::new()
            };
            eprintln!("  {:<40} {:>16.6} {}{spread}", m.name, m.value, m.unit);
        }
    }
}

fn compare_files(a: &Path, b: &Path) -> Result<i32, String> {
    let load = |p: &Path| {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        BenchResult::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two results share no workload metric".to_owned());
    }
    println!(
        "{:<16} {:<14} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by"
    );
    for r in &rows {
        println!(
            "{:<16} {:<14} {:>16.6} {:>16.6} {:>8.2}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.change,
            r.worsening * 100.0,
            r.verdict.as_str()
        );
    }
    Ok(i32::from(rows.iter().any(|r| r.verdict == Verdict::Worse)))
}

/// Rewrites the golden cells of `only` (or every workload) at both the
/// full and the quick input size, with [`DEFAULT_SEED`].
fn bless(only: Option<&'static Spec>) -> Result<i32, String> {
    let machine = MachineConfig::paper_default();
    let mut golden = Golden::parse(golden::EMBEDDED)?;
    for spec in WORKLOADS
        .iter()
        .filter(|s| only.is_none_or(|o| o.name == s.name))
    {
        golden.clear_workload(spec.name);
        for quick in [false, true] {
            let refs = spec.refs(quick);
            let inputs = setup(spec, refs, &machine);
            let mut clock = HostClock::new(1);
            let rep = run_rep(spec, &inputs, refs, DEFAULT_SEED, 0, &machine, &mut clock);
            if !rep.failures.is_empty() {
                return Err(format!("{}: {}", spec.name, rep.failures.join("; ")));
            }
            for c in &rep.cells {
                golden.insert(
                    spec.name,
                    refs,
                    &c.app,
                    c.scheme.label(),
                    golden::values_of(&c.result),
                );
            }
            eprintln!(
                "pcbench: blessed {} cells of {} at {refs} refs/app",
                rep.cells.len(),
                spec.name
            );
        }
    }
    let path = golden::path();
    std::fs::write(&path, golden.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "pcbench: wrote {} golden cells to {}",
        golden.len(),
        path.display()
    );
    Ok(0)
}
