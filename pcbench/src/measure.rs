//! The untraced run: set-up passes, then closed-loop timed repetitions
//! for the requested time, then the end-to-end metrics.
//!
//! Each time metric is the median of one reading per repetition, and
//! its quartiles are those of the same readings. Times are reference
//! seconds (see [`crate::hostspeed`]); the envelope also keeps the wall
//! rate and the host slowdown behind them.

use std::time::Instant;

use primecache_sim::MachineConfig;

use crate::envelope::{Measured, WorkloadResult};
use crate::hostspeed::HostClock;
use crate::metrics::{Better, EndToEnd, END_TO_END, FAIL_FRAC};
use crate::stats::{median, percentile, tail_resolved, Summary};
use crate::workloads::{check, run_rep, setup, threads, Spec};

/// Set-up passes per run; `setup_s` is their median.
pub const SETUP_PASSES: usize = 7;

/// Fewest timed repetitions per run, and the number a `--quick` run
/// makes.
pub const MIN_REPS: u64 = 3;

/// The pooled tail percentile kept in the envelope as `cell_ms_p90`.
pub const TAIL_PCT: u32 = 90;

/// Runs `spec` untraced: [`SETUP_PASSES`] timed set-ups, then
/// repetitions while another one fits in `seconds` (as long as the last
/// one took), and at least [`MIN_REPS`] (exactly [`MIN_REPS`] when
/// `quick`).
#[must_use]
pub fn measure(spec: &Spec, quick: bool, seed: u64, seconds: u64) -> WorkloadResult {
    let machine = MachineConfig::paper_default();
    let refs = spec.refs(quick);

    // Set-up is single-threaded whatever the workload.
    let mut setup_clock = HostClock::new(1);
    let mut setup_secs = Vec::with_capacity(SETUP_PASSES);
    let mut inputs = None;
    for _ in 0..SETUP_PASSES {
        drop(inputs.take());
        let (made, t) = setup_clock.time(|| setup(spec, refs, &machine));
        inputs = Some(made);
        setup_secs.push(t.secs());
    }
    let inputs = inputs.expect("at least one set-up pass ran");

    let mut clock = HostClock::new(threads(spec));
    let start = Instant::now();
    // One reading per repetition: refs per reference second and per
    // wall second, the host slowdown, and the median cell time in ms.
    // `pooled` holds every cell time.
    let (mut rates, mut wall_rates, mut slowdowns, mut rep_cell_p50, mut pooled) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut workers) = (0u64, 0u64, 1u64);
    let mut rep = 0u64;
    let mut last_rep_secs = 0.0;
    let mut peak_rss = None;
    while rep < MIN_REPS
        || (!quick && start.elapsed().as_secs_f64() + last_rep_secs <= seconds as f64)
    {
        rep += 1;
        let rep_start = Instant::now();
        let mut r = run_rep(spec, &inputs, refs, seed, rep, &machine, &mut clock);
        // Every repetition repeats the same work; later ones only add
        // allocator fragmentation, which varies run to run.
        if rep == 1 {
            peak_rss = peak_rss_mb();
        }
        rates.push(r.refs() as f64 / r.secs);
        wall_rates.push(r.refs() as f64 / r.wall_secs);
        slowdowns.push(r.wall_secs / r.secs);
        rep_cell_p50.extend(median(&r.cell_ms));
        pooled.extend(&r.cell_ms);
        r.failures.extend(check(spec, &inputs, refs, seed, &r));
        attempted += r.cells.len() as u64;
        failed += r.failures.len().min(r.cells.len().max(1)) as u64;
        workers = workers.max(r.workers);
        for f in r.failures.iter().take(3) {
            eprintln!("pcbench: {}: FAILED {f}", spec.name);
        }
        last_rep_secs = rep_start.elapsed().as_secs_f64();
    }

    let summary = |d: &EndToEnd, samples: &[f64]| {
        Measured::summary(
            d.name,
            d.unit,
            d.better,
            Some(d.bound),
            Summary::of(samples).expect("at least one sample"),
        )
    };
    let metrics = END_TO_END
        .iter()
        .map(|d| match d.name {
            "refs_per_s" => summary(d, &rates),
            "cell_ms_p50" => summary(d, &rep_cell_p50),
            "peak_rss_mb" => single(d, peak_rss.unwrap_or(0.0)),
            "setup_s" => summary(d, &setup_secs),
            other => unreachable!("no measurement for end-to-end metric {other}"),
        })
        .collect();

    let detail_summary = |name: &str, unit: &str, better: Better, samples: &[f64]| {
        Measured::summary(
            name,
            unit,
            better,
            None,
            Summary::of(samples).expect("at least one repetition"),
        )
    };
    let mut detail = vec![
        single(&FAIL_FRAC, failed as f64 / attempted.max(1) as f64),
        detail_summary("refs_per_wall_s", "refs/s", Better::Higher, &wall_rates),
        detail_summary("host_slowdown", "ratio", Better::Lower, &slowdowns),
    ];
    if tail_resolved(pooled.len(), TAIL_PCT) {
        let p90 = percentile(&pooled, TAIL_PCT).expect("samples");
        detail.push(Measured {
            n: pooled.len() as u64,
            ..Measured::single("cell_ms_p90", "ms", Better::Lower, None, p90)
        });
    }
    WorkloadResult {
        name: spec.name.to_owned(),
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        reps: rep,
        refs_per_app: refs,
        workers,
        metrics,
        detail,
    }
}

fn single(d: &EndToEnd, v: f64) -> Measured {
    Measured::single(d.name, d.unit, d.better, Some(d.bound), v)
}

/// Peak resident set (`VmHWM`) of this process in MB, where `/proc`
/// provides it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
