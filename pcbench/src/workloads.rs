//! The four benchmark workloads: their inputs, set-up, one timed
//! repetition, and the checks run on its results outside the timed
//! region.

use std::collections::BTreeMap;

use primecache_ingest::import_bytes;
use primecache_sim::suite::run_sweep;
use primecache_sim::{run_recorded, run_tenant_mix, MachineConfig, RunResult, Scheme, TenantRun};
use primecache_trace::EncodedTrace;
use primecache_workloads::{all, by_name, Lcg, MixConfig, TenantMix};

use crate::golden::Golden;
use crate::hostspeed::{HostClock, Timed};

/// The seed the golden `ingest-tenants` cells were blessed with. Other
/// seeds change its interleaving, so they are checked by invariants.
pub const DEFAULT_SEED: u64 = 1;

/// How a workload drives the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `run_sweep` over all 23 applications, its own worker threads.
    Sweep,
    /// `run_recorded` per (app, scheme) cell from traces recorded in
    /// set-up, one thread.
    Recorded,
    /// Text traces imported each repetition, interleaved by a seeded
    /// `TenantMix`, run by `run_tenant_mix`, one thread.
    Tenants,
}

/// One workload definition.
#[derive(Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Why the benchmark includes it.
    pub why: &'static str,
    /// How it drives the simulator.
    pub kind: Kind,
    /// Applications (empty: all 23).
    pub apps: &'static [&'static str],
    /// Schemes, by label (`expr:pMod` is registered on first use).
    pub schemes: &'static [&'static str],
    /// Memory references per application trace.
    pub refs: u64,
    /// Memory references per application trace under `--quick`.
    pub quick_refs: u64,
}

/// Every label of `Scheme::ALL` plus the DSL-compiled pMod.
const SWEEP_SCHEMES: &[&str] = &[
    "Base",
    "8-way",
    "XOR",
    "pMod",
    "pDisp",
    "SKW",
    "skw+pDisp",
    "FA",
    "expr:pMod",
];

/// The benchmark's workloads. The 23 generators keep their built-in
/// seeds, which are part of these definitions.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "paper-sweep",
        why: "the full 23-app x 9-scheme sweep users wait for; every layer plus recording and sweep scheduling",
        kind: Kind::Sweep,
        apps: &[],
        schemes: SWEEP_SCHEMES,
        refs: 50_000,
        quick_refs: 2_000,
    },
    Spec {
        name: "miss-storm",
        why: "L2-miss-heavy apps under four L2 organizations; L2 and DRAM costs dominate",
        kind: Kind::Recorded,
        apps: &["gap", "mcf", "equake", "parser"],
        schemes: &["Base", "pMod", "SKW", "FA"],
        refs: 1_000_000,
        quick_refs: 5_000,
    },
    Spec {
        name: "l1-resident",
        why: "L1 serves most references; the control an L2 or DRAM change should not move",
        kind: Kind::Recorded,
        apps: &["mgrid", "tomcatv", "nbf", "moldyn"],
        schemes: &["Base", "pMod"],
        refs: 2_000_000,
        quick_refs: 5_000,
    },
    Spec {
        name: "ingest-tenants",
        why: "text import plus a seeded three-tenant interleaving; the only workload that parses input",
        kind: Kind::Tenants,
        apps: &["mcf", "cg", "swim"],
        schemes: &["Base", "pMod"],
        refs: 200_000,
        quick_refs: 2_000,
    },
];

impl Spec {
    /// Looks a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The application names, in order.
    #[must_use]
    pub fn app_names(&self) -> Vec<&'static str> {
        if self.apps.is_empty() {
            all().iter().map(|w| w.name).collect()
        } else {
            self.apps.to_vec()
        }
    }

    /// The schemes, resolved (registering `expr:pMod` when listed).
    #[must_use]
    pub fn resolve_schemes(&self) -> Vec<Scheme> {
        self.schemes.iter().map(|l| scheme(l)).collect()
    }

    /// Cells one repetition runs.
    #[must_use]
    pub fn cells_per_rep(&self) -> usize {
        match self.kind {
            Kind::Tenants => self.schemes.len(),
            Kind::Sweep | Kind::Recorded => self.app_names().len() * self.schemes.len(),
        }
    }

    /// Memory references per application for a full or quick run.
    #[must_use]
    pub fn refs(&self, quick: bool) -> u64 {
        if quick {
            self.quick_refs
        } else {
            self.refs
        }
    }

    /// The app label of the single mixed cell of a tenants workload.
    #[must_use]
    pub fn mix_label(&self) -> String {
        self.apps.join("+")
    }
}

/// Resolves a scheme label.
///
/// # Panics
///
/// On a label no workload uses (a bug in [`WORKLOADS`]).
#[must_use]
pub fn scheme(label: &str) -> Scheme {
    if label == "expr:pMod" {
        let id = primecache_core::expr::register("expr:pMod", "a % 2039")
            .expect("the built-in pMod expression compiles");
        return Scheme::Expr(id);
    }
    *Scheme::ALL
        .iter()
        .find(|s| s.label() == label)
        .unwrap_or_else(|| panic!("unknown scheme label {label}"))
}

/// The tenant-mix configuration for a seed.
#[must_use]
pub fn mix_config(seed: u64) -> MixConfig {
    MixConfig {
        seed,
        ..MixConfig::default()
    }
}

/// A workload's prepared inputs.
#[derive(Debug)]
pub struct Inputs {
    /// Resolved (and lint-checked) schemes.
    pub schemes: Vec<Scheme>,
    /// The golden results.
    pub golden: Golden,
    /// Recorded traces, per app (empty for the sweep, which records
    /// inside each repetition).
    pub traces: Vec<(&'static str, EncodedTrace)>,
    /// Text exports of `traces` (tenants only).
    pub texts: Vec<Vec<u8>>,
}

/// Builds a workload's inputs: resolves and lint-checks its schemes,
/// loads the golden file, records its traces and, for tenants, exports
/// them as text.
///
/// # Panics
///
/// When the embedded golden file does not parse, or a listed app does
/// not exist (bugs in this package).
#[must_use]
pub fn setup(spec: &Spec, refs: u64, machine: &MachineConfig) -> Inputs {
    let schemes = spec.resolve_schemes();
    for &s in &schemes {
        machine.check_scheme(s);
    }
    let golden = Golden::parse(crate::golden::EMBEDDED).expect("embedded golden file parses");
    let traces: Vec<(&'static str, EncodedTrace)> = match spec.kind {
        Kind::Sweep => Vec::new(),
        Kind::Recorded | Kind::Tenants => spec
            .apps
            .iter()
            .map(|&a| (a, by_name(a).expect("benchmark apps exist").record(refs)))
            .collect(),
    };
    let texts = match spec.kind {
        Kind::Tenants => traces.iter().map(|(_, t)| text_export(t)).collect(),
        Kind::Sweep | Kind::Recorded => Vec::new(),
    };
    Inputs {
        schemes,
        golden,
        traces,
        texts,
    }
}

/// A trace in the text format `import_bytes` reads.
#[must_use]
pub fn text_export(trace: &EncodedTrace) -> Vec<u8> {
    let mut buf = Vec::new();
    primecache_ingest::text::write_text(trace.replay(), &mut buf)
        .expect("writing to a Vec cannot fail");
    buf
}

/// One cell's result.
#[derive(Debug)]
pub struct CellResult {
    /// The app, or the `a+b+c` label of a tenant mix.
    pub app: String,
    /// The scheme.
    pub scheme: Scheme,
    /// What the simulator produced (the aggregate, for a mix).
    pub result: RunResult,
}

/// One timed repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Reference seconds of the timed segments (see [`crate::hostspeed`]).
    pub secs: f64,
    /// Wall seconds of the same segments.
    pub wall_secs: f64,
    /// Reference milliseconds of each cell.
    pub cell_ms: Vec<f64>,
    /// Sweep worker threads (1 for single-threaded workloads).
    pub workers: u64,
    /// Every cell's result.
    pub cells: Vec<CellResult>,
    /// Invariant violations found after the timed region.
    pub failures: Vec<String>,
}

impl Rep {
    /// Memory references simulated: L1 demand accesses over all cells.
    #[must_use]
    pub fn refs(&self) -> u64 {
        self.cells.iter().map(|c| c.result.l1.accesses).sum()
    }

    /// Adds a timed segment to the repetition's time.
    fn add(&mut self, t: Timed) {
        self.secs += t.secs();
        self.wall_secs += t.wall;
    }
}

/// Simulation threads a workload runs: `run_sweep`'s worker count for
/// the sweep, one otherwise. Its [`HostClock`] probes that many.
#[must_use]
pub fn threads(spec: &Spec) -> usize {
    match spec.kind {
        Kind::Sweep => std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(spec.cells_per_rep()),
        Kind::Recorded | Kind::Tenants => 1,
    }
}

/// Runs one repetition of `spec`, each segment timed by `clock`.
/// Invariants that need the repetition's intermediate state (imports,
/// tenant lanes) are checked after the clock stops; golden results are
/// checked by [`check`].
#[must_use]
pub fn run_rep(
    spec: &Spec,
    inputs: &Inputs,
    refs: u64,
    seed: u64,
    rep: u64,
    machine: &MachineConfig,
    clock: &mut HostClock,
) -> Rep {
    match spec.kind {
        Kind::Sweep => sweep_rep(inputs, refs, clock),
        Kind::Recorded => recorded_rep(inputs, seed, rep, machine, clock),
        Kind::Tenants => tenants_rep(spec, inputs, seed, machine, clock),
    }
}

/// Golden-file failures of a repetition's cells. A tenant mix run
/// with another seed than [`DEFAULT_SEED`] has no golden cells; its
/// invariants are its check.
#[must_use]
pub fn check(spec: &Spec, inputs: &Inputs, refs: u64, seed: u64, rep: &Rep) -> Vec<String> {
    let expected = spec.cells_per_rep();
    let mut failures = Vec::new();
    if rep.cells.len() != expected {
        failures.push(format!(
            "{} cells ran, expected {expected}",
            rep.cells.len()
        ));
    }
    if spec.kind == Kind::Tenants && seed != DEFAULT_SEED {
        return failures;
    }
    for c in &rep.cells {
        if !inputs
            .golden
            .matches(spec.name, refs, &c.app, c.scheme.label(), &c.result)
        {
            failures.push(format!("{}/{}: differs from golden", c.app, c.scheme));
        }
    }
    failures
}

fn sweep_rep(inputs: &Inputs, refs: u64, clock: &mut HostClock) -> Rep {
    let (sweep, t) = clock.time(|| run_sweep(&inputs.schemes, refs));
    Rep {
        secs: t.secs(),
        wall_secs: t.wall,
        cell_ms: sweep
            .tasks
            .iter()
            .map(|task| t.rescale((task.end_us - task.start_us) as f64 / 1e3))
            .collect(),
        workers: sweep
            .tasks
            .iter()
            .map(|t| u64::from(t.worker) + 1)
            .max()
            .unwrap_or(1),
        cells: sweep
            .cells
            .into_values()
            .flat_map(BTreeMap::into_values)
            .map(|c| CellResult {
                app: c.workload.to_owned(),
                scheme: c.result.scheme,
                result: c.result,
            })
            .collect(),
        failures: Vec::new(),
    }
}

/// The (app, scheme) cells of a recorded workload in the order one
/// repetition runs them: a permutation drawn from the seed and the
/// repetition index.
#[must_use]
pub fn cell_order(n_apps: usize, n_schemes: usize, seed: u64, rep: u64) -> Vec<(usize, usize)> {
    let mut cells: Vec<(usize, usize)> = (0..n_apps)
        .flat_map(|a| (0..n_schemes).map(move |s| (a, s)))
        .collect();
    let mut rng = Lcg::new(seed ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in (1..cells.len()).rev() {
        let j = usize::try_from(rng.below(i as u64 + 1)).expect("index fits usize");
        cells.swap(i, j);
    }
    cells
}

fn recorded_rep(
    inputs: &Inputs,
    seed: u64,
    rep: u64,
    machine: &MachineConfig,
    clock: &mut HostClock,
) -> Rep {
    let order = cell_order(inputs.traces.len(), inputs.schemes.len(), seed, rep);
    let mut out = Rep {
        workers: 1,
        cells: Vec::with_capacity(order.len()),
        ..Rep::default()
    };
    for &(a, s) in &order {
        let (result, t) =
            clock.time(|| run_recorded(&inputs.traces[a].1, inputs.schemes[s], machine));
        out.add(t);
        out.cell_ms.push(t.secs() * 1e3);
        out.cells.push(CellResult {
            app: inputs.traces[a].0.to_owned(),
            scheme: inputs.schemes[s],
            result,
        });
    }
    out
}

/// Imports the tenants' text, builds the mix, and runs it under each
/// scheme: one timed segment for the imports and the mix, then one per
/// scheme.
fn tenants_rep(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    machine: &MachineConfig,
    clock: &mut HostClock,
) -> Rep {
    let mut out = Rep {
        workers: 1,
        ..Rep::default()
    };
    let mut runs: Vec<(Scheme, TenantRun)> = Vec::with_capacity(inputs.schemes.len());
    let (mix, t) = clock.time(|| {
        let tenants = inputs
            .traces
            .iter()
            .zip(&inputs.texts)
            .map(|((name, _), text)| {
                let imported = import_bytes(text).expect("a write_text export re-imports");
                ((*name).to_owned(), imported.trace)
            })
            .collect();
        TenantMix::new(tenants, mix_config(seed))
    });
    out.add(t);
    for &s in &inputs.schemes {
        let (run, t) = clock.time(|| run_tenant_mix(&mix, s, machine));
        out.add(t);
        out.cell_ms.push(t.secs() * 1e3);
        runs.push((s, run));
    }
    let label = spec.mix_label();

    for (i, (name, recorded)) in inputs.traces.iter().enumerate() {
        if !recorded.replay().eq(mix.trace(i).replay()) {
            out.failures
                .push(format!("{name}: imported trace differs from the recording"));
        }
    }
    for (scheme, run) in runs {
        if let Err(e) = lanes_partition(&run) {
            out.failures.push(format!("{label}/{scheme}: {e}"));
        }
        out.cells.push(CellResult {
            app: label.clone(),
            scheme,
            result: run.aggregate,
        });
    }
    out
}

/// Checks that a tenant run's lanes sum to its aggregate statistics.
///
/// # Errors
///
/// Names the first counter whose lanes do not sum to the aggregate.
pub fn lanes_partition(run: &TenantRun) -> Result<(), String> {
    let sum = |f: fn(&primecache_sim::TenantLane) -> u64| run.lanes.iter().map(f).sum::<u64>();
    let agg = &run.aggregate;
    let checks = [
        ("refs", sum(|l| l.refs), agg.l1.accesses),
        ("l1 accesses", sum(|l| l.l1.accesses), agg.l1.accesses),
        ("l1 misses", sum(|l| l.l1.misses), agg.l1.misses),
        ("l1 writebacks", sum(|l| l.l1.writebacks), agg.l1.writebacks),
        ("l2 accesses", sum(|l| l.l2.accesses), agg.l2.accesses),
        ("l2 misses", sum(|l| l.l2.misses), agg.l2.misses),
        ("l2 writebacks", sum(|l| l.l2.writebacks), agg.l2.writebacks),
    ];
    for (what, lanes, aggregate) in checks {
        if lanes != aggregate {
            return Err(format!(
                "tenant lanes sum to {lanes} {what}, aggregate has {aggregate}"
            ));
        }
    }
    Ok(())
}
