//! Library surface of the `pcache` CLI (exposed for testing; the binary
//! in `main.rs` is a thin dispatcher over [`commands`]).
//!
//! Each subcommand fronts one layer of the reproduction: `run` / `sweep`
//! drive the §5 evaluation (one cell or the full 23-application suite),
//! `classify` reprints the §4 uniform/non-uniform split, `metrics`
//! evaluates the §2 balance/concentration equations at a stride,
//! `analyze` runs the static GF(2)/residue certificates and config
//! lints, and `report` / `trace-events` emit the observability
//! artifacts (versioned [`RunReport`](primecache_obs::RunReport) JSON
//! and JSONL event traces — see `OBSERVABILITY.md`). Every `--scheme`
//! passes the config lint gate before anything simulates: a scheme
//! with an error-level lint exits 2. Flag parsing is hand-rolled in
//! [`args`]; there are no external CLI dependencies.

pub mod args;
pub mod commands;
