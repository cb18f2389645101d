#!/usr/bin/env sh
# Bounded concurrency model check for the PR gate: runs the full
# `pcache conc-check` suite (exhaustive interleaving exploration of the
# sweep slot/cursor protocol at preemption bound 2, plus the seeded-bug
# detection with its replay seed) and the conc crate's own test battery. The whole script stays under a
# minute — the state spaces at bound 2 are a few hundred schedules.
# Run locally with `sh ci/conc_smoke.sh`; CONC_BOUND overrides the
# preemption bound.
set -eu

BOUND="${CONC_BOUND:-2}"

[ -f Cargo.toml ] || { echo "run from the repository root" >&2; exit 2; }

echo "==> model-checker + facade unit tests"
cargo test -q -p primecache-conc

echo "==> pcache conc-check --bound $BOUND (exhaustive at the bound)"
cargo run --release -q -p primecache-cli --bin pcache -- conc-check --bound "$BOUND"

echo "conc smoke passed (preemption bound $BOUND)"
