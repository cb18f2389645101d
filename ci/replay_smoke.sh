#!/usr/bin/env sh
# Replay-equivalence smoke for the PR gate: runs the recorded-replay
# differential battery (`tests/replay_equivalence.rs` — every workload's
# encoded replay must be bit-identical to its live stream, replayed
# simulations must match live runs across all schemes, and every
# `run_sweep` cell, its L1 replayed from the workload's recording, must
# match the live run under every scheme plus an `expr:` one) at a
# reduced per-workload reference count. The battery records and decodes
# all 23 workloads, so it also shows that both pipeline stages complete
# over the whole suite. Run locally with `sh ci/replay_smoke.sh`;
# REPLAY_REFS overrides the trace length.
set -eu

REFS="${REPLAY_REFS:-1000}"

[ -f Cargo.toml ] || { echo "run from the repository root" >&2; exit 2; }

echo "==> replay-equivalence battery (REPLAY_REFS=$REFS)"
REPLAY_REFS="$REFS" cargo test --release -q --test replay_equivalence

echo "replay smoke passed ($REFS refs/workload)"
