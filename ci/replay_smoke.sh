#!/usr/bin/env sh
# Replay-equivalence smoke for the PR gate: runs the recorded-replay
# differential battery (`tests/replay_equivalence.rs` — every workload's
# encoded replay must be bit-identical to its live stream, replayed
# simulations must match live runs across all schemes, and every
# `run_sweep` cell, replaying its workload's shared events and L1
# outcomes, must match the live run under every scheme plus an `expr:`
# one) at a reduced per-workload reference count. The battery records
# and decodes all 23 workloads, so it also shows that both pipeline
# stages complete over the whole suite.
#
# It runs at two lengths: REPLAY_REFS (default 1000), and 40,000
# references, where every trace spans several 16,384-event batches, so
# a single-scheme run's L1 stage hands the engine many batches and
# reuses the ones sent back. At each length it runs twice in release: once as users build it, and once with
# `--features primecache-sim/check`, which compiles the sweep's
# completeness check (`Sweep::validate`) and the caches' per-access
# invariants into the release build, so they check the sweep scheduler
# at release speed. Run locally with `sh ci/replay_smoke.sh`.
set -eu

REFS="${REPLAY_REFS:-1000}"

[ -f Cargo.toml ] || { echo "run from the repository root" >&2; exit 2; }

for refs in "$REFS" 40000; do
    echo "==> replay-equivalence battery (REPLAY_REFS=$refs)"
    REPLAY_REFS="$refs" cargo test --release -q --test replay_equivalence

    echo "==> the same battery with runtime checks (--features primecache-sim/check)"
    REPLAY_REFS="$refs" cargo test --release -q --test replay_equivalence \
        --features primecache-sim/check
done

echo "replay smoke passed ($REFS and 40000 refs/workload)"
