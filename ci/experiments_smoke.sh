#!/usr/bin/env sh
# Checks the committed reproduction and the EXPERIMENTS.md cookbook.
#
# 1. Runs `pcache reproduce` at its default (committed) scale in a
#    temporary directory and fails unless its stdout equals
#    reproduce_output.txt and the figures/ it writes equal the committed
#    figures/, byte for byte. Any change to a simulated number, a rendered
#    table or a figure therefore has to re-bless both; a failed paper
#    claim fails here too (the command exits 1).
# 2. Greps the runnable `pcache` commands out of EXPERIMENTS.md and
#    smoke-runs each one at tiny trace lengths, so the cookbook can never
#    drift from the CLI it documents.
#
# Every command runs in a temporary directory, removed on exit, so the
# files they write never land in the working tree. CI runs this in the
# docs job; run it locally with `sh ci/experiments_smoke.sh` (SMOKE_REFS
# overrides the cookbook scale).
set -eu

DOC=EXPERIMENTS.md
REFS="${SMOKE_REFS:-2000}"

[ -f "$DOC" ] || { echo "run from the repository root" >&2; exit 2; }
ROOT="$(pwd)"
MANIFEST="$ROOT/Cargo.toml"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

cargo build --manifest-path "$MANIFEST" --release -q -p primecache-cli --bin pcache
PCACHE="$ROOT/target/release/pcache"

echo "==> pcache reproduce (committed scale)"
mkdir "$WORK/pin"
(cd "$WORK/pin" && "$PCACHE" reproduce >stdout.txt)
cmp "$WORK/pin/stdout.txt" "$ROOT/reproduce_output.txt" || {
    echo "pcache reproduce no longer prints reproduce_output.txt" >&2
    diff "$ROOT/reproduce_output.txt" "$WORK/pin/stdout.txt" | head -40 >&2
    exit 1
}
diff -r "$WORK/pin/figures" "$ROOT/figures" >/dev/null || {
    echo "pcache reproduce no longer writes the committed figures/" >&2
    diff -rq "$WORK/pin/figures" "$ROOT/figures" >&2
    exit 1
}

# Every pcache command quoted verbatim in the cookbook, scaled down.
grep -E '^cargo run --release -p primecache-cli' "$DOC" \
    | sed -E "s/--refs [0-9]+/--refs $REFS/" \
    | while IFS= read -r cmd; do
        echo "==> $cmd"
        (cd "$WORK" && sh -c "cargo run --manifest-path '$MANIFEST' ${cmd#cargo run }" >/dev/null)
    done

echo "reproduce_output.txt and figures/ reproduced; EXPERIMENTS.md commands all ran (refs $REFS)"
