#!/usr/bin/env sh
# Greps the runnable commands out of EXPERIMENTS.md and smoke-runs each
# one at tiny trace lengths, so the cookbook can never drift from the
# binaries it documents. Every command runs in a temporary directory,
# removed on exit, so the files they write (figures/, reports, traces)
# never land in the working tree. CI runs this in the docs job; run it
# locally with `sh ci/experiments_smoke.sh` (SMOKE_REFS overrides the scale).
set -eu

DOC=EXPERIMENTS.md
REFS="${SMOKE_REFS:-2000}"

[ -f "$DOC" ] || { echo "run from the repository root" >&2; exit 2; }
MANIFEST="$(pwd)/Cargo.toml"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Every bench binary the cookbook references by `--bin <name>`.
bins=$(grep -oE -- '--bin [a-z_0-9]+' "$DOC" | awk '{print $2}' | sort -u | grep -v '^pcache$')
[ -n "$bins" ] || { echo "no --bin commands found in $DOC" >&2; exit 2; }
for bin in $bins; do
    echo "==> bench --bin $bin (refs $REFS)"
    (cd "$WORK" && cargo run --manifest-path "$MANIFEST" --release -q \
        -p primecache-bench --bin "$bin" -- --refs "$REFS" >/dev/null)
done

# Every pcache command quoted verbatim in the cookbook, scaled down.
grep -E '^cargo run --release -p primecache-cli' "$DOC" \
    | sed -E "s/--refs [0-9]+/--refs $REFS/" \
    | while IFS= read -r cmd; do
        echo "==> $cmd"
        (cd "$WORK" && sh -c "cargo run --manifest-path '$MANIFEST' ${cmd#cargo run }" >/dev/null)
    done

echo "EXPERIMENTS.md commands all ran (refs $REFS)"
