#!/usr/bin/env sh
# Mutation gate: proves that named checks catch the defects they exist
# for. Each ci/mutants/NN-name.patch is one small deliberate defect; its
# header says what it breaks and names, on `Check:` lines, the commands
# that must catch it (exit nonzero).
#
# The gate unpacks the committed tree (`git archive HEAD`) into a
# temporary directory, with one cargo target directory for every run,
# so each mutant rebuilds only the crates it touches. First it runs
# every named check on the unpatched copy: that control must pass. Then,
# for each patch in turn, it applies the patch, runs the patch's checks
# and reverts it. It fails if the control fails, if a patch no longer
# applies (a refactor must carry its mutants along), if a mutant does
# not build, or if a mutant survives one of its checks.
#
#   sh ci/mutants.sh
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
mkdir "$work/tree"
git archive HEAD | tar -x -C "$work/tree"
CARGO_TARGET_DIR="$work/target"
export CARGO_TARGET_DIR

failed=0

# Runs check $1 in the copy; its output goes to $work/log.
run_check() {
    (cd "$work/tree" && sh -c "$1") </dev/null >"$work/log" 2>&1
}

sed -n 's/^Check: //p' ci/mutants/*.patch | sort -u >"$work/checks"
echo "control: every named check on the unpatched tree"
while IFS= read -r check; do
    if run_check "$check"; then
        echo "  ok   $check"
    else
        echo "  FAIL $check" >&2
        cat "$work/log" >&2
        failed=1
    fi
done <"$work/checks"
if [ "$failed" != 0 ]; then
    echo "mutants: the control failed; no mutant was tried" >&2
    exit 1
fi

for patch in ci/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    sed -n 's/^Check: //p' "$patch" >"$work/checks"
    if [ ! -s "$work/checks" ]; then
        echo "FAIL $name names no check" >&2
        failed=1
        continue
    fi
    if ! (cd "$work/tree" && git apply "$root/$patch"); then
        echo "FAIL $name no longer applies" >&2
        failed=1
        continue
    fi
    echo "$name"
    while IFS= read -r check; do
        if run_check "$check"; then
            echo "  FAIL survives: $check" >&2
            failed=1
        elif grep -q "could not compile" "$work/log"; then
            echo "  FAIL does not build: $check" >&2
            cat "$work/log" >&2
            failed=1
        else
            echo "  ok   caught by: $check"
        fi
    done <"$work/checks"
    (cd "$work/tree" && git apply -R "$root/$patch")
done

if [ "$failed" != 0 ]; then
    echo "mutants: FAILED" >&2
    exit 1
fi
echo "mutants: the control passed and every mutant was caught"
