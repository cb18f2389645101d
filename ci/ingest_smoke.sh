#!/usr/bin/env sh
# External-ingestion smoke for the PR gate: generate a workload trace,
# export it as both a PCTE frame and TRACE_FORMAT.md text, import the
# text back, and require the conversion to be byte-identical to the
# native frame (`cmp`); then simulate both imports and require
# identical results, run a 2-tenant interference sweep end-to-end (and
# again pinned to one CPU, where no L1 stage runs: same table), and
# check that every malformed-input class fails with a clean error (exit
# code exactly 1, no panic, no control byte on stderr). Run locally with
# `sh ci/ingest_smoke.sh`; INGEST_REFS overrides the trace length.
set -eu

REFS="${INGEST_REFS:-2000}"

[ -f Cargo.toml ] || { echo "run from the repository root" >&2; exit 2; }

PCACHE="cargo run --release -q -p primecache-cli --bin pcache --"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

echo "==> export swim ($REFS refs) as PCTE frame and text"
$PCACHE trace swim --refs "$REFS" --format pcte --out "$TMP/native.pcte"
$PCACHE trace swim --refs "$REFS" --format text --out "$TMP/native.txt"

echo "==> import the text export and compare frames byte-for-byte"
$PCACHE import "$TMP/native.txt" --out "$TMP/reimported.pcte" | tee "$TMP/import.txt"
cmp "$TMP/native.pcte" "$TMP/reimported.pcte" \
  || { echo "text round trip is not byte-identical" >&2; exit 1; }
grep -q "fingerprint" "$TMP/import.txt" \
  || { echo "import output lost the provenance fingerprint" >&2; exit 1; }

echo "==> simulate both imports; results must match line-for-line"
$PCACHE import "$TMP/native.txt" --run --scheme pMod | grep -A2 "simulated under" \
  > "$TMP/run-text.txt"
$PCACHE import "$TMP/native.pcte" --run --scheme pMod | grep -A2 "simulated under" \
  > "$TMP/run-pcte.txt"
diff "$TMP/run-text.txt" "$TMP/run-pcte.txt" \
  || { echo "text and PCTE imports simulate differently" >&2; exit 1; }

echo "==> inspect recognizes the PCTE frame"
$PCACHE inspect "$TMP/native.pcte" > "$TMP/inspect.txt"
grep -q "PCTE frame" "$TMP/inspect.txt" \
  || { echo "inspect failed to recognize the frame" >&2; exit 1; }

echo "==> 2-tenant interference sweep (workload + imported file as tenants)"
$PCACHE sweep --tenants tree,"$TMP/native.pcte" --refs "$REFS" --quantum 2000 \
  | tee "$TMP/tenants.txt"

echo "==> the same sweep on one CPU (live L1, no L1 stage) prints the same table"
taskset -c 0 $PCACHE sweep --tenants tree,"$TMP/native.pcte" --refs "$REFS" --quantum 2000 \
  > "$TMP/tenants-one-cpu.txt"
diff "$TMP/tenants.txt" "$TMP/tenants-one-cpu.txt" \
  || { echo "the one-CPU tenant sweep differs" >&2; exit 1; }

echo "==> malformed inputs must fail cleanly (exit 1, no panic, no control byte)"
head -c 20 "$TMP/native.pcte" > "$TMP/truncated.pcte"
printf 'L 0x40\nQ 9\n' > "$TMP/badtag.txt"
printf 'L zzz\n' > "$TMP/badaddr.txt"
printf 'PCT1\000\001\002\033[31m\n' > "$TMP/control.txt"
# The native frame with byte 48, its first payload tag, set to kind 7.
{ head -c 48 "$TMP/native.pcte"; printf '\007'; tail -c +50 "$TMP/native.pcte"; } \
  > "$TMP/badkind.pcte"
for bad in truncated.pcte badtag.txt badaddr.txt control.txt badkind.pcte; do
  status=0
  $PCACHE import "$TMP/$bad" 2> "$TMP/err.txt" || status=$?
  [ "$status" -eq 1 ] || { echo "malformed input $bad exited $status, not 1" >&2; exit 1; }
  [ -s "$TMP/err.txt" ] || { echo "$bad failed without a message" >&2; exit 1; }
  if grep -q "panicked" "$TMP/err.txt"; then
    echo "$bad panicked" >&2; exit 1
  fi
  if LC_ALL=C grep -q '[[:cntrl:]]' "$TMP/err.txt"; then
    echo "$bad printed a control byte" >&2; exit 1
  fi
done
grep -q "byte offset 48" "$TMP/err.txt" \
  || { echo "badkind.pcte: the error does not name byte offset 48" >&2; exit 1; }

echo "ingest smoke passed ($REFS refs)"
