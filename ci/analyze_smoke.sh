#!/usr/bin/env sh
# Smoke-runs the static analyzer over a small corpus of DSL schemes:
# the self-check battery (kernel brute-force, Theorem 1, sampled
# histograms, expression differential), the built-in report, one scheme
# per exact model family, one deliberately opaque scheme (warns but
# certifies sampled), sources the parser must reject at its depth bound
# or for a non-ASCII character (with a bounded error message), and one
# composite modulus that the certificate gate must reject. Runs in the
# debug-test job, so debug build on purpose — the gate assertions only
# fire there, and debug frames are the largest.
set -eu
cd "$(dirname "$0")/.."

PCACHE="cargo run -q -p primecache-cli --bin pcache --"

$PCACHE analyze --self-check
$PCACHE analyze >/dev/null

# One expression per exact lowering family: Residue, Linear, Affine.
for src in 'a % 2039' '(a ^ (a >> 11)) & 2047' \
    '((9 * (a >> 11)) + (a & 2047)) & 2047'; do
    $PCACHE analyze --expr "$src" >/dev/null
done

# Opaque fallback: sampled certificate, warning-level lint, exit 0.
$PCACHE analyze --expr '((a % 2039) ^ (a >> 13)) & 2047' >/dev/null

# Sources past the parser's depth bound (10,000 parentheses; a 5,001-term
# chain) and a stray non-ASCII character must each be a located parse
# error with exit 2, from `analyze`, a `run` scheme and `attack` alike,
# not a stack overflow; and the error shows only a window of a long
# source, so the output stays under 1 KB.
deep_parens=$(awk 'BEGIN { for (i = 0; i < 10000; i++) printf "("; printf "a";
    for (i = 0; i < 10000; i++) printf ")" }')
long_chain=$(awk 'BEGIN { printf "a"; for (i = 0; i < 5000; i++) printf "+a";
    printf " & 2047" }')
for src in "$deep_parens" "$long_chain" 'é'; do
    for cmd in "analyze --expr" "run tree --refs 1000 --scheme expr:" "attack --expr"; do
        code=0
        case "$cmd" in
        analyze*) out=$($PCACHE analyze --expr "$src" 2>&1) || code=$? ;;
        run*) out=$($PCACHE run tree --refs 1000 --scheme "expr:$src" 2>&1) || code=$? ;;
        *) out=$($PCACHE attack --expr "$src" 2>&1) || code=$? ;;
        esac
        case "$out" in
        *"parse error at byte"*) ;;
        *) code="$code, no parse error" ;;
        esac
        bytes=$(printf '%s' "$out" | wc -c)
        if [ "$bytes" -ge 1024 ]; then
            code="$code, $bytes bytes of output"
        fi
        if [ "$code" != 2 ]; then
            echo "ERROR: pcache $cmd on a ${#src}-character source: exit $code" >&2
            exit 1
        fi
    done
done

# Composite modulus must be rejected with a nonzero exit.
if $PCACHE analyze --expr 'a % 2046' >/dev/null 2>&1; then
    echo "ERROR: composite modulus passed the certificate gate" >&2
    exit 1
fi

echo "analyze smoke passed"
