#!/usr/bin/env sh
# CLI contract of bioarch-characterize: conflicting or malformed
# argument combinations fail fast with a one-line error on stderr
# and exit status 2 (registered as the `characterize_cli` ctest).
#
# Usage: check_characterize_cli.sh path/to/bioarch-characterize
set -u

BIN="${1:?usage: check_characterize_cli.sh path/to/bioarch-characterize}"
fails=0

# check_rejects <description> <args...>: expect exit 2 + stderr.
check_rejects() {
    desc="$1"
    shift
    err=$("$BIN" "$@" 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: $desc: exit $rc, expected 2"
        fails=1
    elif [ -z "$err" ]; then
        echo "FAIL: $desc: no error message on stderr"
        fails=1
    else
        echo "ok: $desc -> exit 2: $err"
    fi
}

check_rejects "--trace + --workload conflict" \
    --trace whatever.trc --workload blast
check_rejects "--workload + --trace (reversed)" \
    --workload ssearch34 --trace whatever.trc
check_rejects "--sweep + --trace conflict" \
    --sweep --trace whatever.trc
check_rejects "zero sample window" \
    --workload blast --sample-window 0
check_rejects "zero sample period" \
    --workload blast --sample-period 0
check_rejects "removed --sample-warmup flag is rejected" \
    --workload blast --sample-warmup -5
check_rejects "sample window exceeding period" \
    --workload blast --sample-window 1000 --sample-period 100
check_rejects "missing sample flag value" \
    --workload blast --sample-window
check_rejects "unknown option" --frobnicate
check_rejects "unknown workload" --workload nope
check_rejects "missing option value" --workload
check_rejects "no arguments at all" # usage -> exit 2

if ! "$BIN" --help >/dev/null 2>&1; then
    echo "FAIL: --help should exit 0"
    fails=1
fi

if [ "$fails" -eq 0 ]; then
    echo "characterize CLI checks passed"
fi
exit "$fails"
