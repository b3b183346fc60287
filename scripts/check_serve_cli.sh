#!/usr/bin/env sh
# CLI contract of bioarch-serve and bioarch-dbtool: unknown flags,
# unknown --workload / --backend values, backends this host cannot
# run, and malformed argument combinations fail fast with a
# one-line error on stderr and exit status 2 (registered as the
# `serve_cli` ctest).
#
# Usage: check_serve_cli.sh path/to/bioarch-serve path/to/bioarch-dbtool
set -u

SERVE="${1:?usage: check_serve_cli.sh path/to/bioarch-serve path/to/bioarch-dbtool}"
DBTOOL="${2:?usage: check_serve_cli.sh path/to/bioarch-serve path/to/bioarch-dbtool}"
fails=0

# check_rejects <binary> <description> <args...>: exit 2 + stderr.
check_rejects() {
    bin="$1"
    desc="$2"
    shift 2
    err=$("$bin" "$@" 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: $desc: exit $rc, expected 2"
        fails=1
    elif [ -z "$err" ]; then
        echo "FAIL: $desc: no error message on stderr"
        fails=1
    else
        echo "ok: $desc -> exit 2: $(echo "$err" | head -1)"
    fi
}

# bioarch-serve
check_rejects "$SERVE" "unknown option" --frobnicate
check_rejects "$SERVE" "unknown workload" --workload nope
check_rejects "$SERVE" "unknown backend" --backend warp9
check_rejects "$SERVE" "model backend removed" --backend model
# The other architecture's backend is a known name this host cannot
# run.
case "$(uname -m)" in
    x86_64|amd64) foreign=neon ;;
    *) foreign=sse2 ;;
esac
check_rejects "$SERVE" "unrunnable backend $foreign" --backend "$foreign"
check_rejects "$SERVE" "missing option value" --workload
check_rejects "$SERVE" "non-positive requests" --requests 0
check_rejects "$SERVE" "non-positive qps" --qps -3
check_rejects "$SERVE" "malformed tenants spec" --tenants 100:10
check_rejects "$SERVE" "replicas flag removed" --replicas 2
check_rejects "$SERVE" "blastn has no protein seed index" \
    --workload blastn --index

# bioarch-dbtool
check_rejects "$DBTOOL" "unknown command" frobnicate
check_rejects "$DBTOOL" "unknown build flag" \
    build /tmp/x.db --frobnicate
check_rejects "$DBTOOL" "unknown verify flag" \
    verify /tmp/x.db --shallow
check_rejects "$DBTOOL" "no arguments at all"

if ! "$SERVE" --help >/dev/null 2>&1; then
    echo "FAIL: bioarch-serve --help should exit 0"
    fails=1
fi

# Unknown-flag rejections must be one-line errors, not usage dumps.
lines=$("$DBTOOL" build /tmp/x.db --frobnicate 2>&1 | wc -l)
if [ "$lines" -ne 1 ]; then
    echo "FAIL: dbtool unknown-flag error should be one line, got $lines"
    fails=1
fi
lines=$("$SERVE" --frobnicate 2>&1 | wc -l)
if [ "$lines" -ne 1 ]; then
    echo "FAIL: serve unknown-flag error should be one line, got $lines"
    fails=1
fi
lines=$("$SERVE" --backend model 2>&1 | wc -l)
if [ "$lines" -ne 1 ]; then
    echo "FAIL: serve --backend model error should be one line, got $lines"
    fails=1
fi
# ... and that line lists the runnable backends (scalar always runs).
err=$("$SERVE" --backend "$foreign" 2>&1)
if [ "$(echo "$err" | wc -l)" -ne 1 ] \
    || ! echo "$err" | grep -q "auto | .*scalar"; then
    echo "FAIL: serve --backend $foreign should give one line listing the runnable backends, got: $err"
    fails=1
fi

if [ "$fails" -eq 0 ]; then
    echo "serve CLI checks passed"
fi
exit "$fails"
