#!/usr/bin/env sh
# CI/ctest gate: the JSON metrics snapshot must match the checked-in
# schema. Runs a short open-loop bioarch-serve (which writes a
# mid-run snapshot at FILE.mid and the final one at FILE), then
# validates with python3:
#   - every metric name is in scripts/metrics_schema.json, with the
#     declared type; every required name is present;
#   - histogram buckets are cumulative and end at "count";
#   - counters are monotone: mid-run value <= final value.
#
# Usage: scripts/check_metrics_schema.sh <bioarch-serve> [schema]
set -eu

SERVE_BIN="${1:?usage: check_metrics_schema.sh <bioarch-serve> [schema]}"
SCHEMA="${2:-$(dirname "$0")/metrics_schema.json}"

TMPDIR_SNAP="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_SNAP"' EXIT
SNAP="$TMPDIR_SNAP/metrics.json"

# Fleet flags exercise every registered family: the hot-reload
# epoch gauge, the result cache, per-tenant quota/WDRR counters,
# and the two-phase traceback series.
"$SERVE_BIN" --qps 300 --duration-s 1 --deadline-ms 50 \
    --db-seqs 48 --jobs 2 --hot-reload --cache-mb 4 \
    --tenants 200:20:3:0.5,50:5:1:0.25,50:5:1:0.25 \
    --report-alignments \
    --metrics-out "$SNAP" \
    --metrics-prom "$TMPDIR_SNAP/metrics.prom" > /dev/null

test -s "$SNAP" || { echo "FAIL: no snapshot written"; exit 1; }
test -s "$SNAP.mid" || { echo "FAIL: no mid-run snapshot"; exit 1; }

python3 - "$SCHEMA" "$SNAP" "$SNAP.mid" <<'EOF'
import json
import sys

schema_path, final_path, mid_path = sys.argv[1:4]
with open(schema_path) as f:
    schema = json.load(f)
allowed = schema["metrics"]
required = set(schema["required"])
failures = []


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("version") != 1:
        failures.append(f"{path}: version != 1")
    return doc.get("metrics", [])


def check(path, metrics):
    seen = set()
    for m in metrics:
        name = m.get("name", "")
        key = (name, m.get("labels", ""))
        if key in seen:
            failures.append(f"{path}: duplicate series {key}")
        seen.add(key)
        if name not in allowed:
            failures.append(f"{path}: unknown metric '{name}'")
            continue
        if m.get("type") != allowed[name]:
            failures.append(
                f"{path}: {name} is {m.get('type')}, schema says "
                f"{allowed[name]}")
        if m.get("type") == "histogram":
            count = m.get("count", -1)
            buckets = m.get("buckets", [])
            cum = [b["count"] for b in buckets]
            if cum != sorted(cum):
                failures.append(
                    f"{path}: {name} buckets not cumulative")
            if count > 0 and (not cum or cum[-1] != count):
                failures.append(
                    f"{path}: {name} buckets end at "
                    f"{cum[-1] if cum else None}, count={count}")
        elif m.get("type") == "counter":
            v = m.get("value", -1)
            if not (isinstance(v, int) and v >= 0):
                failures.append(
                    f"{path}: counter {name} value {v!r} is not a "
                    "non-negative integer")
    missing = required - {n for n, _ in seen}
    if missing:
        failures.append(f"{path}: missing required {sorted(missing)}")
    return seen


final = load(final_path)
mid = load(mid_path)
check(final_path, final)
check(mid_path, mid)

# Counter monotonicity across the run: a counter observed mid-run
# can only grow by the final snapshot.
final_counters = {(m["name"], m.get("labels", "")): m["value"]
                  for m in final if m.get("type") == "counter"}
for m in mid:
    if m.get("type") != "counter":
        continue
    key = (m["name"], m.get("labels", ""))
    if key not in final_counters:
        failures.append(f"counter {key} vanished from final snapshot")
    elif m["value"] > final_counters[key]:
        failures.append(
            f"counter {key} moved backwards: mid={m['value']} "
            f"final={final_counters[key]}")

if failures:
    print("FAIL: metrics schema check")
    for f in failures:
        print("  -", f)
    sys.exit(1)
print(f"OK: {len(final)} series match {schema_path}")
EOF
