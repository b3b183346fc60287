#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds
perfbench/ (Release, native SIMD kernels) under .bench_build/, or
under $CARGO_TARGET_DIR when that is set; later calls rebuild only
what changed. The benchmark binary prints a host fingerprint line and,
as its last line, the JSON result, which this script passes through.

--smoke runs every workload in BENCHMARK.json once on tiny inputs,
traced and untraced, and checks the result lines against the metric
names and units BENCHMARK.json declares.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build():
    """Configure and build perfbench; returns the binary path."""
    build_dir = os.path.join(target_dir(), "perfbench-build")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return sha
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (exit code, stdout lines)."""
    work = os.path.join(target_dir(), "perfbench-work", str(os.getpid()))
    spans = os.path.join(target_dir(), "perfbench-spans")
    os.makedirs(work, exist_ok=True)
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--source-id", source_id()]
    if trace:
        cmd += ["--spans",
                os.path.join(spans, "%s-%s.json" % (workload, seed))]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def check_result(line, names, trace, workload):
    """Problems with one result line, as a list of strings."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("wrong keys %s" % sorted(result))
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("not correct (failed %s)" % result["failed"])
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(names):
        problems.append("metric names differ: %s" %
                        sorted(set(metrics) ^ set(names)))
    for name, unit in names.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append("%s: unit %r, want %r" %
                            (name, got.get("unit"), unit))
        if not trace and not got.get("value", 0) > 0:
            problems.append("%s is not positive" % name)
    if trace and workload != "sim_sweep":
        value = lambda n: metrics[n]["value"]
        accounted = value("serve.batch_accounted_share")
        if abs(accounted - 1.0) > 0.05:
            problems.append("serving spans cover %.3f of the batch wall"
                            % accounted)
        # other_share is the residual, so it goes negative only when
        # the timed scan and traceback work exceeds the engine's capacity.
        if value("serve.engine.other_share") < -0.05:
            problems.append("scan and traceback exceed the engine's "
                            "capacity")
        if value("serve.loop.shed_or_expired") != 0:
            problems.append("requests shed or expired")
    return problems


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, lines = run_once(binary, workload, 1, 0.5, trace,
                                   smoke=True)
            problems = ["exit code %d" % code] if code else []
            if lines:
                problems += check_result(
                    lines[-1], per_layer if trace else end_to_end, trace,
                    workload)
            else:
                problems.append("no output")
            if trace and not problems:
                path = os.path.join(target_dir(), "perfbench-spans",
                                    "%s-1.json" % workload)
                with open(path) as f:
                    spans = json.load(f)["spans"]
                if not spans or not all(
                        {"name", "start_us", "end_us", "parent",
                         "request"} <= set(s) for s in spans):
                    problems.append("span file incomplete")
            status = "ok" if not problems else "; ".join(problems)
            print("smoke %-14s trace=%d: %s" % (workload, trace, status))
            failures += bool(problems)
    print("smoke: %s" % ("ok" if not failures else "FAILED"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary)

    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    if code != 0 or not lines:
        return code or 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
