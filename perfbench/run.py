#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: tables, fugaku_des, des_small, miniapps (see perfbench/README.md).

The script builds perfbench/harness (a Cargo package of its own that
depends on the repository's crates by path) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. It then runs the harness: several
set-up-only processes, then the measured process, whose peak resident set
it takes from the kernel's accounting of the finished child. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. Every line before it is a JSON detail record (build time, run
configuration, op count and tail percentile, set-up samples, trace file
paths).

Exit status is 0 with a result, 2 on bad arguments, a pinned A64FX_*
variable or a directory that is not a checkout, and 1 if the build or
the harness fails; those print no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("tables", "fugaku_des", "des_small", "miniapps")

# The seven variables that override the repository's run configuration.
PINNED_ENV = (
    "A64FX_REPRO_THREADS",
    "A64FX_DES_BACKEND",
    "A64FX_PRICING",
    "A64FX_DEADLINE_SECS",
    "A64FX_TRACE_CACHE",
    "A64FX_TRACE_CACHE_CAP",
    "A64FX_TRACE_CACHE_DIR",
)

# Files a checkout must hold for the harness to build and check its ops.
REQUIRED = (
    "Cargo.toml",
    "crates/core/Cargo.toml",
    "crates/conform/goldens/d1.json",
    "perfbench/harness/Cargo.toml",
)

MANIFEST = "perfbench/harness/Cargo.toml"
BINARY = "perfbench-harness"

# Set-up-only processes run besides the measured one; setup_s is the
# median over all of them.
EXTRA_SETUPS = 4

# Seconds a build may take, a set-up-only process, and the measured
# process beyond its --seconds: a built checkout finishes well inside 180 s.
BUILD_LIMIT_S = 900
SETUP_LIMIT_S = 15
RUN_SLACK_S = 60

def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_LIMIT_S, check=False,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(1, f"build failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        fail(1, "build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", BINARY)


def run_child(cmd, limit_s):
    """Run cmd to completion; return (exit code, stdout lines, peak RSS KiB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(limit_s, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.splitlines(), usage.ru_maxrss


def last_json(lines, what):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(1, f"{what} printed no result")


def main():
    args = parse_args()
    pinned = [v for v in PINNED_ENV if v in os.environ]
    if pinned:
        fail(2, f"refusing to run with {', '.join(pinned)} set: the benchmark pins the run configuration")
    missing = [f for f in REQUIRED if not os.path.isfile(f)]
    if missing:
        fail(2, f"not the root of a checkout (missing {', '.join(missing)})")

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    t0 = time.monotonic()
    exe = build(env)
    print(json.dumps({"build_s": time.monotonic() - t0}))

    base = [exe, "--workload", args.workload, "--seed", str(args.seed)]
    attempted = failed = 0
    setups = []
    for _ in range(0 if args.trace else EXTRA_SETUPS):
        code, lines, _ = run_child(base + ["--setup-only"], SETUP_LIMIT_S)
        if code != 0:
            fail(1, f"set-up run exited with {code}")
        rec = last_json(lines, "set-up run")
        setups.append(rec["setup_s"])
        attempted += 1
        failed += 0 if rec["correct"] else 1

    code, lines, maxrss_kib = run_child(
        base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)],
        args.seconds + RUN_SLACK_S,
    )
    if code != 0:
        fail(1, f"harness exited with {code}")
    result = last_json(lines, "harness")
    for line in lines[:-1]:
        print(line)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": maxrss_kib / 1024, "unit": "MiB"}
        print(json.dumps({"setup_s_samples": setups}))
    result["attempted"] += attempted
    result["failed"] += failed
    result["correct"] = result["correct"] and failed == 0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
