#!/usr/bin/env python3
"""Build and run the call-level benchmark; README.md beside this file
documents the workloads and every metric.

    python3 perfbench/run.py --workload sfu2d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The Go program is built from source into
.bench_build/ (build cache included), so the script reads and writes only
inside the checkout. With --trace 0 one timed process runs the workload's
sessions and the end-to-end metrics are printed; with --trace 1 the timed
process runs first for its counters, then a separate traced process replays
the workload with a span around every layer call, so tracing never touches
the timed process. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it records
the host the numbers were taken on.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    """The environment for the go tool: caches, module state and tool
    configuration all live under .bench_build."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s: run from the root of a checkout of the program" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    cmd = ["go", "build", "-buildvcs=false", "-o", BINARY, "."]
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit("perfbench: build: %s" % err)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % proc.returncode)


def commit():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_pass(args, timeout):
    """Runs one pass of the Go program and returns its result line."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %ds" % (" ".join(args[:2]), timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: %s failed (exit %d)" % (" ".join(args[:2]), proc.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="sfu2d, spatial5 or lossy2d")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    common = ["-workload", a.workload, "-seed", str(a.seed), "-seconds", str(a.seconds), "-commit", commit()]
    # A timed pass overruns --seconds by at most one session plus its
    # minimum slice and session counts; the slowest session is ~6 s.
    timeout = 3 * a.seconds + 60
    counts = os.path.join(BUILD, "counts-%d.json" % os.getpid())
    timed = run_pass(["-mode", "timed"] + common + (["-counts-out", counts] if a.trace else []), timeout)
    out = timed
    if a.trace:
        try:
            traced = run_pass(["-mode", "traced"] + common + ["-counts-in", counts], timeout)
        finally:
            if os.path.exists(counts):
                os.remove(counts)
        # The traced pass counts a failure for each replay that does not
        # send what the timed session with the same seed sent.
        out = dict(timed, metrics=traced["metrics"], correct=timed["correct"] and traced["correct"],
                   attempted=timed["attempted"] + traced["attempted"], failed=timed["failed"] + traced["failed"],
                   failures=timed.get("failures", []) + traced.get("failures", []))

    print(json.dumps({"workload": a.workload, "seed": a.seed, "trace": a.trace, "host": timed["host"],
                      "samples": {k: v["samples"] for k, v in sorted(out["metrics"].items())},
                      "raw": {k: v["value"] for k, v in sorted(timed.get("raw", {}).items())},
                      "failures": out.get("failures", [])}))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in sorted(out["metrics"].items())},
    }))


if __name__ == "__main__":
    main()
