#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

Builds perfbench/bench.exe with dune from the checkout it is run in (the
repository root), runs one workload for a fixed time, checks the result and
prints one JSON object as the last line of standard output:

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics. Scratch files, traces and the exact-count record live in
.bench_build/perfbench/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

WORKLOADS = ("verify-corpus", "verify-wide", "optimize-zipf", "daemon-warm")
WORK_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_rev():
    # Stop at the checkout: a benchmark copy that is not a git repository
    # must not report the revision of some enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=20, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """Digest of the sources bench.exe is built from. Exact counts are only
    compared between runs of the same code, so that a change that moves a
    count legitimately is never reported as drift against its parent."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths.extend(os.path.join(root, f) for f in sorted(files))
    for path in paths:
        with open(path, "rb") as f:
            h.update(path.encode() + b"\0" + f.read() + b"\0")
    return h.hexdigest()[:16]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the repository root: dune-project and lib/ are missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(["dune", "build", "--root", ".", "perfbench/bench.exe"],
                              stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except OSError as e:
        die(f"cannot run dune: {e}")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_counts(key, counts):
    """Exact counts must repeat across runs of one workload, seed and
    source digest."""
    path = os.path.join(WORK_DIR, "counts.json")
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError):
        record = {}
    previous = record.get(key)
    if previous is None:
        record[key] = counts
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    return [f"{k}: {previous.get(k)} before, {counts.get(k)} now"
            for k in sorted(set(previous) | set(counts))
            if previous.get(k) != counts.get(k)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t_start = time.monotonic()
    build()
    built_s = time.monotonic() - t_start
    os.makedirs(WORK_DIR, exist_ok=True)
    # A no-op build leaves the run its whole deadline minus the build check;
    # the first run of a checkout has its own, longer one.
    timeout = RUN_TIMEOUT_S if built_s > 60 else max(30, RUN_TIMEOUT_S - built_s)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    # Pin the run to one CPU: its domains and threads then never migrate,
    # which otherwise moves whole runs by tens of percent.
    cpus = sorted(os.sched_getaffinity(0))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpus[-1]}))
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"bench.exe exited with {proc.returncode}")
    try:
        out = json.loads(lines[-1])
    except ValueError:
        die("bench.exe printed no result line")

    problems = list(out.get("errors", []))
    metrics = {}
    for name, m in out["metrics"].items():
        value = float(m["value"])
        if not math.isfinite(value):
            problems.append(f"{name} is not finite")
            value = 0.0
        elif args.trace == 0 and value <= 0.0:
            problems.append(f"{name} is {value}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    wanted = expected_metrics(args.trace)
    if wanted is not None and sorted(wanted) != sorted(metrics):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(wanted) ^ set(metrics))}")
    source = source_digest()
    drift = check_counts(f"{args.workload}|seed={args.seed}|source={source}",
                         out["counts"])
    for d in drift:
        problems.append(f"exact count drift: {d}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    for f in out.get("failures", []):
        print(f"perfbench: failed: {f}", file=sys.stderr)

    provenance = {"rev": git_rev(), "source": source, "nproc": os.cpu_count(),
                  "python": sys.version.split()[0]}
    provenance.update(out.get("info", {}))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("counts " + json.dumps(out["counts"], sort_keys=True))
    print(json.dumps({
        "correct": bool(out["correct"]) and not problems and out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
