#!/usr/bin/env python3
"""The repository benchmark: build perfbench, run one workload, print one
JSON result line.

    python3 perfbench/run.py --workload clean_mix --seed 7 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics (telemetry off); --trace 1 runs
the traced pass and prints the per-layer metrics.  The last line of stdout
is {"correct", "attempted", "failed", "metrics"}; diagnostics go to stderr.
See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
TRACE_FILE = os.path.join(ROOT, "data", "traces", "cellular.trace")
WORKLOADS = ["clean_mix", "lossy_mix", "multiflow_lowrate", "sweep_warm"]

SETUP_PROBES = 7      # fresh processes timing set-up; the median is reported
CHILD_TIMEOUT_S = 160  # keeps a whole run inside its 180 s budget


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench (a no-op when up to date)."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", BUILD_DIR, "-j", jobs]):
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                raise RuntimeError("build failed: " + " ".join(cmd))


def child_env():
    """The environment without ambient NIMBUS_* knobs (jobs, cache, shard,
    cell budgets, telemetry): every input is passed explicitly."""
    return {k: v for k, v in os.environ.items() if not k.startswith("NIMBUS_")}


def run_child(mode, args, cache_dir):
    cmd = [BINARY, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace-file", TRACE_FILE, "--cache-dir", cache_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                          cwd=BUILD_ROOT, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s mode exited with %d" % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must fit in 64 bits")

    build()
    if not os.path.exists(TRACE_FILE):
        raise RuntimeError("missing input " + TRACE_FILE)
    os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix=args.workload + "-",
                                 dir=os.path.join(BUILD_ROOT, "tmp"))
    try:
        if args.trace:
            out = run_child("trace", args, cache_dir)
        else:
            setups = [run_child("setup", args, cache_dir)
                      ["metrics"]["setup_s"]["value"]
                      for _ in range(SETUP_PROBES)]
            t0 = time.monotonic()
            out = run_child("run", args, cache_dir)
            log("%s: %d sweeps in %.1f s" % (args.workload, out["sweeps"],
                                             time.monotonic() - t0))
            out["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                         "unit": "s"}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    checks = list(out["failed_checks"])
    # Every declared metric is printed, with its declared unit.
    metrics = {}
    for m in declared_metrics(args.trace):
        got = out["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            checks.append("metric %s missing or in another unit" % m["name"])
            continue
        if got["value"] is None:
            checks.append("metric %s not measured" % m["name"])
        metrics[m["name"]] = got
    log("%s: digest %s" % (args.workload, out["digest"]))
    for c in checks:
        log("check failed:", c)
    result = {"correct": not checks and out["failed"] == 0,
              "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("error:", e)
        sys.exit(1)
