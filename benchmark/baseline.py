#!/usr/bin/env python3
"""Record a ledger data point: medians and quartiles of 3 untraced runs at
seed 1, plus one traced run, with the machine and build they ran on.

    python3 benchmark/baseline.py OUT.json

Run from the repository root; it calls benchmark/run.sh, which runs for
BENCHMARK.json's run_seconds. Standard library only.
"""
import json
import os
import platform
import re
import statistics
import subprocess
import sys

RUNS = 3
SEED = 1


def run(workload, trace):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(SEED),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            cpu = m.group(1).strip() if m else cpu
    except OSError:
        pass
    cache = {}
    try:
        with open("build-bench/CMakeCache.txt") as f:
            for line in f:
                m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)", line)
                if m:
                    cache[m.group(1)] = m.group(2).strip()
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or "unknown"
        if subprocess.run(["git", "status", "--porcelain"], capture_output=True,
                          text=True).stdout.strip():
            commit += " (with uncommitted changes)"
    except OSError:
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": version, "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "system": platform.platform()}


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    data = {"machine": {}, "seed": SEED, "runs": RUNS, "run_seconds": bench["run_seconds"],
            "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        runs = [run(w, 0) for _ in range(RUNS)]
        untraced = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            q = statistics.quantiles(values, n=4)
            untraced[name] = {"median": statistics.median(values), "q1": q[0], "q3": q[2],
                              "values": values}
        data["workloads"][w] = {"untraced": untraced, "traced": run(w, 1)}
        print(f"{w}: done", file=sys.stderr)
    data["machine"] = machine()
    with open(sys.argv[1], "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
