#!/usr/bin/env python3
"""Check a ledger run's output against BENCHMARK.json.

    python3 benchmark/selfcheck.py BENCHMARK.json TRACE OUTPUT

TRACE is 0 (end-to-end metrics expected) or 1 (per-layer metrics). OUTPUT
holds the ledger's stdout: `workload metric value unit` lines, '#' lines
and one JSON result object closing each workload's block. Every workload
must print every expected metric once, with the unit BENCHMARK.json gives,
and nothing else; every name must match [A-Za-z0-9_.-]+. Exits 1 with one
line per problem, 0 when the output is well formed. Standard library only.
"""
import json
import math
import re
import sys

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check(bench, trace, lines):
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    problems = []
    printed = {}  # metric -> unit, for the block being read
    block_workload = None
    blocks = 0
    for n, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        if line.startswith("{"):
            blocks += 1
            try:
                result = json.loads(line)
            except json.JSONDecodeError as e:
                problems.append(f"line {n}: result is not JSON ({e})")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"line {n}: result keys {sorted(result)}")
                continue
            if not isinstance(result["correct"], bool):
                problems.append(f"line {n}: 'correct' is not a boolean")
            for key in ("attempted", "failed"):
                if not isinstance(result[key], int) or isinstance(result[key], bool):
                    problems.append(f"line {n}: '{key}' is not a whole number")
            if isinstance(result["attempted"], int) and result["attempted"] < 1:
                problems.append(f"line {n}: 'attempted' is below 1")
            metrics = result["metrics"]
            if set(metrics) != set(expected):
                missing = sorted(set(expected) - set(metrics))
                extra = sorted(set(metrics) - set(expected))
                problems.append(f"line {n}: result metrics missing {missing}, unlisted {extra}")
            for name, m in metrics.items():
                value = m.get("value") if isinstance(m, dict) else None
                if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
                    problems.append(f"line {n}: {name} has no finite value")
                elif expected.get(name, m.get("unit")) != m.get("unit"):
                    problems.append(f"line {n}: {name} unit {m.get('unit')!r}, expected {expected[name]!r}")
            if set(printed) != set(expected):
                problems.append(
                    f"line {n}: {block_workload} printed lines missing "
                    f"{sorted(set(expected) - set(printed))}")
            printed, block_workload = {}, None
            continue
        fields = line.split()
        if len(fields) != 4:
            problems.append(f"line {n}: not 'workload metric value unit': {line!r}")
            continue
        workload, name, value, unit = fields
        if block_workload is None:
            block_workload = workload
        if workload not in workloads or workload != block_workload:
            problems.append(f"line {n}: workload {workload!r} not listed or mixed into {block_workload!r}")
        if not NAME.fullmatch(name):
            problems.append(f"line {n}: metric name {name!r} is not [A-Za-z0-9_.-]+")
        if name not in expected:
            problems.append(f"line {n}: {name} is not listed in BENCHMARK.json")
        elif unit != expected[name]:
            problems.append(f"line {n}: {name} unit {unit!r}, expected {expected[name]!r}")
        if name in printed:
            problems.append(f"line {n}: {name} printed twice")
        printed[name] = unit
        try:
            float(value)
        except ValueError:
            problems.append(f"line {n}: {name} value {value!r} is not a number")
    if blocks == 0:
        problems.append("no result object")
    if printed:
        problems.append(f"metric lines after the last result object: {sorted(printed)}")
    return problems


def main():
    if len(sys.argv) != 4 or sys.argv[2] not in ("0", "1"):
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        bench = json.load(f)
    with open(sys.argv[3]) as f:
        lines = f.read().splitlines()
    problems = check(bench, sys.argv[2] == "1", lines)
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
