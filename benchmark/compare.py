#!/usr/bin/env python3
"""Compare ledger runs of a parent commit with runs of a change.

    python3 benchmark/compare.py --base A1 A2 ... --change B1 B2 ...
                                 [--bench BENCHMARK.json]

Each file is either the captured stdout of `benchmark/run.sh` (metric lines
and result objects, possibly for several workloads) or a report file from
bench_results/ledger/<workload>.json. Runs are grouped by workload; pair i is
base run i with change run i, so alternate which side runs first.

For every workload and metric the table shows each side's median and
quartiles (statistics.quantiles, n=4) and a verdict, using the metric's
`bound` and `better` from BENCHMARK.json:

  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, and the runs do not separate (every
              change run better than every base run reads "better"; every
              one worse, with the median worse by more than the bound,
              reads "worse")
  worse       the change's median is worse than the base median by more
              than the bound
  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base runs'
              quartile spread
  no worse    otherwise, or every pair of runs reads exactly equal

Per-layer metrics have no bound: they get medians and quartiles only.
Exits 1 when any verdict is "worse". Standard library only.
"""
import argparse
import json
import statistics
import sys


def load_runs(path):
    """[(workload, {metric: value})] from one file."""
    with open(path) as f:
        text = f.read()
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        report = None
    if isinstance(report, dict) and "workload" in report:
        return [(report["workload"], {k: v["value"] for k, v in report["metrics"].items()})]
    runs, workload = [], None
    for line in text.splitlines():
        if line.startswith("{"):
            result = json.loads(line)
            if workload is None:
                sys.exit(f"{path}: a result object has no metric lines naming its workload")
            runs.append((workload, {k: v["value"] for k, v in result["metrics"].items()}))
            workload = None
        elif line and not line.startswith("#"):
            workload = line.split()[0]
    if not runs:
        sys.exit(f"{path}: no ledger results")
    return runs


def group(paths):
    out = {}
    for p in paths:
        for workload, metrics in load_runs(p):
            out.setdefault(workload, []).append(metrics)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def column(q):
    return f"{q[1]:.6g} [{q[0]:.4g}, {q[2]:.4g}]"


def rel_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(base, change, better, bound):
    pairs = list(zip(base, change))
    if pairs and all(b == c for b, c in pairs):
        return "no worse"  # a deterministic metric, equal run for run
    sign = 1.0 if better == "higher" else -1.0
    mb, mc = statistics.median(base), statistics.median(change)
    worse_by = sign * (mb - mc) / abs(mb) if mb else (0.0 if mb == mc else float("inf"))
    if max(rel_spread(base), rel_spread(change)) > bound:
        if all(sign * (c - b) > 0 for c in change for b in base):
            return "better"
        if worse_by > bound and all(sign * (b - c) > 0 for c in change for b in base):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    q1, _, q3 = quartiles(base)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mc - mb) > q3 - q1:
        return "better"
    return "no worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True, help="parent commit runs")
    ap.add_argument("--change", nargs="+", required=True, help="change runs")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = group(args.base), group(args.change)

    any_worse = False
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in base or workload not in change:
            continue
        b_runs, c_runs = base[workload], change[workload]
        print(f"\n{workload}: {len(b_runs)} base runs, {len(c_runs)} change runs")
        print(f"  {'metric':34s} {'base median [q1, q3]':38s} {'change median [q1, q3]':38s} "
              f"{'delta':>8s}  verdict")
        for name, spec in specs.items():
            b = [r[name] for r in b_runs if name in r]
            c = [r[name] for r in c_runs if name in r]
            if not b or not c:
                continue
            bq, cq = quartiles(b), quartiles(c)
            delta = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            v = verdict(b, c, spec["better"], spec["bound"]) if "bound" in spec else "-"
            any_worse = any_worse or v == "worse"
            print(f"  {name:34s} {column(bq):38s} {column(cq):38s} {delta:+8.2%}  {v}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
