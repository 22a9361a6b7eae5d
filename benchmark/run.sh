#!/usr/bin/env bash
# The serving ledger's one command.
#
#   bash benchmark/run.sh [--workload W] [--seed N] [--seconds S]
#                         [--trace 0|1] [--smoke]
#
# Builds the ledger (Release, into build-bench/ at the repository root),
# runs one workload, or without --workload every workload BENCHMARK.json
# lists, each in a process of its own so that setup_s and peak_rss_mb are
# that workload's alone. --seconds defaults to BENCHMARK.json's run_seconds.
# Checks that the output lists exactly the metrics BENCHMARK.json names, and
# prints it: `workload metric value unit` lines, '#' context lines, and one
# JSON result object per workload as the last line of its block. Reports are
# also written to bench_results/ledger/. Exits non-zero when the build, a
# correctness check or the self-check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: $root holds no repository sources (CMakeLists.txt, src/) to build" >&2
  exit 2
fi

build=build-bench
mkdir -p bench_results/ledger
log=bench_results/ledger/build.log
if ! { [[ -f $build/CMakeCache.txt ]] ||
       cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release; } > "$log" 2>&1 ||
   ! cmake --build "$build" --target ledger -j 4 >> "$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 3
fi

trace=0
workloads=
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  case ${args[i]} in
    --trace) trace=${args[i + 1]} ;;
    --workload) workloads=${args[i + 1]} ;;
  esac
done
read -r seconds listed < <(python3 -c 'import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], *(w["name"] for w in b["workloads"]))')
workloads=${workloads:-$listed}

out=bench_results/ledger/stdout.txt
: > "$out"
status=0
for w in $workloads; do
  # The caller's arguments come after the default --seconds, so theirs wins.
  "$build/ledger" --seconds "$seconds" "$@" --workload "$w" >> "$out" || status=$?
done
python3 benchmark/selfcheck.py BENCHMARK.json "$trace" "$out" || status=$?
cat "$out"
exit "$status"
