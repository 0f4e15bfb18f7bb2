#!/usr/bin/env bash
# Benchmark smoke runs: every workload, traced, for 2 seconds at seed 1.
# Fails unless each run is correct, has no failed operation, and every
# traced span exists (trace.missing 0) and fires (trace.silent 0).
# Writes each run's output to $RUNNER_TEMP (a fresh temporary directory when
# unset).  Run from the repository root.
set -euo pipefail
out_dir=${RUNNER_TEMP:-$(mktemp -d)}
for workload in train-shallow-q3k train-shallow-q240 train-deep-q20k infer-q3k; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 1 | tee "$out_dir/bench-$workload.out"
  tail -n 1 "$out_dir/bench-$workload.out" | python3 -c 'import json, sys; r = json.load(sys.stdin); m = r["metrics"]["trace.missing"]["value"]; s = r["metrics"]["trace.silent"]["value"]; print("correct:", r["correct"], "failed:", r["failed"], "trace.missing:", m, "trace.silent:", s); sys.exit(0 if r["correct"] is True and r["failed"] == 0 and m == 0 and s == 0 else 1)'
done
