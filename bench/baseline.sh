#!/usr/bin/env bash
# Records bench/baseline_seed42.json from the checked-out tree: the
# benchmark command run six times at seed 42 over all four workloads, kept
# as two sets of three runs with each set's per-workload medians. Run it
# from the repository root; it needs jq.
set -euo pipefail

dir=.bench_build/baseline
mkdir -p "$dir"
for i in 1 2 3 4 5 6; do
	bash bench/run.sh --seed 42 --trace 1 -out "$dir/run-$i.json" >/dev/null
done

jq -s '
  # Nearest-rank median, as the benchmark computes it.
  def median: sort | .[((length + 1) / 2 | floor) - 1];
  # One run: failures and every metric, by workload.
  def values: {
    failed: ([.runs[].failed] | add),
    workloads: ([.runs[] | {key: .workload, value: (.metrics | map({key: .name, value: .value}) | from_entries)}] | from_entries)
  };
  (map(values)) as $runs
  | {
      env: .[0].env,
      sets: [$runs[0:3], $runs[3:6]] | map(. as $set | {
        runs: $set,
        medians: ($set[0].workloads | with_entries(.key as $w | .value |= with_entries(.key as $m | .value = ([$set[].workloads[$w][$m]] | median))))
      })
    }
' "$dir"/run-{1,2,3,4,5,6}.json >bench/baseline_seed42.json
