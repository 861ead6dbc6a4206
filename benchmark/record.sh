#!/usr/bin/env bash
# Records one run set for `bench compare`: every workload once per seed,
# workloads interleaved, each run appended as a stamped JSON line.
#
#   bash benchmark/record.sh OUT.jsonl [SEED...]     (seeds default to 1..10)
#
# Run it from a checkout of the commit to measure; alternate parent and
# change sets when comparing two commits.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$1"
shift
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then
  seeds=(1 2 3 4 5 6 7 8 9 10)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p "$(dirname "$out")"
for seed in "${seeds[@]}"; do
  for workload in denoise-512 denoise-1024x768-fast flow-320x240 serve-mixed; do
    bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace 0 --record "$out" > /dev/null
  done
done
