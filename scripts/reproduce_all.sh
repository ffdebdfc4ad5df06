#!/usr/bin/env bash
# Continuous perf-regression harness: run every EXT bench, collect the
# BENCH_*.json artifacts into BENCH_summary.json, and gate against the
# committed baseline.
#
# Usage:
#   scripts/reproduce_all.sh            # full run (minutes)
#   SMOKE=1 scripts/reproduce_all.sh    # CI-sized run (~seconds per bench)
#   SKIP_BENCHES=1 scripts/reproduce_all.sh   # summarize + compare only
#
# Exits nonzero when any bench fails or when summarize --compare finds a
# metric outside its baselined tolerance.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src:.${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${SMOKE:-0}" != "0" ]]; then
  export REPRO_PERF_SMOKE=1
  export REPRO_TABLE_SMOKE=1
  export REPRO_SERVING_SMOKE=1
  export REPRO_IVM_SMOKE=1
  export REPRO_SHARD_SMOKE=1
  export REPRO_SQL_SMOKE=1
  export REPRO_OBS_BENCH_REQUESTS="${REPRO_OBS_BENCH_REQUESTS:-640}"
fi

if [[ "${SKIP_BENCHES:-0}" == "0" ]]; then
  for bench in perf table serving chaos dlt ivm shard sql intro_systems \
      open_problems obs; do
    echo "== bench: ${bench} =="
    python -m pytest "benchmarks/bench_ext_${bench}.py" -x -q \
      -p no:cacheprovider
  done
fi

echo "== summarize =="
baseline="benchmarks/BENCH_baseline.json"
if [[ -f "${baseline}" ]]; then
  python benchmarks/summarize.py --compare "${baseline}"
else
  python benchmarks/summarize.py
fi
