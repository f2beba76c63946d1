#!/usr/bin/env bash
# Snapshot the substrate micro-benchmarks to BENCH_<date>.json so the perf
# trajectory (ns/op, B/op, allocs/op) is tracked from PR to PR.
#
# Usage:
#   scripts/bench.sh                 # defaults: the scripts/bench_set.sh set, -benchtime 2x
#   BENCH_TIME=10x scripts/bench.sh  # more iterations for stabler numbers
#   BENCH_PATTERN='BenchmarkSimnet.*' scripts/bench.sh
#   BENCH_DATE=2026-08-06 scripts/bench.sh  # pin the snapshot name
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/bench_set.sh

pattern=${BENCH_PATTERN:-$bench_default_pattern}
benchtime=${BENCH_TIME:-2x}
out="BENCH_${BENCH_DATE:-$(date +%Y-%m-%d)}.json"

raw=$(go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" .)
echo "$raw"

{
  printf '{\n'
  printf '  "date": "%s",\n' "${BENCH_DATE:-$(date +%Y-%m-%d)}"
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  printf '  "cpu_model": "%s",\n' "$(bench_cpu_model)"
  printf '  "cpus": %s,\n' "$(bench_cpus)"
  printf '  "gomaxprocs": %s,\n' "$(bench_gomaxprocs)"
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "benchmarks": [\n'
  echo "$raw" | awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, $2, $3, $5, $7)
      if (n++) printf ",\n"
      printf "%s", line
    }
    END { printf "\n" }'
  printf '  ]\n}\n'
} >"$out"

echo "wrote $out"
