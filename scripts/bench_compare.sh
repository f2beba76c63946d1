#!/usr/bin/env bash
# Regression gate for the substrate micro-benchmarks: re-run the bench.sh
# set and diff the fresh numbers against the latest committed BENCH_*.json
# snapshot. Any benchmark whose ns/op or allocs/op regresses by more than
# BENCH_THRESHOLD percent (default 15) fails the gate. Benchmarks with no
# baseline entry are reported but never fail (the set is allowed to grow).
#
# Timing noise: each benchmark runs BENCH_COUNT times (default 3) and the
# minimum ns/op is compared, so only regressions that survive the best of N
# runs fail the gate; allocs/op is deterministic and compared directly.
#
# Timings only compare on the same host: when the snapshot's CPU model, CPU
# count or GOMAXPROCS differ from this host's, the ns/op gate is skipped
# (with a message) and only allocs/op is gated.
#
# Usage:
#   scripts/bench_compare.sh
#   BENCH_THRESHOLD=25 scripts/bench_compare.sh   # looser gate
#   BENCH_TIME=10x scripts/bench_compare.sh       # stabler timing numbers
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/bench_set.sh

threshold=${BENCH_THRESHOLD:-15}
benchtime=${BENCH_TIME:-2x}
count=${BENCH_COUNT:-3}
pattern=${BENCH_PATTERN:-$bench_default_pattern}

baseline=$(git ls-files 'BENCH_*.json' | sort | tail -1)
if [ -z "$baseline" ]; then
  echo "bench_compare: no committed BENCH_*.json snapshot to compare against" >&2
  exit 1
fi
echo "bench_compare: baseline $baseline, threshold ${threshold}%, benchtime $benchtime, best of $count"

# snap_field reads one top-level field of the snapshot ("?" when absent).
snap_field() {
  local v
  v=$(sed -n -E "s/^  \"$1\": \"?([^\"]*[^\",])\"?,?$/\1/p" "$baseline" | head -1)
  echo "${v:-?}"
}
here="$(bench_cpu_model), $(bench_cpus) CPUs, GOMAXPROCS $(bench_gomaxprocs)"
there="$(snap_field cpu_model), $(snap_field cpus) CPUs, GOMAXPROCS $(snap_field gomaxprocs)"
gate_ns=1
if [ "$here" != "$there" ]; then
  gate_ns=0
  echo "bench_compare: $baseline comes from another host ($there; this host: $here):"
  echo "bench_compare: skipping the ns/op gate, gating allocs/op only"
fi

raw=$(go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" .)

echo "$raw" | awk -v threshold="$threshold" -v baseline="$baseline" -v gate_ns="$gate_ns" '
  BEGIN {
    # Pull {name, ns_per_op, allocs_per_op} out of the snapshot; each
    # benchmark is one line of flat JSON written by scripts/bench.sh.
    while ((getline line < baseline) > 0) {
      if (line !~ /"name"/) continue
      gsub(/[",{}\[\]]/, "", line)
      n = split(line, f, /[: ]+/)
      name = ""
      for (i = 1; i <= n; i++) {
        if (f[i] == "name") name = f[i+1]
        else if (f[i] == "ns_per_op") base_ns[name] = f[i+1]
        else if (f[i] == "allocs_per_op") base_al[name] = f[i+1]
      }
    }
    close(baseline)
    printf "%-36s %14s %14s %8s %10s %8s\n", "benchmark", "base ns/op", "ns/op", "d%", "allocs/op", "d%"
    fail = 0
  }
  function pct(fresh, base) {
    if (base == 0) return fresh > 0 ? 1e9 : 0
    return (fresh - base) * 100.0 / base
  }
  /^Benchmark/ {
    # Repeated -count runs fold into the per-benchmark minimum.
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in fresh_ns)) { order[++m] = name; fresh_ns[name] = $3; fresh_al[name] = $7 }
    if ($3 + 0 < fresh_ns[name] + 0) fresh_ns[name] = $3
    if ($7 + 0 < fresh_al[name] + 0) fresh_al[name] = $7
  }
  END {
    for (k = 1; k <= m; k++) {
      name = order[k]
      if (!(name in base_ns)) {
        printf "%-36s %14s %14s %8s %10s %8s  (new, no baseline)\n", name, "-", fresh_ns[name], "-", fresh_al[name], "-"
        continue
      }
      seen[name] = 1
      dns = pct(fresh_ns[name], base_ns[name])
      dal = pct(fresh_al[name], base_al[name])
      flag = ""
      if ((gate_ns && dns > threshold) || dal > threshold) { flag = "  REGRESSION"; fail = 1 }
      printf "%-36s %14d %14d %+7.1f%% %10d %+7.1f%%%s\n", name, base_ns[name], fresh_ns[name], dns, fresh_al[name], dal, flag
    }
    for (name in base_ns) if (!(name in seen))
      printf "%-36s missing from fresh run (pattern drift?)\n", name
    if (fail) {
      printf "bench_compare: FAIL — regression beyond %s%% against %s\n", threshold, baseline
      exit 1
    }
    printf "bench_compare: OK — no regression beyond %s%% against %s\n", threshold, baseline
  }
'
