# Shared by scripts/bench.sh and scripts/bench_compare.sh (sourced, not run):
# the gated substrate micro-benchmarks and the host fingerprint recorded in
# every BENCH_*.json snapshot.

bench_names=(
  BenchmarkMaxMinRates
  BenchmarkSimnetFairShare
  BenchmarkSimQueue
  BenchmarkColdStartSimulation
  BenchmarkWarmInferenceSimulation
  BenchmarkServingThousandRequests
  BenchmarkServingThousandRequestsTraced
  BenchmarkServingThousandRequestsMonitored
  BenchmarkHistogramRecord
  BenchmarkProfileBERTBase
  BenchmarkPlanAlgorithm1
  BenchmarkFunctionalForwardPass
  BenchmarkClusterSixteenNodes
  BenchmarkClusterHundredNodes
  BenchmarkZooPinnedCacheLookup
  BenchmarkForecastObserve
  BenchmarkWriteChrome
)
bench_default_pattern="^($(IFS='|'; echo "${bench_names[*]}"))\$"

# bench_cpu_model prints the CPU model name, or "unknown".
bench_cpu_model() {
  local m=""
  if [ -r /proc/cpuinfo ]; then
    m=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo)
  fi
  if [ -z "$m" ]; then
    m=$(sysctl -n machdep.cpu.brand_string 2>/dev/null || true)
  fi
  echo "${m:-unknown}"
}

# bench_cpus prints the number of CPUs available to this process.
bench_cpus() { nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1; }

# bench_gomaxprocs prints the GOMAXPROCS the benchmarks run with: the
# environment's setting, else the Go runtime's default of the CPU count.
bench_gomaxprocs() { echo "${GOMAXPROCS:-$(bench_cpus)}"; }
