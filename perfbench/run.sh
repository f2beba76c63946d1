#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload maf-replay --seed 2023 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, span files, CPU
# profiles) stays under .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

# A hermetic build: caches inside the checkout, no network, no toolchain
# switch, and no user go.env settings.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

# The simulator runs with the Go runtime's defaults.
unset GOGC GOMAXPROCS GODEBUG GOMEMLIMIT
exec "$build/perfbench" "$@"
