#!/usr/bin/env bash
# The one command BENCHMARK.json names. Builds the benchmark from source
# (cached after the first run), pins GOMAXPROCS=2, and hands its arguments
# to the binary:
#
#   bash benchmark/run.sh --workload pace_timer --seed 1 --seconds 30 --trace 0
#
# With no arguments it runs the whole suite — every workload five times,
# then the traced pass — and writes benchmark/results/<short-sha>.json with
# the environment header. Everything it writes stays inside the checkout:
# the build, Go's build cache and its temporary files go to .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/eiffel-benchmark" ./benchmark

export GOMAXPROCS=2
if [ -z "${BENCH_COMMIT:-}" ]; then
	BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
	if [ "$BENCH_COMMIT" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
		BENCH_COMMIT="$BENCH_COMMIT-dirty"
	fi
fi
export BENCH_COMMIT

if [ $# -eq 0 ]; then
	set -- -suite 5
fi
exec "$build/eiffel-benchmark" "$@"
