#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload batch_io --seed 1 --seconds 10 --trace 0
#
# It builds the benchmark from source into .bench_build/ (build cache
# included, so nothing is written outside the checkout) and runs it with
# the given arguments. The first call in a checkout compiles everything;
# later calls reuse the cache.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/mrscan-bench" ./benchmark
exec "$build/mrscan-bench" "$@"
