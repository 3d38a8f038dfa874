#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source inside
# the checkout, then run it with the driver's arguments. The Go build
# cache and the binary live under .bench_build in the working directory,
# so a run reads and writes nothing outside its checkout; the first run
# in a checkout compiles the standard library too.
set -euo pipefail
root="$PWD"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: no go.mod in $root: run from the root of a checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -o "$build/lofat-benchmark" ./benchmark
exec "$build/lofat-benchmark" "$@"
