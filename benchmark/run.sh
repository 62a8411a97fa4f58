#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build the program from the
# checkout's source into .bench_build, keeping the Go build cache and
# temporary files there too, then run it with the driver's arguments.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
