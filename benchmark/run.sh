#!/usr/bin/env bash
# Builds the benchmark (its own module, benchmark/go.mod) and runs it from
# the repository root. Everything the build and the run write stays inside
# the checkout: the Go build cache and scratch space live in .bench_build/,
# results and traces in benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root="$PWD"
mkdir -p "$root/.bench_build/bin" "$root/.bench_build/gotmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/gotmp"
export GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/bin/benchmark" .
exec "$root/.bench_build/bin/benchmark" "$@"
