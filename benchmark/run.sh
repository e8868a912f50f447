#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash benchmark/run.sh --workload miss_mem --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the working directory: the Go build cache, the binary, and (from the
# binary itself) WALs, upload spools and trace output.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local

# The module replaces "repro" with the parent directory, so the build
# fails, and this script with it, wherever the repository is absent.
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
