#!/usr/bin/env bash
# What BENCHMARK.json's command runs, from the root of a checkout: build
# the benchmark from source and run it with the arguments given. The Go
# build cache and temporary files stay inside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/mnnfast-bench" ./bench
exec "$build/mnnfast-bench" "$@"
