#!/usr/bin/env bash
# Entry point for an outside driver (BENCHMARK.json names it): build the
# benchmark from source inside the checkout, then run it with the driver's
# arguments. Everything the Go toolchain writes — build cache, temporary
# files — is kept under .bench_build, which .gitignore names, so a run reads
# and writes nothing outside the checkout. By hand, `go run ./bench` does
# the same with the toolchain's usual cache.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

go build -o "$build/sleepbench" ./bench
exec "$build/sleepbench" "$@"
