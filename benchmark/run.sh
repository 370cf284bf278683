#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build leaves behind (compiler
# cache, binary, temporary profiles) stays under .bench_build/, which
# .gitignore names; nothing outside the checkout is read or written.
# Run it from the repository root: bash benchmark/run.sh --workload ...
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the repository root (no go.mod and benchmark/ here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off

go build -o "$build/vlbench" ./benchmark
exec "$build/vlbench" "$@"
