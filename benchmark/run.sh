#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the runs write stays under .bench_build/ and
# benchmark/out/ of the checkout this script sits in.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command's own files too: build cache, temp files, module cache,
# and (under XDG_CONFIG_HOME) its telemetry counters.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GRAPHITE_BENCH_ROOT="$root"
go build -C "$here" -o "$build/graphite-benchmark" .
exec "$build/graphite-benchmark" "$@"
