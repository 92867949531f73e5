#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (compiler cache, temp files, the binary) stays
# under .bench_build/ in the checkout, so a run touches no file outside it.
# Run from the checkout root: bash benchmark/run.sh --workload inproc-pipe ...
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

# The module replaces kstm with ../, so this fails (non-zero exit, nothing
# run) in a directory that holds the benchmark without the program.
(cd "$here" && go build -buildvcs=false -o "$build/kstm-benchmark" .)

cd "$root"
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec "$build/kstm-benchmark" "$@"
