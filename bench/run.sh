#!/usr/bin/env bash
# Build the benchmark from source and run it; BENCHMARK.json's command.
# Everything the build and the run leave behind goes under .bench_build in
# the checkout's root (the go build cache too, so nothing outside the
# checkout is written), which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../.bench_build"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local
(cd "$here" && go build -buildvcs=false -o "$build/mirage-bench" .)
exec "$build/mirage-bench" -dir "$build" "$@"
