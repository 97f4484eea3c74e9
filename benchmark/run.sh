#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the benchmark from source inside
# the checkout (binary and Go caches under .bench_build/, nothing outside),
# then runs it with the driver's arguments from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -out "$here/out" "$@"
