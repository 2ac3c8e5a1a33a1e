#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build the harness from
# source into .bench_build/ at the checkout root, then run it from the
# root with the caller's arguments. The Go build cache is pinned inside
# the checkout so the benchmark writes nowhere else.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/awperf" .)
cd "$root"
exec "$build/awperf" "$@"
