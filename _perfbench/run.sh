#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Build cache and binary stay inside the checkout, under
# .bench_build. Arguments pass through, e.g.:
#   bash _perfbench/run.sh --workload predict-trickle --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS= GOPROXY=off
go -C _perfbench build -o "$build/perfbench-bin" . >&2
exec "$build/perfbench-bin" "$@"
