#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache and run data stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The toolchain's telemetry counters live under the user config directory.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
