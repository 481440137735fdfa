#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig2_8mem --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, CPU profiles) stays under .bench_build there.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local GOENV=off \
	GOPROXY=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -out .bench_build "$@"
