#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload splash-replay --seed 1 --seconds 40 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the binary stay under .bench_build in the working directory.
set -euo pipefail

build=$(pwd)/.bench_build
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/home"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
	HOME=$build/home XDG_CONFIG_HOME=$build/home XDG_CACHE_HOME=$build/home \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go -C perfbench build -buildvcs=false -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
