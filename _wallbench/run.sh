#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash _wallbench/run.sh --workload solo --seed 1 --seconds 14 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C _wallbench build -o "$build/wallbench" .
exec "$build/wallbench" "$@"
