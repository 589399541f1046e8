#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash cmd/bench/run.sh --workload sm-latency --seed 0 --seconds 12 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write, the Go build cache and temporary files included, stays in
# .bench_build/ under the current directory. The build needs no network:
# the benchmark's only dependency is the repository itself.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0
go -C "$(dirname "$0")" build -o "$out/bench" .
exec "$out/bench" "$@"
