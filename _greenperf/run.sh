#!/usr/bin/env bash
# Builds the greenperf benchmark from source and runs it. Run it from the
# repository root; every argument goes to the benchmark, for example
#
#   bash _greenperf/run.sh --workload sweep --seed 1 --seconds 50 --trace 0
#
# The binary, the Go build cache, scratch campaigns and span dumps all
# stay under .bench_build/greenperf in the current directory.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal/suite || ! -f _greenperf/go.mod ]]; then
	echo "greenperf: run from the repository root: the benchmark builds the repository's own packages" >&2
	exit 2
fi
out="$PWD/.bench_build/greenperf"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters and env file
# in the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd _greenperf && go build -o "$out/greenperf" .)
exec "$out/greenperf" --out "$out" "$@"
