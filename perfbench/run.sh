#!/usr/bin/env bash
# Builds the benchmark and the sarserve daemon from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload t1-paper --seed 1 --seconds 25 --trace 0
#
# Every build artifact, Go cache and scratch file stays under .bench_build
# in the working directory. Both binaries are built without -race.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

# Turn Go telemetry off for this private config directory: otherwise the
# first go command started here forks a telemetry upload process that
# outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/sarserve" ./cmd/sarserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --sarserve "$out/bin/sarserve" --workdir "$out/run" "$@"
