#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory: the Go build cache, the binary and the data
# directories. No module is downloaded; the benchmark imports only the
# standard library and the repository's own packages.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters here too.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
