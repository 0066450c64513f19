#!/usr/bin/env bash
# Builds gvmd, gvmfed and the benchmark harness from the checkout this
# script is run in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload ring-small --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays in .bench_build/ there, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
# Build from the checkout alone: no toolchain download, no module proxy.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/gvmd ./cmd/gvmfed >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
# Relative paths keep the daemons' unix socket addresses short: an
# absolute path inside a deep checkout can pass the 107-byte limit.
exec "$out/bin/perfbench" -bin .bench_build/bin -work .bench_build/run "$@"
