#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload live --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, stores and traces.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build/perfbench
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
