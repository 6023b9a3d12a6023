#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   bash perfbench/run.sh --workload query_read --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build output, Go cache, generated
# input and result file stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
# The Go tool's caches, its configuration and telemetry directory, and its
# temporary files all live under $out; no network is used.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bench" .)
exec "$out/bench" -out "$out" "$@"
