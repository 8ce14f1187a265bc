#!/usr/bin/env bash
# Builds the training-step benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload qpinn-qheavy --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and trace file stays under .bench_build/ in the
# current directory. The build needs the repository's go.mod one level above
# this directory, so a tree holding only the benchmark fails here, before
# anything is printed on standard output.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
# The go command keeps telemetry counters under the user config directory.
(cd "$root/perfbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out-dir "$out" "$@"
