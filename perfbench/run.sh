#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload single-durable --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --data "$out/data" "$@"
