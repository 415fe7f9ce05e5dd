#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload vod-stream --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, scratch outputs and span files. The build fails, and so does
# this script, when the checkout holds only the benchmark.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/go-cache GOPATH=$build/go-path GOMODCACHE=$build/go-path/pkg/mod
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" --out "$build" "$@"
