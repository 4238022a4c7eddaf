#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash dvmcbench/run.sh --workload sim-dir-oltp --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
	GOMODCACHE=$build/gopath/pkg/mod HOME=$build/home \
	XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/dvmcbench" .)
exec "$build/dvmcbench" "$@"
