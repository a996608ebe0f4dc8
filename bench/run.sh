#!/usr/bin/env bash
# Builds the ringbench binary from the surrounding source tree and runs it
# with the given flags.  Run from the repository root:
#
#   bash bench/run.sh --workload grid-local --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and scratch file stays under .bench_build in
# the current directory (or $CARGO_TARGET_DIR when set), so the run touches
# nothing outside the tree it was started in.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/go-cache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

# The commit is stamped into the binary when the tree is a readable git
# checkout; anywhere else the build goes on without it.
go -C "$root/bench" build -o "$build/ringbench" . >&2 ||
	go -C "$root/bench" build -buildvcs=false -o "$build/ringbench" . >&2
exec "$build/ringbench" -tmp "$build/tmp" -golden "$root/testdata/golden/SHA256SUMS" "$@"
