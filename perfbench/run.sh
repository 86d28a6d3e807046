#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to perfbench (see main.go):
#
#   bash perfbench/run.sh --workload distinct --seed 1 --seconds 40 --trace 0
#
# Everything the build writes stays under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory. Network access is never needed:
# the module has no dependencies beyond the repository itself.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
