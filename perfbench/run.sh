#!/usr/bin/env bash
# Builds the perfbench benchmark from this checkout's sources and runs
# it with the given arguments.  Run from the repository root:
#
#	bash perfbench/run.sh --workload dense-peel --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, the
# binary, temporary store files, span dumps) goes under .bench_build/
# in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
