#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the repository root:
#
#   bash e2ebench/run.sh --workload casestudy-cold --seed 1 --seconds 30 --trace 0
#
# Every Go cache and build output stays under .bench_build in the
# current directory, and no module is fetched: the benchmark builds the
# program from this checkout's source.
set -euo pipefail

root=$(pwd)
bench="$root/e2ebench"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$bench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
