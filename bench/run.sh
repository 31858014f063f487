#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds ncload (which builds
# ncserve) from the checkout this script sits in and runs it with the
# arguments given, e.g.
#
#   bash bench/run.sh --workload read-knn --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write — Go's build cache, temporary
# files, binaries, data directories, trace.json — goes to .bench_build/
# at the root of the checkout, which .gitignore names.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$(dirname "$bench")/.bench_build"
mkdir -p "$work/tmp" "$work/bin"

export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
# The go command keeps its telemetry counters under the user's
# configuration directory; that is outside the checkout too.
export XDG_CONFIG_HOME="$work/config"
# The module has no dependency outside the checkout: never reach for a
# network, a newer toolchain or a module cache elsewhere.
export GOFLAGS= GOENV=off GOTOOLCHAIN=local GOPROXY=off GOPATH="$work/gopath"

cd "$bench"
go build -o "$work/bin/ncload" ./ncload
exec "$work/bin/ncload" -work "$work" "$@"
