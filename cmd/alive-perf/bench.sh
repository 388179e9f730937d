#!/usr/bin/env bash
# Builds alive-perf from the checkout it is run in and runs it with the
# given flags. Run it from the repository root:
#
#   bash cmd/alive-perf/bench.sh --workload corpus-narrow --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the checkout, so nothing is written outside it. The
# build fails, and nothing runs, unless the alive sources are at ../..
# relative to this directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C cmd/alive-perf build -o "$out/alive-perf" .
exec "$out/alive-perf" "$@"
