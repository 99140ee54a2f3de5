#!/usr/bin/env bash
# Builds the PowerFITS benchmark from this checkout and runs it, passing
# every argument through:
#
#   bash fitsperf/run.sh --workload paper_suite --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. The build cache, the binary, scratch
# state and span files all stay under .bench_build/ there.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$here" build -o "$out/fitsperf" .
exec "$out/fitsperf" --workdir "$out" "$@"
