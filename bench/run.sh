#!/usr/bin/env bash
# Builds acebench from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# Go build cache, the toolchain's own config and telemetry files, the
# binary, the run records and the scratch data of the service rings.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$out/bin/acebench" ./acebench)
exec "$out/bin/acebench" "$@"
