#!/usr/bin/env bash
# Builds cmd/botproxy and the benchmark program from source into .bench_build/
# at the root of the checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload browse|crowd|simulate --seed N --seconds S --trace 0|1
#
# The last line of standard output is the JSON result. Everything the build
# and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -o "$out/botproxy" ./cmd/botproxy
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -botproxy "$out/botproxy" -out "$out/perfbench-out" "$@"
