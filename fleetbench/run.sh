#!/usr/bin/env bash
# Builds adasense-gateway and the fleetbench load generator from the checkout in
# the current directory, then runs it with the given arguments:
#
#   bash fleetbench/run.sh --workload http-fleet --seed 1 --seconds 25 --trace 0
#
# Everything it writes (Go build cache, binaries, gateway logs, span
# dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/adasense-gateway || ! -f fleetbench/go.mod ]]; then
	echo "fleetbench: run from the root of an adasense checkout" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build/fleetbench"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry counters in
# the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/adasense-gateway" ./cmd/adasense-gateway
(cd fleetbench && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" -gateway "$out/adasense-gateway" -out "$out" "$@"
