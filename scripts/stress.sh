#!/usr/bin/env bash
# stress.sh — flake hunt: run the concurrency-heavy packages many times
# over under the race detector, so an intermittent failure shows up here
# before it lands in a PR's single -race run.
#
#   ./scripts/stress.sh                 # -count=20 per package
#   N=200 ./scripts/stress.sh -run StreamShutdown
#
# N sets the -count (default 20); any further arguments go to go test.
# The packages are the ones whose tests race goroutines against each
# other: the stream ingress, the session registry, the root package
# (Gateway, Service, Cluster) and the gateway server.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

exec go test -race -count="${N:-20}" -timeout 120m "$@" \
    ./internal/stream ./internal/registry . ./cmd/adasense-gateway
