#!/usr/bin/env bash
# Builds bagcpd and the perfbench harness from the checkout into
# .bench_build/, then runs one benchmark workload. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload direct-hist --seed 1 --seconds 20 --trace 0
#
# Every build artifact and cache stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/bagcpd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/bagcpd and perfbench/ must exist)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$build/bagcpd" ./cmd/bagcpd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --bagcpd "$build/bagcpd" --out "$build" "$@"
