#!/usr/bin/env bash
# Builds ccsig and the benchmark harness from source into .bench_build/
# (Go caches and temporary files included, so nothing is written outside
# the checkout) and runs one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve-long-flows --seed 1 --seconds 30 --trace 0
set -euo pipefail

root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/ccsig ]; then
	echo "e2ebench: run from the repository root (go.mod and cmd/ccsig not found)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/ccsig" ./cmd/ccsig >&2
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -ccsig "$out/ccsig" "$@"
