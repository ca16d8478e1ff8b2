#!/usr/bin/env bash
# Builds ramield, ramielfe and perfbench from the checkout in the current
# directory, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload nasnet-lanes --seed 1 --seconds 45 --trace 0
#
# Build outputs and the Go build cache live in .bench_build inside the
# checkout, so the benchmark writes nowhere else.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ramield || ! -d cmd/ramielfe || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout (cmd/ramield, cmd/ramielfe and perfbench/ must exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/ramield" ./cmd/ramield
go build -o "$out/bin/ramielfe" ./cmd/ramielfe
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -root "$root" "$@"
